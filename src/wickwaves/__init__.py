"""wickwaves: a pseudospectral laboratory for the 2-D quartic Gibbs
measure and Wick-ordered cubic wave/Schrodinger flows under Fourier
truncation.

Layers:

- torus: grids, band-limited fields, the spectral plan (alias-free padded
  transforms), dealiased products, Littlewood-Paley blocks.
- gaussian: free-field and white-noise sampling, Wick renormalization
  constants and Wick powers.
- besov: weighted Besov/Sobolev norms and randomized inequality audits.
- phi4: the quartic Gibbs measure and its exact samplers (HMC, MALA,
  rejection).
- nlw / nls: truncated Wick-ordered cubic wave and Schrodinger flows.
- harness: measure-invariance experiments, volume stabilization, blow-up
  bookkeeping.
- cli / io: reproducible command-line experiments and artifacts.

Reproducibility: on a given platform, a seed gives bitwise the same
results whatever the worker count (the CPUs the process may use: FFT
workers of the spectral plan and threads of the member groups) and however
the members are batched and grouped over threads (members never interact,
and each member of an implicit-midpoint kick iterates to its own
tolerance).  Across changes of a kernel, results are reproducible
statistically, not bitwise.
"""

__version__ = "1.0.0"

from .torus import (
    FourierField,
    GridMismatchError,
    LPPartition,
    TorusGrid,
    from_physical,
    to_physical,
)
from .besov import BesovParams, WeightSpec, besov_norm, inequality_audit
from .gaussian import (
    RngStream,
    sample_gff_coeffs,
    sample_white_noise_coeffs,
    wick_constant_continuum,
    wick_constant_lattice,
    wick_power,
)
from .phi4 import MeasureSpec, run_chain
from .nlw import NlwConfig, WaveState
from .nls import NlsConfig, NlsState
from .harness import invariance_experiment, sample_initial_ensemble

__all__ = [
    "BesovParams",
    "FourierField",
    "GridMismatchError",
    "LPPartition",
    "MeasureSpec",
    "NlsConfig",
    "NlsState",
    "NlwConfig",
    "RngStream",
    "TorusGrid",
    "WaveState",
    "WeightSpec",
    "besov_norm",
    "from_physical",
    "inequality_audit",
    "invariance_experiment",
    "run_chain",
    "sample_gff_coeffs",
    "sample_initial_ensemble",
    "sample_white_noise_coeffs",
    "to_physical",
    "wick_constant_continuum",
    "wick_constant_lattice",
    "wick_power",
    "__version__",
]
