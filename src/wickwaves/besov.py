"""Weighted and periodic Besov norms, plus randomized inequality audits.

Norm: ||f||_{B^s_{p,r}(w)} = || 2^{ks} ||w * Delta_k f||_{L^p} ||_{l^r},
with the weighted-L^p convention ||f||_{L^p(w)} = ||w f||_{L^p} and the
inner L^p over the torus window.  Flat p = 2 block norms are exact by
Parseval, L (sum sigma_k^2 |c|^2)^(1/2).  Every other inner norm is the
rectangle rule (exact for band-limited integrands) on samples from the
spectral plan on the M x M grid, real when the coefficients are exactly
Hermitian.  Its points x = j L / M are the centred grid's rolled by M/2,
so the weight is rolled to match and sup norms keep their sample points.

Polynomial weights are rho(x) = (1 + |x|^2)^(-alpha/2).  The norm of the
periodic extension over the whole plane is computed by summing rho^p over
window translates until the tail falls below 1e-12 of the total.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .torus import (LPPartition, grid_plan, is_hermitian, lp_multiplier,
                    to_physical_array)

FLAT = "flat_on_torus"
POLY = "polynomial_decay"
_MAX_TRANSLATES = 20000     # cap on the periodic-extension tail sum's reach


@dataclass(frozen=True)
class WeightSpec:
    """Polynomial decay weight rho(x) = (1+|x|^2)^(-alpha/2), or flat."""

    alpha: float = 0.0
    mode: str = FLAT

    def __post_init__(self):
        if self.mode not in (FLAT, POLY):
            raise ValueError(f"unknown weight mode {self.mode!r}")
        if self.alpha < 0:
            raise ValueError("decay exponent alpha must be nonnegative")

    def values(self, grid):
        """rho on the grid window."""
        if self.mode == FLAT:
            return np.ones((grid.M, grid.M))
        x1, x2 = grid.grid_x()
        return (1.0 + x1**2 + x2**2) ** (-self.alpha / 2.0)

    def l1_norm(self):
        """int_{R^2} rho dx = 2 pi / (alpha - 2); needs alpha > 2."""
        if self.mode == FLAT or self.alpha <= 2:
            raise ValueError("weight is not integrable over the plane")
        return 2.0 * np.pi / (self.alpha - 2.0)


@dataclass(frozen=True)
class BesovParams:
    s: float
    p: float = 2.0
    r: float = 2.0

    def __post_init__(self):
        for q in (self.p, self.r):
            if not (q >= 1.0):
                raise ValueError("integrability indices must lie in [1, inf]")


@functools.lru_cache(maxsize=32)
def _effective_weight(grid, w: WeightSpec, p, periodic_extension):
    """Weight array on the centred grid for the inner L^p norm (cached,
    read-only: every later norm shares it).

    With periodic_extension the polynomial weight is accumulated over
    window translates x + j*L (the field has period L), which computes the
    plane-wide L^p norm of the periodic extension.
    """
    if w.mode == FLAT or not periodic_extension or np.isinf(p):
        # for p = inf the sup over translates is attained on the window
        out = w.values(grid)
    else:
        out = _translate_sum(grid, w.alpha * p / 2.0) ** (1.0 / p)
    out.flags.writeable = False
    return out


def _translate_sum(grid, q):
    """sum_j (1 + |x + j L|^2)^(-q) over the lattice of translates."""
    if q <= 1.0:
        raise ValueError("rho^p is not summable over translates; "
                         "increase alpha")
    L = grid.L
    # Exact sum over near translates, second-order Taylor tail beyond:
    # (1+|x+t|^2)^-q = (1+|t|^2)^-q (1+e)^-q with
    # e = (2 t.x + |x|^2)/(1+|t|^2); odd terms cancel by lattice symmetry.
    # The truncation error is O((J0*L)^(-2q-1)), far below the 1e-12 tail
    # target for J0 = 10.  The tail sum runs out to |t| ~ 10^reach.
    J0 = 10
    reach = 13.0 / (2 * q - 2)
    if reach >= np.log10((_MAX_TRANSLATES - J0) * L):
        raise ValueError("rho^p decays too slowly to sum within %d "
                         "translates; increase alpha" % _MAX_TRANSLATES)
    x1, x2 = grid.grid_x()
    js = np.arange(-J0, J0 + 1)
    total = np.zeros((grid.M, grid.M))
    for j1 in js:
        for j2 in js:
            total += (1.0 + (x1 + j1 * L) ** 2 + (x2 + j2 * L) ** 2) ** (-q)
    Jbig = max(int(np.ceil(10.0 ** reach / L)) + J0, 2 * J0)
    jf = np.arange(-Jbig, Jbig + 1)
    t1, t2 = np.meshgrid(jf * L, jf * L, indexing="ij")
    far = np.maximum(np.abs(jf[:, None]), np.abs(jf[None, :])) > J0
    base = (1.0 + t1**2 + t2**2)[far] ** (-1.0)
    f0 = base**q
    A = float(np.sum(f0))
    B1 = float(np.sum(f0 * base))
    M1 = float(np.sum(f0 * base**2 * t1[far] ** 2))
    C2 = float(np.sum(f0 * base**2))
    xsq = x1**2 + x2**2
    # Sum_t (t.x)^2 g(t) = M1 |x|^2 by lattice symmetry (isotropic moments)
    tail = (A - q * B1 * xsq
            + 0.5 * q * (q + 1) * (4.0 * M1 * xsq + C2 * xsq**2))
    return total + np.maximum(tail, 0.0)


def _lp_sum(samples, p, weight, out):
    """sum |w u|^p over the torus window (max |w u| for p = inf), formed
    in `out`, a real array of the samples' shape; weight None is flat."""
    wu = np.abs(samples, out=out)
    if weight is not None:
        wu *= weight
    if np.isinf(p):
        return np.max(wu, axis=(-2, -1))
    wu **= p
    return np.sum(wu, axis=(-2, -1))


def besov_norm_array(grid, coeffs, params: BesovParams, w: WeightSpec,
                     part=None, periodic_extension=False):
    """Batched Besov norm of coefficient arrays (..., nk, nk)."""
    part = part or LPPartition(grid.K)
    coeffs = np.asarray(coeffs)
    sigmas = [lp_multiplier(grid, part, k) for k in part.blocks()]
    if w.mode == FLAT and params.p == 2:
        power = np.abs(coeffs) ** 2
        norms = [grid.L * np.sqrt(np.sum(sig**2 * power, axis=(-2, -1)))
                 for sig in sigmas]
    else:
        plan = grid_plan(grid, is_hermitian(coeffs))
        weight = None if w.mode == FLAT else np.roll(
            _effective_weight(grid, w, params.p, periodic_extension),
            grid.M // 2, axis=(0, 1))

        def work(u, planes):
            return None, _lp_sum(u, params.p, weight, planes[0])
        # the discrete L^p norm (h^2 sum |w u|^p)^(1/p), the rectangle rule
        sums = [plan.round_trip(coeffs * sig, work)[1] for sig in sigmas]
        norms = sums if np.isinf(params.p) else [
            (grid.h**2 * v) ** (1.0 / params.p) for v in sums]
    vals = np.stack([2.0 ** (k * params.s) * n
                     for k, n in zip(part.blocks(), norms)], axis=0)
    if np.isinf(params.r):
        return np.max(vals, axis=0)
    return np.sum(vals**params.r, axis=0) ** (1.0 / params.r)


def besov_norm(f, params: BesovParams, w: WeightSpec = WeightSpec(),
               part=None, periodic_extension=False):
    """Besov norm of a single field."""
    return float(besov_norm_array(f.grid, f.coeffs, params, w, part,
                                  periodic_extension))


# ---------------------------------------------------------------------------
# inequality audits

AUDIT_KINDS = ("multiplication", "duality", "interpolation", "embedding",
               "periodic_vs_weighted")


def random_band_limited(grid, gen, decay=None):
    """Random test field: c(n) = g_n (1+|n|^2)^(-gamma/2), g_n complex
    Gaussian, gamma drawn uniformly from [0.5, 2.5] unless given."""
    from .gaussian import _hermitian_gaussian_coeffs

    gamma = gen.uniform(0.5, 2.5) if decay is None else decay
    g = _hermitian_gaussian_coeffs(grid, gen, None)
    c = g * (1.0 + grid.mode_nsq()) ** (-gamma / 2.0)
    return np.where(grid.ball_mask(), c, 0.0)


def _audit_multiplication(grid, gen, part):
    from .torus import dealiased_product_arrays

    s1, s2, r = -0.25, 1.0, 2.0
    p, p1, p2 = 2.0, 4.0, 4.0
    w1 = WeightSpec(1.0, POLY)
    w12 = WeightSpec(2.0, POLY)
    f = random_band_limited(grid, gen)
    g = random_band_limited(grid, gen)
    fg = dealiased_product_arrays(grid, [f, g])
    lhs = float(besov_norm_array(grid, fg, BesovParams(s1, p, r), w12, part))
    rhs = float(besov_norm_array(grid, f, BesovParams(s1, p1, r), w1, part)
                * besov_norm_array(grid, g, BesovParams(s2, p2, r), w1, part))
    return lhs, rhs


def _audit_duality(grid, gen, part):
    s = 0.5
    w1 = WeightSpec(1.0, POLY)
    f = random_band_limited(grid, gen)
    g = random_band_limited(grid, gen)
    uf = to_physical_array(grid, f).real
    ug = to_physical_array(grid, g).real
    rho2 = w1.values(grid) ** 2
    lhs = abs(float(grid.h**2 * np.sum(uf * ug * rho2)))
    rhs = float(besov_norm_array(grid, f, BesovParams(s, 2, 2), w1, part)
                * besov_norm_array(grid, g, BesovParams(-s, 2, 2), w1, part))
    return lhs, rhs


def _audit_interpolation(grid, gen, part):
    theta = gen.uniform(0.1, 0.9)
    s1, s2 = 1.0, -0.5
    p1, p2 = 2.0, 4.0
    r1, r2 = 2.0, 4.0
    beta, gamma_w = 1.0, 3.0
    s = theta * s1 + (1 - theta) * s2
    p = 1.0 / (theta / p1 + (1 - theta) / p2)
    r = 1.0 / (theta / r1 + (1 - theta) / r2)
    alpha = theta * beta + (1 - theta) * gamma_w
    f = random_band_limited(grid, gen)
    lhs = float(besov_norm_array(grid, f, BesovParams(s, p, r),
                                 WeightSpec(alpha, POLY), part))
    rhs = float(
        besov_norm_array(grid, f, BesovParams(s1, p1, r1),
                         WeightSpec(beta, POLY), part) ** theta
        * besov_norm_array(grid, f, BesovParams(s2, p2, r2),
                           WeightSpec(gamma_w, POLY), part) ** (1 - theta))
    return lhs, rhs


def _audit_embedding(grid, gen, part):
    s, eps, p, r = 0.0, 0.25, 2.0, 2.0
    w = WeightSpec(1.0, POLY)
    f = random_band_limited(grid, gen)
    lhs = float(besov_norm_array(grid, f, BesovParams(s, p, r), w, part))
    rhs = float(besov_norm_array(grid, f, BesovParams(s + eps, p, np.inf),
                                 w, part))
    return lhs, rhs


def _audit_periodic_vs_weighted(grid, gen, part):
    s, p, r = 0.5, 2.0, 2.0
    w = WeightSpec(3.0, POLY)
    f = random_band_limited(grid, gen)
    periodic = float(besov_norm_array(grid, f, BesovParams(s, p, r),
                                      WeightSpec(), part))
    weighted = float(besov_norm_array(grid, f, BesovParams(s, p, r), w, part,
                                      periodic_extension=True))
    # lower: ||rho||_L1 * weighted <= C * periodic;
    # upper: periodic <= C * L^alpha * weighted
    lower_ratio = w.l1_norm() * weighted / periodic
    upper_ratio = periodic / (grid.L**w.alpha * weighted)
    return max(lower_ratio, upper_ratio), 1.0


_AUDITS = {
    "multiplication": _audit_multiplication,
    "duality": _audit_duality,
    "interpolation": _audit_interpolation,
    "embedding": _audit_embedding,
    "periodic_vs_weighted": _audit_periodic_vs_weighted,
}


@dataclass
class AuditReport:
    kind: str
    seed: int
    rows: list  # (trial, lhs, rhs, ratio)

    @property
    def max_ratio(self):
        return max(row[3] for row in self.rows)


def inequality_audit(kind, trials, seed, grid=None):
    """Randomized audit of one Besov inequality; returns max observed ratio."""
    if kind not in _AUDITS:
        raise ValueError(f"unknown audit kind {kind!r}; "
                         f"choose from {AUDIT_KINDS}")
    from .torus import TorusGrid

    grid = grid or TorusGrid(L=2.0, M=32, K=3.0)
    part = LPPartition(grid.K)
    gen = np.random.Generator(np.random.Philox(key=np.array(
        [seed, AUDIT_KINDS.index(kind)], dtype=np.uint64)))
    rows = []
    for t in range(trials):
        lhs, rhs = _AUDITS[kind](grid, gen, part)
        ratio = lhs / rhs if rhs > 0 else 0.0
        rows.append((t, lhs, rhs, ratio))
    return AuditReport(kind, seed, rows)


def load_calibration(path=None):
    """Frozen calibration constants for the audited inequalities."""
    if path is None:
        from importlib.resources import files

        path = files("wickwaves").joinpath("data/calibration.json")
        return json.loads(path.read_text())
    with open(path) as fh:
        return json.load(fh)


def check_audit(report: AuditReport, calibration=None, slack=1.05):
    """True when every observed ratio stays within the frozen constant + 5%."""
    calibration = calibration or load_calibration()
    bound = calibration["audit_constants"][report.kind] * slack
    return report.max_ratio <= bound, bound
