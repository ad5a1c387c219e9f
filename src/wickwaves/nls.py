"""Truncated Wick-ordered cubic Schrodinger flow.

Complex band-limited fields evolve under

    i u_t = (m^2 - Lap) u + lam * P_K [ (|u|^2 - c a) u ],

with the counterterm c = 2 of complex normal ordering, which makes the
nonlinear substep a pure pointwise phase rotation, hence exactly
mass-preserving before re-truncation.  The linear propagator is the
unitary multiplier e^{-i t (m^2 + |n|^2)} (the m^2 phase is a global
gauge and moves no modulus-based diagnostic).  `evolve` runs
`split_step` on the time loop shared with NLW (`_timeloop`).

The invariant measure candidate is the complex free field tilted by
exp(-(lam/2) int (|u|^4 - 4 a |u|^2 + 2 a^2) dx), the Gibbs measure of
the conserved Hamiltonian of this flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _timeloop
from .besov import BesovParams, WeightSpec, besov_norm_array
from .gaussian import WICK_TABLE, wick_constant_continuum, wick_power_coeffs
from .io import NumericalGateError
from .torus import FourierField, GridMismatchError, TorusGrid, spectral_plan


PHASE_SUBSTEP = "phase"
MIDPOINT_SUBSTEP = "midpoint"


@dataclass
class NlsState:
    """Complex field state; coefficients may carry leading batch axes."""

    grid: TorusGrid
    u: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.complex128)
        if self.u.shape[-2:] != (self.grid.nk, self.grid.nk):
            raise GridMismatchError("coefficient array does not match grid")

    def copy(self):
        return NlsState(self.grid, self.u.copy())

    def take(self, index):
        """The members at `index` of the leading axis (a view)."""
        return NlsState(self.grid, self.u[index])

    @staticmethod
    def join(states):
        """One state of the states' members, in order."""
        return NlsState(states[0].grid, np.concatenate([s.u for s in states]))

    def field(self, index=()):
        return FourierField(self.grid, self.u[index], real=False)


@dataclass(frozen=True)
class NlsConfig:
    m: float = 1.0
    lam: float = 0.0
    dt: float = 0.01
    wick_a: float = None
    substep: str = PHASE_SUBSTEP

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("mass m must be positive")
        if self.dt <= 0:
            raise ValueError("step size dt must be positive")
        if self.substep not in (PHASE_SUBSTEP, MIDPOINT_SUBSTEP):
            raise ValueError("substep must be 'phase' or 'midpoint'")

    def a(self, grid):
        if self.wick_a is not None:
            return self.wick_a
        return wick_constant_continuum(grid.K, self.m)


def nls_linear_propagate(state: NlsState, m, t):
    """Exact unitary rotation e^{-i t (m^2 + |n|^2)} per mode."""
    grid = state.grid
    phase = np.exp(-1j * t * (m**2 + grid.mode_nsq()))
    return NlsState(grid, np.where(grid.ball_mask(), phase * state.u, 0.0))


def mass(state: NlsState):
    """Conserved L^2 mass, int |u|^2 dx; batched over leading axes."""
    return state.grid.volume * np.sum(np.abs(state.u) ** 2, axis=(-2, -1))


def _phase_kick(grid, coeffs, lam, tau, a):
    """Exact flow of the nonlinear substep: pointwise phase rotation
    u <- u exp(-i lam tau (|u|^2 - 2 a)), evaluated alias-free and then
    re-truncated to the active band."""
    plan = spectral_plan(grid, real=False)
    z = plan.to_grid(coeffs)
    shifted = WICK_TABLE[False].shifted(z, a)
    return plan.from_grid(z * np.exp(-1j * lam * tau * shifted))


def _midpoint_kick(grid, coeffs, lam, tau, a, tol=1e-13, max_iter=60):
    """Implicit-midpoint flow of the truncated quartic Hamiltonian:

        u' = u - i lam tau P_K[(|w|^2 - 2 a) w],  w = (u + u')/2.

    Symplectic, time-reversible, and exactly mass-conserving at the fixed
    point (the projected cubic pairs to a real number against w), so the
    composed splitting is second order for the truncated system even on
    rough fields.  Fixed-point iteration converges geometrically for
    small lam*tau.

    Each member iterates until its own update is at most `tol` times its
    own norm, and only the members still iterating are transformed, so a
    member's result does not depend on the batch around it.  A member not
    converged after `max_iter` updates raises NumericalGateError.
    """
    u = coeffs.reshape((-1,) + coeffs.shape[-2:])
    out = np.empty_like(u)
    bound = tol * tol * _sq_norms(u)
    live = np.arange(len(u))
    new = u
    for _ in range(max_iter):
        mid = u + new
        mid *= 0.5
        nxt = wick_power_coeffs(grid, mid, 3, a, real=False)
        nxt *= -1j * lam * tau
        nxt += u
        done = _sq_norms(nxt - new) <= bound[live]
        new = nxt
        if done.any():
            out[live[done]] = nxt[done]
            live, u, new = live[~done], u[~done], nxt[~done]
            if live.size == 0:
                return out.reshape(coeffs.shape)
    raise NumericalGateError(
        "implicit midpoint kick: %d member(s) not converged to tol %g in "
        "%d iterations" % (live.size, tol, max_iter))


def _sq_norms(c):
    """Sum of |c|^2 over the last two axes."""
    return np.sum(c.real * c.real + c.imag * c.imag, axis=(-2, -1))


def split_step(state: NlsState, cfg: NlsConfig, dt=None):
    """Strang step: half nonlinear kick, full linear rotation, half kick.

    The kick is either the pointwise Wick phase rotation re-truncated to
    the band (cfg.substep == "phase"; spectrally exact for smooth fields)
    or the implicit midpoint step of the projected quartic Hamiltonian
    (cfg.substep == "midpoint"; second order and mass-conserving on rough
    fields, used by the measure-invariance experiments).
    """
    grid = state.grid
    if dt is None:
        dt = cfg.dt
    u = state.u
    if cfg.lam != 0.0:
        a = cfg.a(grid)
        kick = (_phase_kick if cfg.substep == PHASE_SUBSTEP
                else _midpoint_kick)
        u = kick(grid, u, cfg.lam, 0.5 * dt, a)
    u = np.where(grid.ball_mask(),
                 np.exp(-1j * dt * (cfg.m**2 + grid.mode_nsq())) * u, 0.0)
    if cfg.lam != 0.0:
        u = kick(grid, u, cfg.lam, 0.5 * dt, a)
    return NlsState(grid, u)


def evolve(state: NlsState, cfg: NlsConfig, t_final, record_times=None):
    """Integrate to t_final with steps of cfg.dt (last step shortened to
    land exactly); optionally returns snapshots at the requested times."""
    return _timeloop.run(lambda st, _, dt: (split_step(st, cfg, dt), None),
                         state, cfg.dt, t_final, record_times, grouped=True)


# ---------------------------------------------------------------------------
# Dispersive audit: || T_t f ||_{B^s} <= C || f ||_{B^{s+2}} uniformly in t

def dispersive_audit(f: FourierField, t_grid, s, p, q, m=1.0,
                     weight: WeightSpec = WeightSpec()):
    """Ratio of the propagated Besov norm at order s to the initial norm
    at order s+2, over a time grid; reports the max ratio and a linear
    trend fit (slope with a 95% confidence interval).
    """
    grid = f.grid
    params_lo = BesovParams(s, p, q)
    params_hi = BesovParams(s + 2.0, p, q)
    denom = float(besov_norm_array(grid, f.coeffs, params_hi, weight))
    state = NlsState(grid, f.coeffs)
    ratios = []
    for t in t_grid:
        prop = nls_linear_propagate(state, m, float(t))
        num = float(besov_norm_array(grid, prop.u, params_lo, weight))
        ratios.append(num / denom)
    t_arr = np.asarray(t_grid, dtype=float)
    r_arr = np.asarray(ratios)
    # least-squares slope and its standard error
    tc = t_arr - t_arr.mean()
    sxx = float(np.dot(tc, tc))
    slope = float(np.dot(tc, r_arr) / sxx)
    resid = r_arr - r_arr.mean() - slope * tc
    dof = max(len(t_arr) - 2, 1)
    se = math.sqrt(float(np.dot(resid, resid)) / dof / sxx)
    return {
        "ratios": r_arr,
        "t_grid": t_arr,
        "max_ratio": float(np.max(r_arr)),
        "slope": slope,
        "slope_se": se,
        "slope_ci": (slope - 1.96 * se, slope + 1.96 * se),
    }


# ---------------------------------------------------------------------------
# Holder-in-time tightness diagnostic

def holder_quotients(times, coeffs_list, grid, alpha, s=-4.1,
                     weight: WeightSpec = WeightSpec(3.0, "polynomial_decay")):
    """sup-style Holder quotients ||u(t)-u(s)||_{H^s(rho)} / |t-s|^alpha
    over dyadic-in-separation time pairs of one trajectory."""
    params = BesovParams(s, 2.0, 2.0)
    t = np.asarray(times, dtype=float)
    n = len(t)
    quots = []
    gap = 1
    while gap < n:
        for i in range(0, n - gap, max(gap, 1)):
            j = i + gap
            d = np.asarray(coeffs_list[j]) - np.asarray(coeffs_list[i])
            nrm = float(besov_norm_array(grid, d, params, weight))
            quots.append(nrm / abs(t[j] - t[i]) ** alpha)
        gap *= 2
    return max(quots) if quots else 0.0


def tightness_diagnostic(trajectories_by_L, alpha=0.25, s=-4.1,
                         weight: WeightSpec = WeightSpec(3.0,
                                                         "polynomial_decay"),
                         n_boot=400, seed=0):
    """Distribution of per-trajectory Holder quotients for each torus size.

    trajectories_by_L maps L -> (grid, list of (times, coeffs_list)).
    Reports the median and a bootstrap CI per L plus a Mann-Kendall trend
    test on the medians (tightness predicts no upward trend).
    Requires at least two torus sizes.
    """
    from .stats import mann_kendall
    if len(trajectories_by_L) < 2:
        raise ValueError("need trajectories at >= 2 torus sizes")
    gen = np.random.default_rng(seed)
    per_l = {}
    for L in sorted(trajectories_by_L):
        grid, trajs = trajectories_by_L[L]
        vals = np.array([holder_quotients(ts, cs, grid, alpha, s, weight)
                         for ts, cs in trajs])
        boots = np.median(
            vals[gen.integers(0, len(vals), size=(n_boot, len(vals)))],
            axis=1)
        per_l[L] = {
            "quotients": vals,
            "median": float(np.median(vals)),
            "median_ci": (float(np.percentile(boots, 2.5)),
                          float(np.percentile(boots, 97.5))),
        }
    medians = [per_l[L]["median"] for L in sorted(per_l)]
    mk = mann_kendall(medians)
    return {
        "per_L": per_l,
        "medians": medians,
        "mann_kendall": mk,
        "upward_trend": mk["trend"] == "increasing",
    }
