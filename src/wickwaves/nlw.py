"""Truncated Wick-ordered cubic wave flow.

The flow on band-limited real fields is

    u_tt + (m^2 - Lap) u + lam * P_K :u^3: = 0,
    :u^3: = (P_K u)^3 - 3 a (P_K u),

with -Lap acting as |n|^2 in the scaled-gradient convention, so the
dispersion relation is omega(n) = sqrt(m^2 + |n|^2).  The linear flow is
an exact per-mode rotation; the nonlinear flow uses palindromic
kick/rotate/kick splitting (second order, time-reversible, symplectic),
and conserves

    H = (1/2) int (u_t^2 + |D u|^2 + m^2 u^2) dx
        + (lam/4) int (u^4 - 6 a u^2 + 3 a^2) dx

up to bounded O(dt^2) oscillation.  `evolve` steps on the time loop
shared with NLS (`_timeloop`) and reuses each closing kick's force as the
next opening one (first-same-as-last).  A Picard solver for the Duhamel
fixed point provides an independent local-in-time cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _timeloop
from .gaussian import wick_constant_continuum, wick_power_coeffs
from .phi4 import MeasureSpec, quartic_integral
from .torus import (
    FourierField,
    GridMismatchError,
    TorusGrid,
    chi_plateau,
    from_physical_array,
    to_physical_array,
)


@dataclass
class WaveState:
    """Position/velocity pair; coefficient arrays may carry leading batch
    axes (shape (..., nk, nk))."""

    grid: TorusGrid
    u: np.ndarray
    ut: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.complex128)
        self.ut = np.asarray(self.ut, dtype=np.complex128)
        if self.u.shape != self.ut.shape:
            raise ValueError("u and ut must have matching shapes")
        if self.u.shape[-2:] != (self.grid.nk, self.grid.nk):
            raise GridMismatchError("coefficient arrays do not match grid")

    def copy(self):
        return WaveState(self.grid, self.u.copy(), self.ut.copy())

    def u_field(self, index=()):
        return FourierField(self.grid, self.u[index], real=True)

    def ut_field(self, index=()):
        return FourierField(self.grid, self.ut[index], real=True)


@dataclass(frozen=True)
class NlwConfig:
    m: float = 1.0
    lam: float = 0.0
    dt: float = 0.01
    wick_a: float = None

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("mass m must be positive")
        if self.lam < 0:
            raise ValueError("coupling lambda must be >= 0")
        if self.dt <= 0:
            raise ValueError("step size dt must be positive")

    def a(self, grid):
        if self.wick_a is not None:
            return self.wick_a
        return wick_constant_continuum(grid.K, self.m)


def _omega(grid, m):
    return np.sqrt(m**2 + grid.mode_nsq())


def linear_propagate(state: WaveState, m, t):
    """Exact linear wave rotation by time t (any sign; exact group)."""
    om = _omega(state.grid, m)
    c, s = np.cos(om * t), np.sin(om * t)
    u = c * state.u + (s / om) * state.ut
    ut = -om * s * state.u + c * state.ut
    return WaveState(state.grid, u, ut)


def wick_cubic_coeffs(grid, u_coeffs, a):
    """P_K :(P_K u)^3: — alias-free cubic minus the linear counterterm."""
    return wick_power_coeffs(grid, u_coeffs, 3, a)


def _force(state: WaveState, cfg: NlwConfig):
    """The Wick cubic force at the state's position (None when lam = 0)."""
    if cfg.lam == 0.0:
        return None
    return wick_cubic_coeffs(state.grid, state.u, cfg.a(state.grid))


def _strang(state: WaveState, force, cfg: NlwConfig, dt):
    """Kick-rotate-kick from the force at the state's position; returns the
    new state and the force at its position, which the next step's opening
    kick reuses (first-same-as-last)."""
    half = 0.5 * dt * cfg.lam
    if force is not None:
        state = WaveState(state.grid, state.u, state.ut - half * force)
    state = linear_propagate(state, cfg.m, dt)
    force = _force(state, cfg)
    ut = state.ut if force is None else state.ut - half * force
    return WaveState(state.grid, state.u, ut), force


def strang_step(state: WaveState, cfg: NlwConfig, dt=None):
    """Kick-rotate-kick splitting step; dt overrides cfg.dt and may be
    negative (the splitting is palindromic, so step(-dt) undoes step(dt))."""
    return _strang(state, _force(state, cfg), cfg,
                   cfg.dt if dt is None else dt)[0]


def evolve(state: WaveState, cfg: NlwConfig, t_final, record_times=None):
    """Integrate to t_final with steps of cfg.dt (last step shortened to
    land exactly); optionally returns snapshots at the requested times.
    n steps make n + 1 cubic evaluations."""
    return _timeloop.run(lambda st, force, dt: _strang(st, force, cfg, dt),
                         state, cfg.dt, t_final, record_times,
                         start=lambda st: _force(st, cfg))


def hamiltonian(state: WaveState, cfg: NlwConfig):
    """Conserved energy of the truncated flow; batched over leading axes."""
    grid = state.grid
    osq = cfg.m**2 + grid.mode_nsq()
    quad = 0.5 * grid.volume * np.sum(
        np.abs(state.ut) ** 2 + osq * np.abs(state.u) ** 2, axis=(-2, -1))
    if cfg.lam == 0.0:
        return quad
    spec = MeasureSpec(grid, cfg.m, cfg.lam, wick_a=cfg.a(grid))
    return quad + 0.25 * cfg.lam * quartic_integral(spec, state.u)


# ---------------------------------------------------------------------------
# Picard fixed point for the Duhamel formulation

def picard_tau(lam, M, C=1.0):
    """Local existence time tau = C^-2 (4 lam R^3)^-2 with R = max(1, M)."""
    r = max(1.0, M)
    return 1.0 / (C**2 * (4.0 * lam * r**3) ** 2)


def _sobolev_weight(grid, s):
    return (1.0 + grid.mode_nsq()) ** (s / 2.0)


def picard_local_solve(state: WaveState, cfg: NlwConfig, tau, n_nodes=33,
                       tol=1e-12, max_iter=60, s_norm=0.9):
    """Solve the Duhamel fixed point for the nonlinear part on [0, tau].

    With w the exact linear evolution of the initial data, iterate

        v <- -lam int_0^t S_{t-s} P_K :(v + w)^3(s): ds

    on a uniform grid of n_nodes times (composite trapezoid), measuring
    successive differences in the H^s sup-in-time norm.  Returns
    (v_nodes, info) where v_nodes[j] are position coefficients at node j
    and info reports the observed contraction factors.
    Raises RuntimeError when the iteration fails to contract.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    grid = state.grid
    a = cfg.a(grid)
    t_nodes = np.linspace(0.0, tau, n_nodes)
    om = _omega(grid, cfg.m)
    # linear path at the nodes
    w = np.stack([linear_propagate(state, cfg.m, t).u for t in t_nodes])
    weight = _sobolev_weight(grid, s_norm)

    def sup_norm(vs):
        return float(np.max(grid.L * np.sqrt(
            np.sum(weight**2 * np.abs(vs) ** 2, axis=(-2, -1)))))

    v = np.zeros_like(w)
    factors = []
    prev_diff = None
    for it in range(max_iter):
        f = np.stack([wick_cubic_coeffs(grid, v[j] + w[j], a)
                      for j in range(n_nodes)])
        v_new = np.zeros_like(v)
        # trapezoid over s for each node t_j: kernel sin(om (t_j - t_s))/om
        for j in range(1, n_nodes):
            ts = t_nodes[:j + 1]
            kern = np.sin(om[None] * (t_nodes[j] - ts)[:, None, None]) / om[None]
            wts = np.full(j + 1, tau / (n_nodes - 1))
            wts[0] *= 0.5
            wts[-1] *= 0.5
            v_new[j] = -cfg.lam * np.tensordot(wts, kern * f[:j + 1], axes=(0, 0))
        diff = sup_norm(v_new - v)
        if prev_diff is not None and prev_diff > 0:
            factors.append(diff / prev_diff)
        prev_diff = diff
        v = v_new
        if diff < tol:
            break
    info = {
        "iterations": it + 1,
        "final_difference": prev_diff,
        "contraction_factors": factors,
        "contraction_factor": max(factors) if factors else 0.0,
        "t_nodes": t_nodes,
    }
    if factors and min(factors[:3]) >= 1.0:
        raise RuntimeError(
            "Picard iteration is not contracting at tau=%g "
            "(factor %.3f >= 1); choose a smaller interval" % (tau, factors[0]))
    return v, info


# ---------------------------------------------------------------------------
# Finite speed of propagation

def exterior_bump(grid, bump_coeffs, radius, sharpness=2.0):
    """Band-limited field vanishing (to spectral accuracy) on B(0, radius).

    A smooth ramp (built from the plateau profile, so all derivatives
    vanish at its endpoints) rises from 0 at |x| = radius to 1 at
    |x| = radius*(1 + 1/sharpness); the product with the input field is
    re-band-limited, which reintroduces only a spectrally small interior
    residue for smooth inputs.
    """
    x1, x2 = grid.grid_x()
    r = np.sqrt(x1**2 + x2**2)
    t = np.clip((r - radius) * sharpness / max(radius, 1e-12), 0.0, 1.0)
    ramp = 1.0 - chi_plateau(0.75 + t * (4.0 / 3.0 - 0.75))
    bump_phys = to_physical_array(grid, bump_coeffs).real
    return from_physical_array(grid, bump_phys * ramp)


def finite_speed_test(state_a: WaveState, state_b: WaveState, R, t,
                      cfg: NlwConfig, speed=1.0):
    """Evolve two states agreeing on B(0, R) and report the leakage of
    their difference into the shrunken ball B(0, R - speed*t).

    The scaled-gradient convention propagates signals at speed 1/(2 pi);
    passing speed=1 reproduces the conservative unit-speed ball.  Returns
    a dict with interior/exterior/total difference norms and their ratio.
    """
    if state_a.grid != state_b.grid:
        raise GridMismatchError("states must share a grid")
    r_in = R - speed * t
    if r_in <= 0:
        raise ValueError("shrunken ball is empty: R - speed*t <= 0")
    grid = state_a.grid
    ea = evolve(state_a, cfg, t)
    eb = evolve(state_b, cfg, t)
    diff_phys = to_physical_array(grid, ea.u - eb.u).real
    x1, x2 = grid.grid_x()
    inside = (x1**2 + x2**2) <= r_in**2
    cell = grid.h**2
    total = math.sqrt(float(np.sum(diff_phys**2)) * cell)
    interior = math.sqrt(float(np.sum(diff_phys[inside] ** 2)) * cell)
    exterior = math.sqrt(max(total**2 - interior**2, 0.0))
    return {
        "interior_norm": interior,
        "exterior_norm": exterior,
        "total_norm": total,
        "interior_ratio": interior / total if total > 0 else 0.0,
        "ball_radius": r_in,
    }
