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
next opening one (first-same-as-last).  A real state's k2 < 0 half is
the conjugate of its k2 >= 0 half, so `evolve` and `strang_step` read
only the stored half (SpectralPlan.stored) of u and ut, step copies of it
in place, and return the Hermitian completion (SpectralPlan.complete); on
an exactly Hermitian state this is the full-array splitting bit for bit.
A Picard solver for the Duhamel fixed point provides an independent
local-in-time cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _timeloop
from .gaussian import (WICK_TABLE, wick_constant_continuum,
                       wick_power_coeffs)
from .phi4 import MeasureSpec, quartic_integral
from .torus import (
    GridMismatchError,
    TorusGrid,
    chi_plateau,
    from_physical_array,
    spectral_plan,
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


def _rotation(grid, m, t):
    """cos(omega t), sin(omega t) / omega and -omega sin(omega t) per mode:
    the linear flow by time t is u <- c u + (s/omega) ut,
    ut <- (-omega s) u + c ut."""
    om = _omega(grid, m)
    c, s = np.cos(om * t), np.sin(om * t)
    return c, s / om, -om * s


def linear_propagate(state: WaveState, m, t):
    """Exact linear wave rotation by time t (any sign; exact group)."""
    c, s_om, om_s = _rotation(state.grid, m, t)
    u = c * state.u + s_om * state.ut
    ut = om_s * state.u + c * state.ut
    return WaveState(state.grid, u, ut)


def wick_cubic_coeffs(grid, u_coeffs, a):
    """P_K :(P_K u)^3: — alias-free cubic minus the linear counterterm."""
    return wick_power_coeffs(grid, u_coeffs, 3, a)


class _Strang:
    """Kick-rotate-kick steps of a real state, in place on copies of the
    stored halves (SpectralPlan.stored, k2 >= 0) of u and ut.

    `force` holds the Wick cubic force at the current position from
    construction on; each step's closing kick leaves it for the next
    opening one (first-same-as-last), and the rotation uses it as scratch
    in between.  The force is the plan's round trip from and to the stored
    band, written into `force`, then given SpectralPlan.complete's column-0
    average and the ball mask in place.  Both kicks go through one scratch
    array, and the rotation tables are made once per step size.  `copy()`
    is the Hermitian completion of the current state."""

    def __init__(self, state: WaveState, cfg: NlwConfig):
        self.grid, self.cfg = state.grid, cfg
        self.plan = plan = spectral_plan(state.grid, True, 3)
        self.u = np.array(plan.stored(state.u), order="C")
        self.ut = np.array(plan.stored(state.ut), order="C")
        self.force = np.empty_like(self.u)
        self.scratch = np.empty_like(self.u)
        self.outside = ~plan.stored(plan.ball)
        self.tables = {}
        self.update_force()

    def copy(self):
        plan = self.plan
        return WaveState(self.grid, plan.complete(self.u),
                         plan.complete(self.ut))

    def update_force(self):
        """The force at u, into `force` (nothing when lam = 0)."""
        if self.cfg.lam == 0.0:
            return
        plan, a, col = self.plan, self.cfg.a(self.grid), WICK_TABLE[True]
        plan.round_trip(plan.floats(self.u),
                        lambda z, planes: (col.density(z, 3, a, planes), None),
                        plan.band_parts, plan.band_parts,
                        out=plan.floats(self.force))
        col0 = self.force[..., :1]
        col0[...] = 0.5 * (col0 + np.conj(col0[..., ::-1, :]))
        np.copyto(self.force, 0.0, where=self.outside)

    def _kick(self, dt):
        if self.cfg.lam != 0.0:
            np.multiply(0.5 * dt * self.cfg.lam, self.force, out=self.scratch)
            self.ut -= self.scratch

    def _rotate(self, dt):
        if dt not in self.tables:
            self.tables[dt] = [np.array(self.plan.stored(t), order="C")
                               for t in _rotation(self.grid, self.cfg.m, dt)]
        c, s_om, om_s = self.tables[dt]
        u, ut, spare = self.u, self.ut, self.force
        np.multiply(om_s, u, out=spare)
        np.multiply(c, u, out=u)
        np.multiply(s_om, ut, out=self.scratch)
        np.add(u, self.scratch, out=u)
        np.multiply(c, ut, out=ut)
        np.add(spare, ut, out=ut)

    def step(self, dt):
        """One step of size dt from the force at u to the force at the new
        u (first-same-as-last); returns self."""
        self._kick(dt)
        self._rotate(dt)
        self.update_force()
        self._kick(dt)
        return self


def strang_step(state: WaveState, cfg: NlwConfig, dt=None):
    """Kick-rotate-kick splitting step; dt overrides cfg.dt and may be
    negative (the splitting is palindromic, so step(-dt) undoes step(dt)).
    One step of `evolve`: it reads the stored half of a real state and
    returns its Hermitian completion."""
    flow = _Strang(state, cfg)
    flow.step(cfg.dt if dt is None else dt)
    return flow.copy()


def evolve(state: WaveState, cfg: NlwConfig, t_final, record_times=None):
    """Integrate to t_final with steps of cfg.dt (last step shortened to
    land exactly); optionally returns snapshots at the requested times.
    n steps make n + 1 cubic evaluations.  The flow reads only the stored
    half (k2 >= 0) of the real state, steps it in place, and returns the
    Hermitian completion of the final state and of each snapshot; the
    input arrays are left unchanged."""
    out = _timeloop.run(_Strang.step, _Strang(state, cfg), cfg.dt, t_final,
                        record_times)
    if record_times is None:
        return out.copy()
    return out[0].copy(), out[1]


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
