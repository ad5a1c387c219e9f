"""Sampling the truncated quartic Gibbs measure.

The target density over band-limited fields u = sum c(n) e_n is

    dmu ~ exp(-S(u)),   S(u) = (1/2) L^2 sum_n (m^2+|n|^2) |c(n)|^2
                               + q * int (u^4 - 6 a u^2 + 3 a^2) dx

for real fields (Hermitian coefficients), and for complex fields

    S(u) = L^2 sum_n (m^2+|n|^2) |c(n)|^2
           + q * int (|u|^4 - 4 a |u|^2 + 2 a^2) dx.

Samplers: Hamiltonian Monte Carlo and Metropolis-adjusted Langevin on the
packed real degrees of freedom (exact accept/reject, so the chains target
exp(-S) without discretization bias), and a brute-force rejection oracle
for tiny mode sets.

MALA uses a diagonal, position-independent preconditioner (per-mode step
scaling 1/(L^2 omega^2)); the Metropolis correction uses the matching
Gaussian proposal density, so detailed balance is exact.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .gaussian import (
    WICK_TABLE,
    RngStream,
    _canonical_half_mask,
    sample_complex_gff_coeffs,
    sample_gff_coeffs,
    wick_constant_continuum,
)
from .stats import integrated_autocorr_time
from .torus import FourierField, TorusGrid, spectral_plan


REAL_FIELD = "real"
COMPLEX_FIELD = "complex"


@dataclass(frozen=True)
class MeasureSpec:
    """Parameters pinning down the finite-dimensional Gibbs density.

    quartic_coeff defaults to lambda/k: lambda/4 for real fields (the
    Hamiltonian of the cubic wave flow) and lambda/2 for complex fields (the
    Hamiltonian of the cubic Schrodinger flow); wick_a defaults to the
    full-space constant pi*log((m^2+K^2)/m^2).
    """

    grid: TorusGrid
    m: float = 1.0
    lam: float = 0.0
    quartic_coeff: float = None
    wick_a: float = None
    field_type: str = REAL_FIELD

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError("mass m must be positive")
        if self.lam < 0:
            raise ValueError("coupling lambda must be >= 0 (defocusing)")
        if self.field_type not in (REAL_FIELD, COMPLEX_FIELD):
            raise ValueError("field_type must be 'real' or 'complex'")
        if self.quartic_coeff is not None and self.quartic_coeff < 0:
            raise ValueError("quartic coefficient must be >= 0")

    @property
    def q(self):
        if self.quartic_coeff is not None:
            return self.quartic_coeff
        return self.lam / self.wick.k

    @property
    def wick(self):
        return WICK_TABLE[self.field_type == REAL_FIELD]

    @property
    def a(self):
        if self.wick_a is not None:
            return self.wick_a
        return wick_constant_continuum(self.grid.K, self.m)

    def manifest(self):
        return {
            "grid.L": self.grid.L, "grid.M": self.grid.M, "grid.K": self.grid.K,
            "measure.m": self.m, "measure.lambda": self.lam,
            "measure.quartic_coeff": self.q, "measure.wick_a": self.a,
            "measure.field_type": self.field_type,
        }

    def spec_hash(self):
        items = sorted(self.manifest().items())
        text = ";".join("%s=%.17g" % (k, v) if isinstance(v, float)
                        else "%s=%s" % (k, v) for k, v in items)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Degree-of-freedom packing (Hermitian half-lattice for real fields, all
# active modes for complex ones) and cached grid tables.

class _DofLayout:
    """Packed real dofs of a field and their maps into the spectral plan.

    Real fields pack [c0, Re c(k)..., Im c(k)...] over the canonical
    half-lattice; complex fields [Re c(k)..., Im c(k)...] over the ball.
    The maps address the plan's spectrum as float64 parts: the real part
    of entry j at 2j, its imaginary part at 2j + 1.
    """

    def __init__(self, grid, field_type):
        nk = grid.nk
        ball = grid.ball_mask()
        omega_sq = grid.mode_nsq()
        real = field_type == REAL_FIELD
        plan = spectral_plan(grid, real)
        self.grid = grid
        self.field_type = field_type
        self.plan = plan
        k1, k2 = np.meshgrid(grid.axes_k(), grid.axes_k(), indexing="ij")
        if real:
            half = _canonical_half_mask(grid)
            self.center = grid.kmax * nk + grid.kmax
            self.half_flat = np.flatnonzero(half.ravel())
            n = len(self.half_flat)
            self.dim = 1 + 2 * n
            nsq_half = omega_sq.ravel()[self.half_flat]
            # |n|^2 per dof, pair by pair for the mass matrix (see
            # curvature) and in pack order for the gradient; the Gaussian
            # curvature is volume*(m^2+|n|^2), times 2 for pair dofs
            self._nsq_dof = np.concatenate(([0.0], np.repeat(nsq_half, 2)))
            self._nsq_block = np.concatenate(([0.0], nsq_half, nsq_half))
            self._pair_factor = np.concatenate(([1.0], np.full(2 * n, 2.0)))
            # the stored entries (k2 >= 0) hold c0, c(k) for canonical k
            # and conj c(-k) for the others; c0 has no imaginary part
            pair = np.full((nk, nk), -1)
            pair.ravel()[self.half_flat] = np.arange(n)
            stored = ball & (k2 >= 0)
            owner = np.where(half, pair, pair[::-1, ::-1])[stored]
            is_c0 = owner < 0
            conj = np.where(half, 1.0, -1.0)[stored][~is_c0]
            self._src = np.concatenate((np.where(is_c0, 0, 1 + owner),
                                        1 + n + owner[~is_c0]))
            self._sign = np.concatenate((np.ones(len(owner)), conj))
            im_kept = ~is_c0
            # the gradient of a canonical mode with k2 < 0 is read at -k
            flip = np.where(k2 >= 0, 1, -1).ravel()[self.half_flat]
            pos = plan.index(k1.ravel()[self.half_flat] * flip,
                             k2.ravel()[self.half_flat] * flip)
            c0 = plan.index(0, 0)
            self._grad_parts = np.concatenate(([2 * c0], 2 * pos, 2 * pos + 1))
            grad_sign = np.concatenate(([1.0], np.ones(n), flip))
        else:
            self.active_flat = np.flatnonzero(ball.ravel())
            self.dim = 2 * len(self.active_flat)
            nsq_act = omega_sq.ravel()[self.active_flat]
            self._nsq_dof = self._nsq_block = np.concatenate((nsq_act, nsq_act))
            self._pair_factor = np.full(self.dim, 2.0)
            stored = ball
            im_kept = np.ones(len(self.active_flat), dtype=bool)
            self._src = np.arange(self.dim)
            self._sign = np.ones(self.dim)
            pos = plan.index(k1[ball], k2[ball])
            self._grad_parts = np.concatenate((2 * pos, 2 * pos + 1))
            grad_sign = np.ones(self.dim)
        # volume * pair factor * conjugation sign: the weight of a packed
        # band spectrum in a packed gradient
        self._grad_weight = grid.volume * self._pair_factor * grad_sign

        def parts(flat):
            return np.concatenate((2 * flat, 2 * flat[im_kept] + 1))

        self._band_parts = parts(np.flatnonzero(plan.stored(stored).ravel()))
        self._curv_cache = {}

    def curvature(self, m):
        """Diagonal mass matrix of HMC and preconditioner of MALA.

        For complex fields this is the curvature of the Gaussian part in
        pack order.  For real fields its |n|^2 entries run pair by pair
        ([0, a, a, b, b, ...]) while the dofs run [c0, Re..., Im...], so
        most dofs get another mode's curvature; the chains stay exact.
        The pack-order version is gauss_curvature; switching to it changes
        every real-field draw and moved acceptance criteria 6 and 8 on
        their fixed seeds."""
        if m not in self._curv_cache:
            self._curv_cache[m] = (self._pair_factor * self.grid.volume
                                   * (m**2 + self._nsq_dof))
        return self._curv_cache[m]

    def gauss_curvature(self, m):
        """The curvature in pack order: dofs * gauss_curvature(m) is the
        gradient of the Gaussian part."""
        key = ("block", m)
        if key not in self._curv_cache:
            self._curv_cache[key] = (self._pair_factor * self.grid.volume
                                     * (m**2 + self._nsq_block))
        return self._curv_cache[key]

    # -- packing -----------------------------------------------------------
    def pack(self, coeffs):
        nk = self.grid.nk
        flat = coeffs.reshape(coeffs.shape[:-2] + (nk * nk,))
        if self.field_type == REAL_FIELD:
            ch = flat[..., self.half_flat]
            return np.concatenate((
                flat[..., self.center:self.center + 1].real,
                ch.real, ch.imag), axis=-1)
        ca = flat[..., self.active_flat]
        return np.concatenate((ca.real, ca.imag), axis=-1)

    def _parts(self, dofs):
        """Real and imaginary parts of the stored entries of packed dofs."""
        return dofs[..., self._src] * self._sign

    def unpack(self, dofs):
        plan = self.plan
        lead = dofs.shape[:-1]
        band = np.zeros(lead + (plan.nk, plan.ncols), dtype=np.complex128)
        plan.floats(band)[..., self._band_parts] = self._parts(dofs)
        return plan.complete(band)

    def round_trip(self, dofs, work):
        """The plan's round trip (SpectralPlan.round_trip) from the field of
        packed dofs; the band spectrum of the samples `work` returns comes
        back packed like the dofs and weighted as a gradient: volume times
        the pair factor, with the imaginary part negated where a mode is
        read at -k."""
        band, value = self.plan.round_trip(self._parts(dofs), work,
                                           self._band_parts, self._grad_parts)
        return (None if band is None else self._grad_weight * band), value


@functools.lru_cache(maxsize=16)
def _layout(grid, field_type):
    return _DofLayout(grid, field_type)


# ---------------------------------------------------------------------------
# Action and gradient

def _wick_quartic(spec, want_cubic=False):
    """Pointwise work for a round trip: the sum over padded samples z of
    the Wick table's quartic density (s - c a)^2 - d a^2 and, when
    want_cubic, its cubic (s - c a) z, written over z, whose band spectrum
    is the density's gradient over k."""
    a, wick = spec.a, spec.wick

    def work(z, planes):
        y = wick.shifted(z, a, out=planes)
        if want_cubic:
            z *= y
        total = np.sum(np.square(y, out=planes[-1]), axis=(-2, -1)) \
            - wick.d * a * a * z.shape[-1] ** 2
        return (z if want_cubic else None), total
    return work


def quartic_integral(spec: MeasureSpec, coeffs):
    """int (u^4 - 6a u^2 + 3a^2) dx (real) or the |u|^4 analogue (complex),
    exact via alias-free quadrature; batched over leading axes."""
    plan = spectral_plan(spec.grid, spec.field_type == REAL_FIELD)
    return plan.round_trip(coeffs, _wick_quartic(spec))[1] \
        * (spec.grid.L / plan.P) ** 2


def action(u, spec: MeasureSpec):
    """S(u), the negative log-density up to a constant."""
    coeffs = u.coeffs if isinstance(u, FourierField) else np.asarray(u)
    return _action_and_gradient(spec, pack_dofs(spec, coeffs),
                                want_gradient=False)[0]


def _action_and_gradient(spec, dofs, want_gradient=True):
    """Returns (S, grad) for packed dofs, with S batched over leading axes
    and grad packed per dof (or None).  One padded transform pair serves
    both the quartic integral and the cubic gradient term."""
    lay = _layout(spec.grid, spec.field_type)
    curv = lay.gauss_curvature(spec.m)
    cubic, quart = lay.round_trip(dofs, _wick_quartic(spec, want_gradient))
    s = 0.5 * np.sum(curv * dofs * dofs, axis=-1) \
        + spec.q * (spec.grid.L / lay.plan.P) ** 2 * quart
    if not want_gradient:
        return s, None
    return s, curv * dofs + spec.wick.k * spec.q * cubic


def action_gradient(u, spec: MeasureSpec):
    """Gradient of S with respect to the packed real degrees of freedom."""
    coeffs = u.coeffs if isinstance(u, FourierField) else np.asarray(u)
    return _action_and_gradient(spec, pack_dofs(spec, coeffs))[1]


def pack_dofs(spec, coeffs):
    return _layout(spec.grid, spec.field_type).pack(coeffs)


def unpack_dofs(spec, dofs):
    return _layout(spec.grid, spec.field_type).unpack(dofs)


# ---------------------------------------------------------------------------
# MALA

@dataclass
class ChainState:
    """State of a batch of MALA chains over the packed dofs."""

    spec: MeasureSpec
    dofs: np.ndarray                 # shape (batch, dim)
    rng: RngStream
    step_count: int = 0
    accepted: int = 0
    proposed: int = 0
    overflow: int = 0
    _gen: object = field(default=None, repr=False)
    _cache: tuple = field(default=None, repr=False)   # (S, grad) at dofs

    @property
    def batch(self):
        return self.dofs.shape[0]

    @property
    def acceptance_rate(self):
        return self.accepted / self.proposed if self.proposed else 0.0

    def generator(self):
        if self._gen is None:
            self._gen = self.rng.generator()
        return self._gen

    def coeffs(self):
        return unpack_dofs(self.spec, self.dofs)


def _hartree_start(spec: MeasureSpec):
    """Self-consistent (magnetization, fluctuation mass) for a warm start.

    Minimizes the Gaussian-averaged action over a constant shift v with
    fluctuations of dressed mass M, iterating

        v^2 = c a - c sigma^2 - m^2 / (k q),
        M^2 = m^2 + c k q (v^2 + n sigma^2 - a),

    with (c, k) of the field's WICK_TABLE column ((3, 4) real, (2, 2)
    complex), sigma^2 the dressed one-point variance of the nonzero modes,
    and n = 1 for real fields and 2 for complex ones.  (The Gaussian
    average of the degree-4 entry gives n = 1 for both; n = 2 is kept
    because it places the first draw of every complex chain.)  Only used
    to initialize chains, so modest accuracy suffices.
    """
    grid, a, q, m = spec.grid, spec.a, spec.q, spec.m
    c, k = spec.wick.c, spec.wick.k
    nsq = grid.mode_nsq()
    mask = grid.ball_mask().copy()
    mask[grid.kmax, grid.kmax] = False
    nsq_act = nsq[mask]

    def sigma2(M2):
        return float(np.sum(1.0 / (grid.L**2 * (M2 + nsq_act))))

    real = spec.field_type == REAL_FIELD
    v2, M2 = c * a, m * m
    for _ in range(200):
        s2 = sigma2(max(M2, 1e-3))
        v2_new = max(c * a - c * s2 - m * m / (k * q), 0.0)
        if real:
            M2_new = m * m + c * k * q * (v2_new + s2 - a)
        else:
            M2_new = m * m + q * (c * k * v2_new + 2.0 * c * k * s2
                                  - c * k * a)
        v2 = 0.5 * v2 + 0.5 * v2_new
        M2 = 0.5 * M2 + 0.5 * max(M2_new, 1e-3)
    return math.sqrt(v2), math.sqrt(max(M2, 1e-3))


def _deep_well(spec: MeasureSpec):
    """Whether q times the wells' depth c^2 a^2 over the torus exceeds 5."""
    depth = spec.q * spec.grid.volume * (spec.wick.c * spec.wick.c) * spec.a**2
    return spec.q > 0.0 and spec.a > 0.0 and depth > 5.0


def init_chain(spec: MeasureSpec, rng: RngStream, batch=1, start=None):
    """Chains started from the free-field measure (a good overdispersed
    start: the target is a density against exactly that Gaussian).

    In the strongly magnetized regime the symmetric start is pathological:
    the field first breaks into domains of both signs and coarsening out
    the domain walls takes thousands of steps.  When the mean-field well
    depth is large compared to the thermal scale the zero mode is shifted
    to the well bottom; the sign-flip move in the samplers restores the
    branch symmetry, so the stationary law is unchanged.
    """
    if start is not None:
        dofs = pack_dofs(spec, np.asarray(start, dtype=np.complex128))
        if dofs.ndim == 1:
            dofs = np.broadcast_to(dofs, (batch, dofs.size)).copy()
        return ChainState(spec=spec, dofs=dofs, rng=rng.child(1))
    deep = _deep_well(spec)
    m_start, shift = spec.m, 0.0
    if deep:
        shift, m_start = _hartree_start(spec)
    sample = (sample_gff_coeffs if spec.field_type == REAL_FIELD
              else sample_complex_gff_coeffs)
    c = sample(spec.grid, m_start, rng.child(0), size=batch)
    if deep:
        c[..., spec.grid.kmax, spec.grid.kmax] += shift
    return ChainState(spec=spec, dofs=pack_dofs(spec, c), rng=rng.child(1))


def _tamed_drift(raw, dt, amat, tame_sd):
    """Cap each drift component at tame_sd proposal standard deviations.

    Plain Langevin drift overshoots catastrophically from the quartic
    tails (the chain parks at a large excursion and rejects everything);
    taming bounds the drift while the Metropolis ratio below uses the
    same tamed mean in both directions, so the target is still exact.
    """
    cap = tame_sd * np.sqrt(2.0 * dt * amat)
    return raw / (1.0 + np.abs(raw) / cap)


def mala_step(state: ChainState, dt, tame_sd=5.0):
    """One Metropolis-adjusted Langevin step for every chain in the batch.

    Proposal x' = x - tame(dt*A*grad(S)) + sqrt(2*dt*A)*xi with A the
    diagonal preconditioner 1 / _DofLayout.curvature; accept
    with the exact Metropolis ratio for the Gaussian proposal density
    around the tamed mean.  Non-finite proposals are rejected and counted
    in state.overflow.
    """
    if dt <= 0:
        raise ValueError("step size dt must be positive")
    spec = state.spec
    lay = _layout(spec.grid, spec.field_type)
    amat = 1.0 / lay.curvature(spec.m)
    gen = state.generator()
    x = state.dofs
    if state._cache is None:
        s0, g0 = _action_and_gradient(spec, x)
        state._cache = (s0, g0)
    s0, g0 = state._cache

    noise = gen.standard_normal(x.shape)
    mean_fwd = x - _tamed_drift(dt * amat * g0, dt, amat, tame_sd)
    prop = mean_fwd + np.sqrt(2.0 * dt * amat) * noise
    s1, g1 = _action_and_gradient(spec, prop)
    mean_back = prop - _tamed_drift(dt * amat * g1, dt, amat, tame_sd)
    log_q_fwd = -np.sum(noise**2, axis=-1) / 2.0
    log_q_back = -np.sum((x - mean_back) ** 2 / (2.0 * dt * amat) / 2.0,
                         axis=-1)
    log_alpha = s0 - s1 + log_q_back - log_q_fwd

    finite = np.isfinite(s1) & np.all(np.isfinite(g1), axis=-1)
    log_alpha = np.where(finite, log_alpha, -np.inf)
    accept = np.log(gen.uniform(size=log_alpha.shape)) < log_alpha

    state.dofs = np.where(accept[..., None], prop, x)
    s_new = np.where(accept, s1, s0)
    g_new = np.where(accept[..., None], g1, g0)
    state._cache = (s_new, g_new)
    state.step_count += 1
    state.proposed += int(accept.size)
    state.accepted += int(np.sum(accept))
    state.overflow += int(np.sum(~finite))
    return state


def tune_step_size(state: ChainState, dt, steps=60, target=0.574):
    """Crude dual-averaging-free tuner: scale dt toward the target
    acceptance during burn-in, then freeze.  Returns the tuned dt."""
    for _ in range(steps):
        before = state.accepted
        mala_step(state, dt)
        rate = (state.accepted - before) / state.batch
        dt *= math.exp(0.3 * (rate - target))
    return dt


def hmc_step(state: ChainState, eps, n_leap=10, flip_prob=0.5):
    """One Hamiltonian Monte Carlo step for every chain in the batch.

    Momenta are drawn from N(0, M) with the diagonal mass matrix
    M = _DofLayout.curvature, built from the curvature of the Gaussian
    part so that the leapfrog trajectory moves all length scales
    together, and the chain decorrelates in a handful of steps where
    Langevin diffusion needs thousands.  (It makes every free mode a
    unit-frequency oscillator only for complex fields; see curvature.)
    The Metropolis correction on the total energy keeps the target
    exact.

    The action is even (the quartic density is a polynomial in u^2 or
    |u|^2), so a global sign flip is an exact symmetry; applying it with
    probability flip_prob after each trajectory equalizes the weights of
    the two magnetization branches for odd observables at no cost.

    The leapfrog updates its position and momentum in place, through one
    kick buffer, with the arithmetic of the out-of-place updates
    x + (eps p) / M and p - (eps g) term by term, so it allocates no array
    per leapfrog step beyond the action and gradient themselves.
    """
    if eps <= 0:
        raise ValueError("leapfrog step eps must be positive")
    spec = state.spec
    lay = _layout(spec.grid, spec.field_type)
    mass = lay.curvature(spec.m)
    gen = state.generator()
    x = state.dofs
    if state._cache is None:
        state._cache = _action_and_gradient(spec, x)
    s0, g0 = state._cache

    p = np.sqrt(mass) * gen.standard_normal(x.shape)
    h0 = s0 + 0.5 * np.sum(p * p / mass, axis=-1)
    xq, g = x.copy(), g0
    kick = np.empty_like(p)
    # diverging trajectories produce overflows that the Metropolis step
    # rejects below; silence the transient warnings
    with np.errstate(over="ignore", invalid="ignore"):
        p -= np.multiply(0.5 * eps, g, out=kick)
        for i in range(n_leap):
            xq += np.divide(np.multiply(eps, p, out=kick), mass, out=kick)
            s1, g = _action_and_gradient(spec, xq)
            p -= np.multiply(eps if i < n_leap - 1 else 0.5 * eps, g,
                             out=kick)
        h1 = s1 + 0.5 * np.sum(p * p / mass, axis=-1)

    finite = np.isfinite(h1)
    log_alpha = np.where(finite, h0 - np.where(finite, h1, 0.0), -np.inf)
    accept = np.log(gen.uniform(size=log_alpha.shape)) < log_alpha
    state.dofs = np.where(accept[..., None], xq, x)
    s_new = np.where(accept, s1, s0)
    g_new = np.where(accept[..., None], g, g0)
    if flip_prob > 0:
        flip = gen.uniform(size=accept.shape) < flip_prob
        state.dofs = np.where(flip[..., None], -state.dofs, state.dofs)
        g_new = np.where(flip[..., None], -g_new, g_new)
    state._cache = (s_new, g_new)
    state.step_count += 1
    state.proposed += int(accept.size)
    state.accepted += int(np.sum(accept))
    state.overflow += int(np.sum(~finite))
    return state


def tune_hmc_step(state: ChainState, eps, steps=40, target=0.8, n_leap=10):
    """Scale the leapfrog step toward the target acceptance rate."""
    for _ in range(steps):
        before = state.accepted
        hmc_step(state, eps, n_leap)
        rate = (state.accepted - before) / state.batch
        eps *= math.exp(0.25 * (rate - target))
        eps = min(eps, 1.8)     # leapfrog stability limit at unit frequency
    return eps


def zero_mode_gibbs_step(state: ChainState, n_grid=2049, reach=6.0):
    """Gibbs-flavored update of the spatially constant mode.

    In the magnetized regime the constant mode is the slowest collective
    coordinate of gradient-based chains (its renormalized potential is a
    soft double well), with autocorrelation times of tens of steps.  This
    move resamples it outright: with every other degree of freedom held
    fixed, the action restricted to the component w of the zero mode
    along a direction e (e = 1 for real fields, a random global phase
    for complex ones) is an exact quartic polynomial in w, recovered
    here from five exact action evaluations.  w is proposed from a
    gridded version of that one-dimensional conditional — a proposal
    that does not depend on the current value of w — and accepted with
    the Metropolis-Hastings ratio computed from the exact action, so
    the move leaves the target measure exactly invariant.

    The proposal is evaluated with its gradient, so the chains leave with
    their action and gradient cached for the next trajectory: the
    proposal's where accepted, the incoming ones where rejected.
    """
    spec = state.spec
    gen = state.generator()
    dofs = state.dofs
    batch = state.batch
    lay = _layout(spec.grid, spec.field_type)
    if spec.field_type == REAL_FIELD:
        zero = [0]
    else:
        i0 = int(np.searchsorted(lay.active_flat, spec.grid.kmax
                                 * (spec.grid.nk + 1)))
        zero = [i0, lay.dim // 2 + i0]

    def with_zero_mode(value):
        d = dofs.copy()
        d[..., zero] = np.stack((value.real, value.imag), -1)[..., :len(zero)]
        return d

    def action_at(value):
        return np.atleast_1d(_action_and_gradient(
            spec, with_zero_mode(value), want_gradient=False)[0])

    v = dofs[..., zero[0]] + (1j * dofs[..., zero[1]] if len(zero) > 1
                              else 0.0)
    if spec.field_type == REAL_FIELD:
        e = np.ones(batch, dtype=np.complex128)
    else:
        e = np.exp(2j * np.pi * gen.random(batch))
    w0 = (np.conj(e) * v).real
    v_perp = v - w0 * e
    # fixed bracket: the real wells u^2 = c a (the wider) plus thermal tails
    R = math.sqrt(WICK_TABLE[True].c * max(spec.a, 0.0)) + reach * max(
        1.0, 1.0 / (spec.grid.L * max(spec.m, 1e-6)))
    nodes = R * np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    svals = np.empty((5, batch))
    for i, t in enumerate(nodes):
        svals[i] = action_at(v_perp + t * e)
    # quartic through the five nodes in the scaled coordinate w / R
    vand = np.vander(nodes / R, 5)
    coefs = np.linalg.solve(vand, svals)          # (5, batch)
    s_grid = np.linspace(-1.0, 1.0, n_grid)
    pg = np.zeros((n_grid, batch))
    for crow in coefs:
        pg = pg * s_grid[:, None] + crow[None, :]
    with np.errstate(under="ignore"):
        wgt = np.exp(-(pg - pg.min(axis=0)))
    total = wgt.sum(axis=0)
    cum = np.cumsum(wgt, axis=0)
    idx = np.minimum((cum < gen.random(batch) * total).sum(axis=0),
                     n_grid - 1)
    step = 2.0 * R / (n_grid - 1)
    w1 = s_grid[idx] * R + (gen.random(batch) - 0.5) * step
    cols = np.arange(batch)
    # piecewise-constant proposal densities at the new and current points;
    # a current value outside the bracket has zero reverse density and the
    # move is rejected, which keeps detailed balance exact
    idx0 = np.rint((w0 + R) / step).astype(int)
    inside = (idx0 >= 0) & (idx0 <= n_grid - 1) & (np.abs(w0) <= R)
    idx0 = np.clip(idx0, 0, n_grid - 1)
    with np.errstate(divide="ignore"):
        logq1 = np.log(wgt[idx, cols])
        logq0 = np.where(inside, np.log(wgt[idx0, cols]), -np.inf)
    if state._cache is None:
        state._cache = _action_and_gradient(spec, dofs)
    s_cur, g_cur = state._cache
    prop = with_zero_mode(v_perp + w1 * e)
    s_new, g_new = _action_and_gradient(spec, prop)
    log_alpha = (s_cur - s_new) + (logq0 - logq1)
    accept = np.log(gen.random(batch)) < log_alpha
    state.dofs = np.where(accept[:, None], prop, dofs)
    state._cache = (np.where(accept, s_new, s_cur),
                    np.where(accept[:, None], g_new, g_cur))
    state.step_count += 1
    return state


# ---------------------------------------------------------------------------
# Rejection oracle (tiny systems only)

def rejection_oracle(spec: MeasureSpec, n_samples, rng: RngStream,
                     max_batch=4096):
    """Exact i.i.d. samples by rejection from the free field.

    The quartic weight is bounded above (the Wick-ordered density has a
    finite pointwise minimum), so accepting with probability
    exp(-q (W - W_min)) is exact.  Guarded to <= 16 active modes.
    """
    grid = spec.grid
    if grid.n_active() > 16:
        raise ValueError(
            "rejection oracle limited to <= 16 active modes (got %d); "
            "use MALA for larger systems" % grid.n_active())
    w_min = -spec.wick.d * spec.a**2 * grid.volume    # the density's minimum
    sample = (sample_gff_coeffs if spec.field_type == REAL_FIELD
              else sample_complex_gff_coeffs)
    gen = rng.generator()
    out = []
    got = 0
    attempts = 0
    stream = rng.child(7)
    block = 0
    while got < n_samples:
        c = sample(grid, spec.m, stream.child(block), size=max_batch)
        block += 1
        w = quartic_integral(spec, c)
        keep = np.log(gen.uniform(size=w.shape)) < -spec.q * (w - w_min)
        attempts += max_batch
        kept = c[keep]
        out.append(kept[:n_samples - got])
        got += min(len(kept), n_samples - got)
    samples = np.concatenate(out, axis=0)
    return samples, {"acceptance_rate": n_samples / attempts if attempts else 1.0}


# ---------------------------------------------------------------------------
# Chain runner

def run_chain(spec: MeasureSpec, sampler, n_samples, rng: RngStream,
              dt=None, burn_in=None, thinning=None, batch=None, n_leap=10):
    """Draw n_samples coefficient arrays from the measure.

    sampler in {"hmc", "mala", "rejection_oracle"}; "hmc"
    mixes orders of magnitude faster on large mode sets and is the
    default choice for ensemble work.  Returns (samples, manifest);
    reproducible bit-for-bit from (spec, rng, options).
    """
    if sampler not in ("hmc", "mala", "rejection_oracle"):
        raise ValueError("unknown sampler %r" % (sampler,))
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    if thinning is not None and thinning < 1:
        raise ValueError("thinning must be >= 1")
    if burn_in is not None and burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if batch is not None and batch < 1:
        raise ValueError("batch must be >= 1")
    grid = spec.grid
    manifest = dict(spec.manifest())
    manifest.update({"sampler": sampler, "n_samples": n_samples,
                     "seed": rng.master_seed, "stream": rng.stream_id,
                     "spec_hash": spec.spec_hash()})
    if n_samples == 0:
        return np.zeros((0, grid.nk, grid.nk), dtype=np.complex128), manifest

    if sampler == "rejection_oracle":
        samples, info = rejection_oracle(spec, n_samples, rng)
        manifest.update(info)
        return samples, manifest

    if batch is None:
        batch = min(max(n_samples, 1), 64)
    state = init_chain(spec, rng, batch=batch)
    if sampler == "hmc":
        dt = 0.2 if dt is None else dt
        burn = burn_in if burn_in is not None else 128
        dt = tune_hmc_step(state, dt, steps=max(20, burn // 3),
                           n_leap=n_leap)
        deep = _deep_well(spec)

        def step(st, d):
            hmc_step(st, d, n_leap)
            if deep:
                # the magnetization is the slow collective mode in
                # the deep-well regime; resample it exactly
                zero_mode_gibbs_step(st)
            return st
    else:
        dt = 0.25 if dt is None else dt
        burn = burn_in if burn_in is not None else max(
            64, int(math.ceil(10.0 / (spec.m**2 * dt))))
        dt = tune_step_size(state, dt, steps=max(20, burn // 3))

        def step(st, d):
            return mala_step(st, d)
    probe = np.empty((burn, batch))
    for i in range(burn):
        step(state, dt)
        probe[i] = np.sum(np.abs(state.dofs) ** 2, axis=-1)
    if thinning is None:
        # a series of fewer than 4 draws (burn-in under 7) gives thinning 1
        series = probe[burn // 2:, 0]
        thinning = max(1, int(math.ceil(
            2.0 * integrated_autocorr_time(series))))
    per_chain = int(math.ceil(n_samples / batch))
    samples = np.empty((per_chain, batch, grid.nk, grid.nk),
                       dtype=np.complex128)
    for i in range(per_chain):
        for _ in range(thinning):
            step(state, dt)
        samples[i] = state.coeffs()
    if per_chain >= 4:
        # effective sample size from the thinned per-chain probe series,
        # draw by draw: |samples|^2 at once would hold two more copies of
        # every draw at the run's memory peak
        probe_series = np.array([np.sum(np.abs(s) ** 2, axis=(-2, -1))
                                 for s in samples])
        taus = [integrated_autocorr_time(probe_series[:, b])
                for b in range(min(batch, 16))]
        ess = n_samples / (2.0 * float(np.mean(taus)))
    else:
        ess = float(n_samples)   # one-shot thinned draws per chain
    samples = samples.reshape(-1, grid.nk, grid.nk)[:n_samples]
    # the action is invariant under a global sign flip (real field) or
    # global phase rotation (complex field), so randomizing that group
    # orbit per sample is measure-exact and removes the corresponding
    # slow collective autocorrelation from the output for free
    sym_gen = rng.child(3).generator()
    if spec.field_type == REAL_FIELD:
        signs = sym_gen.choice((-1.0, 1.0), size=n_samples)
        samples *= signs[:, None, None]
    else:
        phases = np.exp(2j * np.pi * sym_gen.random(n_samples))
        samples *= phases[:, None, None]
    manifest.update({"dt": dt, "burn_in": burn, "thinning": thinning,
                     "batch": batch, "ess": ess,
                     "acceptance_rate": state.acceptance_rate,
                     "overflow_rejections": state.overflow})
    return samples, manifest
