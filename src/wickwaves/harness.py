"""Measure-invariance experiments and related ensemble statistics.

The pattern throughout: draw an ensemble from the candidate invariant
measure, split it into two independent halves, push one half through the
flow, and compare scalar observables of the untouched half (time 0)
against the evolved half (time T) with two-sample tests.  Under exact
invariance every p-value is uniform; the experiment reports the fraction
of small p-values and a uniformity test over observables.

Also here: the increasing-volume stabilization study over restricted
observables, and the tail/iteration-count bookkeeping that drives the
probabilistic globalization argument.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import nls as nls_mod
from . import nlw as nlw_mod
from .besov import FLAT, POLY, BesovParams, WeightSpec, besov_norm_array
from .gaussian import (
    RngStream,
    _hermite_wick,
    sample_complex_gff_coeffs,
    sample_gff_coeffs,
    sample_white_noise_coeffs,
    wick_constant_continuum,
)
from .io import NumericalGateError
from .phi4 import (COMPLEX_FIELD, REAL_FIELD, MeasureSpec, quartic_integral,
                   run_chain)
from .stats import energy_distance, ks_two_sample, ks_uniformity, mann_kendall
from .torus import TorusGrid, chi_plateau, from_physical_array, spectral_plan


FLOWS = ("nlw", "nls", "linear")


# ---------------------------------------------------------------------------
# Observables

@dataclass
class Observable:
    """A deterministic scalar function of a state.

    kinds: "pairing" (integral against a smooth compactly supported test
    field), "besov_norm", "wick_moment" (space integral of the Wick power
    of the declared degree), "hamiltonian", "quadratic" (squared L^2 norm
    of one component).  component selects u/ut (waves) or re/im parts of
    the pairing for complex fields.
    """

    name: str
    kind: str
    component: str = "u"
    test_coeffs: np.ndarray = None
    support_radius: float = None
    besov: tuple = None                 # (s, p, r)
    weight: WeightSpec = field(default_factory=WeightSpec)
    degree: int = 2

    def evaluate(self, ctx, u, ut=None):
        grid = ctx.grid
        if self.kind == "pairing":
            target = ut if self.component == "ut" else u
            pair = grid.volume * np.sum(
                target * np.conj(self.test_coeffs), axis=(-2, -1))
            if self.component == "im":
                return pair.imag
            return pair.real
        if self.kind == "quadratic":
            target = ut if self.component == "ut" else u
            return grid.volume * np.sum(np.abs(target) ** 2, axis=(-2, -1))
        if self.kind == "besov_norm":
            target = ut if self.component == "ut" else u
            s, p, r = self.besov
            return besov_norm_array(grid, target, BesovParams(s, p, r),
                                    self.weight)
        if self.kind == "wick_moment":
            return _wick_moment(ctx, u, self.degree)
        if self.kind == "hamiltonian":
            return ctx.hamiltonian(u, ut)
        raise ValueError("unknown observable kind %r" % (self.kind,))


def _wick_moment(ctx, u, degree):
    """int :u^degree: dx with the measure's own constant (real fields) or
    the modulus-based normal ordering (complex fields)."""
    real = ctx.field_type == REAL_FIELD
    if degree not in ((2, 3, 4) if real else (2, 4)):
        raise ValueError("wick degree must be 2, 3 or 4 (real fields) or "
                         "2 or 4 (complex fields)")
    if degree == 4:
        return quartic_integral(ctx.measure_spec(), u)
    plan = spectral_plan(ctx.grid, real)
    z = plan.to_grid(u)
    if real:
        dens = _hermite_wick(z, degree, ctx.wick_a)
    else:
        dens = z.real * z.real + z.imag * z.imag - ctx.wick_a
    return np.sum(dens, axis=(-2, -1)) * (ctx.grid.L / plan.P) ** 2


@dataclass(frozen=True)
class FlowContext:
    """Everything an observable needs to know about the experiment."""

    grid: TorusGrid
    m: float
    lam: float
    wick_a: float
    flow: str                          # nlw | nls | linear
    quartic_coeff: float = None

    @property
    def field_type(self):
        return COMPLEX_FIELD if self.flow == "nls" else REAL_FIELD

    def measure_spec(self):
        return MeasureSpec(self.grid, self.m, self.lam,
                           quartic_coeff=self.quartic_coeff,
                           wick_a=self.wick_a, field_type=self.field_type)

    def hamiltonian(self, u, ut=None):
        if self.flow == "nls":
            osq = self.m**2 + self.grid.mode_nsq()
            quad = self.grid.volume * np.sum(osq * np.abs(u) ** 2,
                                             axis=(-2, -1))
            return quad + 0.5 * self.lam * quartic_integral(
                self.measure_spec(), u)
        cfg = nlw_mod.NlwConfig(self.m, self.lam, 1.0, self.wick_a)
        return nlw_mod.hamiltonian(nlw_mod.WaveState(self.grid, u, ut), cfg)


def bump_test_field(grid, radius, modulation=(0, 0)):
    """Band-limited smooth test field supported (to spectral accuracy)
    in B(0, radius): a plateau bump times a trigonometric modulation."""
    x1, x2 = grid.grid_x()
    r = np.sqrt(x1**2 + x2**2)
    bump = chi_plateau(r * (4.0 / 3.0) / radius)
    k1, k2 = modulation
    phys = bump * np.cos(2.0 * np.pi * (k1 * x1 + k2 * x2))
    if k1 or k2:
        phys += bump * np.sin(2.0 * np.pi * (k1 * x1 + k2 * x2))
    return from_physical_array(grid, phys)


def default_observables(ctx: FlowContext, support_radius=None):
    """Twenty scalar observables mixing pairings, norms, Wick moments and
    the flow Hamiltonian; pairing test fields live in B(0, D)."""
    grid = ctx.grid
    d = support_radius if support_radius is not None else 0.35 * grid.L
    f = max(1.0 / grid.L, min(1.0, grid.K / 3.0))
    mods = [(0, 0), (f, 0), (0, f), (f, f), (2 * f, 0)]
    alphas = [bump_test_field(grid, d, mo) for mo in mods]
    eps = 0.1
    obs = []
    if ctx.flow == "nls":
        for i, al in enumerate(alphas):
            obs.append(Observable("pair_re_%d" % i, "pairing", "re", al,
                                  support_radius=d))
        for i, al in enumerate(alphas[:5]):
            obs.append(Observable("pair_im_%d" % i, "pairing", "im", al,
                                  support_radius=d))
        obs.append(Observable("mass", "quadratic", "u"))
        obs.append(Observable("wick2", "wick_moment", degree=2))
        obs.append(Observable("wick4", "wick_moment", degree=4))
        for s, p, r, nm in ((-eps, 2, 2, "h_minus_eps"),
                            (-eps, np.inf, np.inf, "c_minus_eps"),
                            (-eps, 4, 4, "b_4_4"),
                            (-2 * eps, 2, np.inf, "b_2_inf"),
                            (-1 - eps, 2, 2, "h_minus_1")):
            obs.append(Observable(nm, "besov_norm", "u", besov=(s, p, r)))
        obs.append(Observable("hamiltonian", "hamiltonian"))
        obs.append(Observable("pair_re_fine", "pairing", "re",
                              bump_test_field(grid, d, (2 * f, f)),
                              support_radius=d))
        return obs[:20]
    for i, al in enumerate(alphas):
        obs.append(Observable("pair_u_%d" % i, "pairing", "u", al,
                              support_radius=d))
    for i, al in enumerate(alphas[:4]):
        obs.append(Observable("pair_ut_%d" % i, "pairing", "ut", al,
                              support_radius=d))
    obs.append(Observable("wick2", "wick_moment", degree=2))
    obs.append(Observable("wick3", "wick_moment", degree=3))
    obs.append(Observable("wick4", "wick_moment", degree=4))
    obs.append(Observable("l2_u", "quadratic", "u"))
    obs.append(Observable("l2_ut", "quadratic", "ut"))
    for s, p, r, comp, nm in ((-eps, 2, 2, "u", "h_minus_eps"),
                              (-eps, np.inf, np.inf, "u", "c_minus_eps"),
                              (-eps, 4, 4, "u", "b_4_4"),
                              (-1 - eps, 2, 2, "ut", "ut_h_minus_1")):
        obs.append(Observable(nm, "besov_norm", comp, besov=(s, p, r)))
    obs.append(Observable("hamiltonian", "hamiltonian"))
    obs.append(Observable("pair_u_fine", "pairing", "u",
                          bump_test_field(grid, d, (2 * f, f)),
                          support_radius=d))
    return obs[:20]


# ---------------------------------------------------------------------------
# Ensembles

def sample_initial_ensemble(spec: MeasureSpec, n, rng: RngStream, dt=None,
                            batch=None, required_ess_fraction=0.8,
                            sampler="hmc", sampler_opts=None):
    """Draw n states from the product measure: field component by
    Metropolis-corrected chains from the quartic Gibbs measure (HMC by
    default; Langevin/MALA available), velocity component (real flows) as
    independent truncated white noise.  Errors when the effective sample
    size of the chain falls below the required fraction of n."""
    if n == 0:
        empty = np.zeros((0, spec.grid.nk, spec.grid.nk), np.complex128)
        if spec.field_type == REAL_FIELD:
            return nlw_mod.WaveState(spec.grid, empty, empty.copy()), {}
        return nls_mod.NlsState(spec.grid, empty), {}
    opts = dict(sampler_opts or {})
    u, manifest = run_chain(spec, sampler, n, rng.child(0), dt=dt,
                            batch=batch, **opts)
    ess = manifest.get("ess", float(n))
    if ess < required_ess_fraction * n:
        raise NumericalGateError(
            "effective sample size %.1f below %.1f: run longer chains "
            "(raise thinning or burn-in)" % (ess, required_ess_fraction * n))
    if spec.field_type == COMPLEX_FIELD:
        return nls_mod.NlsState(spec.grid, u), manifest
    ut = sample_white_noise_coeffs(spec.grid, rng.child(1), size=n)
    return nlw_mod.WaveState(spec.grid, u, ut), manifest


def _sample_gaussian_ensemble(grid, m, n, rng, complex_field=False):
    if complex_field:
        return sample_complex_gff_coeffs(grid, m, rng.child(0), size=n), None
    u = sample_gff_coeffs(grid, m, rng.child(0), size=n)
    ut = sample_white_noise_coeffs(grid, rng.child(1), size=n)
    return u, ut


def _evolve_gated(grid, cfg, T, u, ut=None, chunk=256):
    """Evolve (u, ut) by NLW, or u alone (ut None) by NLS, to T chunk by
    chunk; abort when a chunk's relative drift of the energy (NLW, gate
    1e-3) or the mass (NLS, gate 1e-6) passes its gate."""
    wave = ut is not None
    flow, what, gate = ((nlw_mod, "energy", 1e-3) if wave
                        else (nls_mod, "mass", 1e-6))

    def conserved(st):
        return nlw_mod.hamiltonian(st, cfg) if wave else nls_mod.mass(st)
    out_u, out_ut = np.empty_like(u), (np.empty_like(ut) if wave else None)
    for lo in range(0, u.shape[0], chunk):
        sl = slice(lo, lo + chunk)
        st = (nlw_mod.WaveState(grid, u[sl], ut[sl]) if wave
              else nls_mod.NlsState(grid, u[sl]))
        c0 = conserved(st)
        st = flow.evolve(st, cfg, T)
        drift = float(np.max(np.abs(conserved(st) - c0)
                             / np.maximum(np.abs(c0), 1e-12)))
        if drift > gate:
            raise NumericalGateError(
                "integrator instability: relative %s drift %.3e exceeds "
                "gate %.1e; reduce dt" % (what, drift, gate))
        out_u[sl] = st.u
        if wave:
            out_ut[sl] = st.ut
    return out_u, out_ut


# ---------------------------------------------------------------------------
# Invariance experiment

@dataclass
class EnsembleReport:
    observables: list                 # per-observable dicts
    p_values: np.ndarray
    fraction_below_001: float
    uniformity_stat: float
    uniformity_p: float
    energy_distance: float
    manifest: dict

    def passed(self, max_fraction=0.15, uniformity_alpha=0.005):
        return (self.fraction_below_001 <= max_fraction
                and self.uniformity_p > uniformity_alpha)

    def to_json(self):
        return json.dumps({
            "manifest": self.manifest,
            "observables": self.observables,
            "p_values": list(map(float, self.p_values)),
            "fraction_below_001": self.fraction_below_001,
            "uniformity": {"stat": self.uniformity_stat,
                           "p": self.uniformity_p},
            "energy_distance": self.energy_distance,
            "passed": bool(self.passed()),
        }, indent=2, sort_keys=True)


def _summary(x):
    return {"mean": float(np.mean(x)), "var": float(np.var(x)),
            "q05": float(np.percentile(x, 5)),
            "q50": float(np.percentile(x, 50)),
            "q95": float(np.percentile(x, 95))}


def invariance_experiment(grid, flow, T, n, rng: RngStream, m=1.0, lam=1.0,
                          dt=None, wick_a=None, quartic_coeff=None,
                          observables=None, support_radius=None,
                          chunk=256, sampler_opts=None):
    """Sample the candidate invariant measure, evolve an independent half
    of the ensemble to time T, and two-sample test every observable.

    Returns an EnsembleReport; under exact invariance the p-values are
    uniform.  quartic_coeff overrides the measure's quartic coefficient
    (the deliberately wrong value lam instead of lam/4 serves as the
    negative control).
    """
    if flow not in FLOWS:
        raise ValueError("flow must be one of %s" % (FLOWS,))
    if n % 2:
        raise ValueError("ensemble size n must be even (independent halves)")
    if wick_a is None:
        wick_a = wick_constant_continuum(grid.K, m)
    ctx = FlowContext(grid, m, lam if flow != "linear" else 0.0, wick_a,
                      flow, quartic_coeff)
    if observables is None:
        observables = default_observables(ctx, support_radius)

    # --- sample
    if flow == "linear" or lam == 0.0:
        u, ut = _sample_gaussian_ensemble(grid, m, n, rng,
                                          complex_field=(flow == "nls"))
        manifest = {"sampler": "gaussian"}
    else:
        spec = ctx.measure_spec()
        ens, manifest = sample_initial_ensemble(spec, n, rng,
                                                sampler_opts=sampler_opts)
        if flow == "nls":
            u, ut = ens.u, None
        else:
            u, ut = ens.u, ens.ut

    # --- split halves: observables at t=0 from the first half,
    #     at t=T from the evolved second half (independent samples)
    half = n // 2
    u0, uT = u[:half], u[half:]
    ut0 = utT = None
    dt = dt if dt is not None else 0.01
    if flow == "nls":
        cfg = nls_mod.NlsConfig(m, lam, dt, wick_a,
                                substep=nls_mod.MIDPOINT_SUBSTEP)
    else:
        ut0, utT = ut[:half], ut[half:]
        cfg = nlw_mod.NlwConfig(m, 0.0 if flow == "linear" else lam, dt,
                                wick_a)
    if T > 0:
        uT, utT = _evolve_gated(grid, cfg, T, uT, utT, chunk)

    # --- tests
    rows = []
    pvals = []
    vec0, vecT = [], []
    for i, ob in enumerate(observables):
        x0 = np.asarray(ob.evaluate(ctx, u0, ut0), dtype=float)
        xT = np.asarray(ob.evaluate(ctx, uT, utT), dtype=float)
        stat, p = ks_two_sample(x0, xT)
        pvals.append(p)
        if i < 5:
            vec0.append(x0)
            vecT.append(xT)
        rows.append({"name": ob.name, "kind": ob.kind,
                     "ks_stat": stat, "p_value": p,
                     "t0": _summary(x0), "tT": _summary(xT)})
    pvals = np.asarray(pvals)
    ustat, up = ks_uniformity(pvals)
    edist = energy_distance(np.column_stack(vec0), np.column_stack(vecT))
    manifest = dict(manifest or {})
    manifest.update({"flow": flow, "T": T, "n": n, "m": m, "lambda": lam,
                     "wick_a": wick_a, "dt": cfg.dt,
                     "quartic_coeff": quartic_coeff,
                     "grid.L": grid.L, "grid.M": grid.M, "grid.K": grid.K,
                     "seed": rng.master_seed, "stream": rng.stream_id})
    return EnsembleReport(rows, pvals, float(np.mean(pvals < 0.01)),
                          ustat, up, edist, manifest)


# ---------------------------------------------------------------------------
# Volume stabilization

def _grid_for(L, K, points_factor=1):
    base = 4 * int(math.ceil(K * L)) + 2
    m_pts = int(2 ** math.ceil(math.log2(base))) * points_factor
    return TorusGrid(L, m_pts, K)


def volume_stabilization_study(L_list, K, T, n, rng: RngStream, m=1.0,
                               lam=1.0, D=None, dt=0.01, speed=1.0,
                               chunk=256, sampler_opts=None):
    """Distributions of window-restricted observables across torus sizes.

    For each L the ensemble is sampled from the quartic measure, half is
    evolved to T, and the observables (supported in B(0, D)) evaluated.
    Consecutive-L samples are compared with energy distances; finite
    propagation speed requires D + speed*T <= min(L)/2.
    Returns a report dict with per-pair distances and trend tests.
    """
    L_list = sorted(L_list)
    if len(L_list) < 2:
        raise ValueError("need at least two torus sizes")
    d = D if D is not None else 0.3 * L_list[0]
    if d + speed * T > L_list[0] / 2.0:
        raise ValueError(
            "window plus light cone exceeds the smallest torus: need "
            "D + speed*T <= L_min/2")
    per_l = {}
    for i, L in enumerate(L_list):
        grid = _grid_for(L, K)
        a = wick_constant_continuum(K, m)
        ctx = FlowContext(grid, m, lam, a, "nlw")
        obs = [ob for ob in default_observables(ctx, support_radius=d)
               if ob.support_radius is not None or ob.kind == "hamiltonian"]
        obs = [ob for ob in obs if ob.kind == "pairing"]
        spec = ctx.measure_spec()
        if lam == 0.0:
            u, ut = _sample_gaussian_ensemble(grid, m, n, rng.child(10 + i))
            manifest = {}
        else:
            ens, manifest = sample_initial_ensemble(
                spec, n, rng.child(10 + i), sampler_opts=sampler_opts)
            u, ut = ens.u, ens.ut
        half = n // 2
        cfg = nlw_mod.NlwConfig(m, lam, dt, a)
        uT, utT = _evolve_gated(grid, cfg, T, u[half:], ut[half:], chunk)
        x0 = np.column_stack([np.asarray(ob.evaluate(ctx, u[:half],
                                                     ut[:half]), float)
                              for ob in obs])
        xT = np.column_stack([np.asarray(ob.evaluate(ctx, uT, utT), float)
                              for ob in obs])
        per_l[L] = {"t0": x0, "tT": xT,
                    "observable_names": [ob.name for ob in obs]}
    report = {"L_list": L_list, "D": d, "T": T, "pairs": []}
    for key in ("t0", "tT"):
        dists = []
        for a_l, b_l in zip(L_list[:-1], L_list[1:]):
            dists.append(energy_distance(per_l[a_l][key], per_l[b_l][key]))
        mk = mann_kendall(dists)
        report[key] = {
            "energy_distances": dists,
            "monotone_decreasing": all(b < a for a, b in
                                       zip(dists[:-1], dists[1:])),
            "mann_kendall": mk,
        }
    report["pairs"] = [(a, b) for a, b in zip(L_list[:-1], L_list[1:])]
    report["per_L_names"] = per_l[L_list[0]]["observable_names"]
    return report


# ---------------------------------------------------------------------------
# Blow-up bookkeeping

def blowup_bookkeeping(grid, M_grid, T, n, rng: RngStream, m=1.0, lam=1.0,
                       C=1.0, eps=0.1, weight_alpha=3.0, n_times=9,
                       chunk=128):
    """Empirical tails of the linear-path moment bound and the implied
    iteration counts.

    For Gaussian data (free field + white noise), evolve linearly over
    [0, 1], record X = max_j ||:w^j:||_{L^4([0,1]; C^{-eps}(rho))} for
    j = 1, 2, 3, and tabulate P(X > M) together with the local time
    tau(M) = C^-2 (4 lam max(1,M)^3)^-2 and the union bound
    ceil(T/tau) * P(X > M).  M_grid=None picks quantile-based thresholds
    spanning the bulk and the tail of the sampled distribution.
    """
    a = wick_constant_continuum(grid.K, m)
    times = np.linspace(0.0, 1.0, n_times)
    params = BesovParams(-eps, np.inf, np.inf)
    w_spec = WeightSpec(weight_alpha, POLY)
    plan = spectral_plan(grid)
    xs = []
    for lo in range(0, n, chunk):
        cnt = min(chunk, n - lo)
        u, ut = _sample_gaussian_ensemble(grid, m, cnt, rng.child(100 + lo))
        norms = np.zeros((3, len(times), cnt))
        st = nlw_mod.WaveState(grid, u, ut)
        for ti, t in enumerate(times):
            wt = nlw_mod.linear_propagate(st, m, float(t))
            z = plan.to_grid(wt.u)
            for j in (1, 2, 3):
                cj = plan.from_grid(_hermite_wick(z, j, a))
                norms[j - 1, ti] = besov_norm_array(grid, cj, params, w_spec)
        # L^4 in time by the trapezoid rule over [0, 1]
        wts = np.gradient(times)
        l4 = (np.tensordot(wts, norms**4, axes=(0, 1))) ** 0.25
        xs.append(np.max(l4, axis=0))
    x = np.concatenate(xs)
    if M_grid is None:
        qs = np.quantile(x, [0.5, 0.75, 0.9, 0.97, 0.995])
        M_grid = list(qs) + [1.1 * float(np.max(x))]
    rows = []
    for M in M_grid:
        tail = float(np.mean(x > M))
        tau = 1.0 / (C**2 * (4.0 * lam * max(1.0, M) ** 3) ** 2)
        iters = int(math.ceil(T / tau))
        rows.append({"M": float(M), "tail": tail, "tau": tau,
                     "iterations": iters, "bound": iters * tail})
    return {"samples": x, "rows": rows, "T": T, "C": C, "eps": eps,
            "weight_alpha": weight_alpha}
