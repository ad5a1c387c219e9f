"""Acceptance gate: ten quantitative criteria, one pass/fail line each.

Each test exercises one end-to-end property of the laboratory at desk
scale and emits a single ``[CRITERION n] PASS/FAIL`` line (written past
the capture layer so it always appears in the run log).  Tolerances are
part of the contract and must not be loosened casually.
"""

import math
import sys
import time

import numpy as np
import pytest
import scipy.stats as sps

from wickwaves.besov import check_audit, inequality_audit
from wickwaves.gaussian import (
    RngStream,
    gff_covariance,
    pairing,
    sample_gff_coeffs,
    wick_constant_continuum,
    wick_constant_difference,
    wick_constant_difference_bound,
    wick_constant_lattice,
)
from wickwaves.harness import invariance_experiment, volume_stabilization_study
from wickwaves.nls import (
    MIDPOINT_SUBSTEP,
    NlsConfig,
    NlsState,
    dispersive_audit,
    holder_quotients,
    mass,
    nls_linear_propagate,
)
from wickwaves.nls import evolve as nls_evolve
from wickwaves.nlw import (
    NlwConfig,
    WaveState,
    evolve,
    exterior_bump,
    finite_speed_test,
    hamiltonian,
    linear_propagate,
    picard_local_solve,
    picard_tau,
    strang_step,
)
from wickwaves.phi4 import MeasureSpec, quartic_integral, run_chain
from wickwaves.stats import mann_kendall
from wickwaves.torus import (
    FourierField,
    TorusGrid,
    convolution_power_oracle,
    dealiased_power,
    from_physical_array,
    hermitian_symmetrize,
    to_physical_array,
)


def _report(num, ok, detail):
    line = "[CRITERION %2d] %s  %s\n" % (num, "PASS" if ok else "FAIL", detail)
    sys.__stdout__.write(line)
    sys.__stdout__.flush()
    assert ok, line.strip()


def _gevrey_field(grid, beta, seed):
    """Deterministic smooth real field with unit physical amplitude."""
    gen = np.random.default_rng(seed)
    nsq = grid.mode_nsq()
    amp = np.exp(-beta * nsq)
    ph = np.exp(2j * np.pi * gen.uniform(size=nsq.shape))
    c = hermitian_symmetrize(np.where(grid.ball_mask(), amp * ph, 0)) / 2
    phys = to_physical_array(grid, c).real
    return c / max(np.max(np.abs(phys)), 1e-300)


# ---------------------------------------------------------------------------
# 1. Spectral substrate


def test_criterion_01_spectral_substrate():
    grid = TorusGrid(2.0, 72, 8.0)          # ~800 active modes (<= 32^2)
    gen = np.random.default_rng(100)
    worst_rt = 0.0
    for _ in range(10):                     # 1000 fields in batches of 100
        c = gen.standard_normal((100, grid.nk, grid.nk)) \
            + 1j * gen.standard_normal((100, grid.nk, grid.nk))
        c = hermitian_symmetrize(np.where(grid.ball_mask(), c, 0.0))
        back = from_physical_array(grid, to_physical_array(grid, c))
        scale = np.max(np.abs(c))
        worst_rt = max(worst_rt, float(np.max(np.abs(back - c)) / scale))
    cc = hermitian_symmetrize(np.where(
        grid.ball_mask(),
        gen.standard_normal((grid.nk, grid.nk))
        + 1j * gen.standard_normal((grid.nk, grid.nk)), 0.0))
    f = FourierField(grid, cc, real=True)
    slow = convolution_power_oracle(f, 3).coeffs
    fast = dealiased_power(f, 3).coeffs
    conv_err = float(np.max(np.abs(fast - slow)) / np.max(np.abs(slow)))
    ok = worst_rt <= 1e-12 and conv_err <= 1e-12
    _report(1, ok, "round-trip %.2e, cubic-vs-convolution %.2e (gate 1e-12)"
            % (worst_rt, conv_err))


# ---------------------------------------------------------------------------
# 2. Wick constants


def test_criterion_02_wick_constants():
    lat = wick_constant_lattice(1.0, 1.0, 1.0)
    cont = wick_constant_continuum(1.0, 1.0)
    pin_lat = lat == 3.0
    pin_cont = abs(cont - math.pi * math.log(2.0)) < 1e-10
    Ls = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    diffs = np.array([abs(wick_constant_difference(L, 64.0, 1.0))
                      for L in Ls])
    bounds = np.array([wick_constant_difference_bound(L, 64.0, 1.0)
                       for L in Ls])
    covered = bool(np.all(bounds >= diffs))
    slope = float(np.polyfit(np.log(Ls), np.log(bounds), 1)[0])
    ok = pin_lat and pin_cont and covered and abs(slope + 1.0) <= 0.3
    _report(2, ok, "lattice pin %s, continuum pin %s, bound covers "
            "difference %s, bound slope %.4f (gate -1 +/- 0.3)"
            % (pin_lat, pin_cont, covered, slope))


# ---------------------------------------------------------------------------
# 3. GFF Monte Carlo and the Wick cubic pairing


def test_criterion_03_gff_monte_carlo():
    grid = TorusGrid(2.0, 24, 2.0)
    m, n = 1.0, 100000
    c = sample_gff_coeffs(grid, m, RngStream(30, 0), size=n)
    gen = np.random.default_rng(1)
    osq = m**2 + grid.mode_nsq()
    mask = grid.ball_mask()
    worst_cov = 0.0
    for _ in range(10):
        f1 = hermitian_symmetrize(np.where(
            mask, gen.standard_normal((grid.nk,) * 2)
            + 1j * gen.standard_normal((grid.nk,) * 2), 0))
        f2 = hermitian_symmetrize(np.where(
            mask, gen.standard_normal((grid.nk,) * 2)
            + 1j * gen.standard_normal((grid.nk,) * 2), 0))
        prod = pairing(c, f1, grid.L).real * pairing(c, f2, grid.L).real
        est, se = np.mean(prod), np.std(prod) / math.sqrt(n)
        exact = float(np.real(grid.L**2 * np.sum(f1 * f2[::-1, ::-1] / osq)))
        worst_cov = max(worst_cov, abs(est - exact) / se)

    a = wick_constant_lattice(grid.L, grid.K, m)
    ix, iy = (0, 0), (3, 5)
    prods = []
    for lo in range(0, n, 20000):
        z = to_physical_array(grid, c[lo:lo + 20000]).real
        w3 = z * (z * z - 3 * a)
        prods.append(w3[:, ix[0], ix[1]] * w3[:, iy[0], iy[1]])
    prod = np.concatenate(prods)
    x1, x2 = grid.grid_x()
    G = gff_covariance(grid, m, (x1[iy] - x1[ix], x2[iy] - x2[ix]))
    est, se = float(np.mean(prod)), float(np.std(prod) / math.sqrt(n))
    z3 = abs(est - 6.0 * G**3) / se
    ok = worst_cov <= 4.0 and z3 <= 4.0
    _report(3, ok, "covariance worst |z| %.2f over 10 pairs, "
            "wick-cubic pairing |z| %.2f (gate 4 SE)" % (worst_cov, z3))


# ---------------------------------------------------------------------------
# 4. MALA vs the rejection oracle (5 degrees of freedom)


def test_criterion_04_mala_vs_oracle():
    grid = TorusGrid(1.0, 8, 1.0)           # 5 active modes
    spec = MeasureSpec(grid, m=1.0, lam=1.0)
    oracle, _ = run_chain(spec, "rejection_oracle", 8000, RngStream(40, 0))
    chain, _ = run_chain(spec, "mala", 8000, RngStream(40, 1),
                         burn_in=500, thinning=10, batch=64)

    def observables(c):
        return {"zero_mode": c[:, grid.kmax, grid.kmax].real,
                "l2": np.sum(np.abs(c)**2, axis=(1, 2)),
                "quartic": quartic_integral(spec, c)}

    oo, co = observables(oracle), observables(chain)
    worst = 0.0
    for name in oo:
        for k in (1, 2, 3, 4):
            am, bm = oo[name]**k, co[name]**k
            se = math.sqrt(np.var(am) / len(am) + np.var(bm) / len(bm))
            worst = max(worst, abs(np.mean(am) - np.mean(bm)) / se)

    spec0 = MeasureSpec(grid, m=1.0, lam=0.0)
    c0, _ = run_chain(spec0, "mala", 4000, RngStream(41, 0),
                      burn_in=200, thinning=6, batch=64)
    sd = math.sqrt(1.0 / (grid.volume * 1.0))
    ks_p = sps.kstest(c0[:, grid.kmax, grid.kmax].real,
                      "norm", args=(0.0, sd)).pvalue
    ok = worst <= 3.0 and ks_p > 0.01
    _report(4, ok, "worst moment |z| %.2f over 4 moments x 3 observables "
            "(gate 3 SE), lambda=0 KS p %.3f (alpha 0.01)" % (worst, ks_p))


# ---------------------------------------------------------------------------
# 5. NLW integrator quality


def test_criterion_05_nlw_integrator():
    grid = TorusGrid(2.0, 32, 3.0)
    u = 0.3 * sample_gff_coeffs(grid, 1.0, RngStream(4, 0))
    ut = 0.3 * sample_gff_coeffs(grid, 1.0, RngStream(4, 1))
    st = WaveState(grid, u, ut)

    # second order: Richardson ratios err(2 dt)/err(dt) -> 4
    T = 0.5
    ref = evolve(st, NlwConfig(1.0, 1.0, T / 1024, wick_a=0.4), T)
    errs = [np.max(np.abs(evolve(st, NlwConfig(1.0, 1.0, T / nn, wick_a=0.4),
                                 T).u - ref.u))
            for nn in (32, 64, 128)]
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    order_ok = abs(r1 - 4.0) <= 0.5 and abs(r2 - 4.0) <= 0.5

    # energy drift over T = 10
    big = WaveState(grid, 0.5 * sample_gff_coeffs(grid, 1.0, RngStream(5, 0)),
                    0.5 * sample_gff_coeffs(grid, 1.0, RngStream(5, 1)))
    cfg = NlwConfig(1.0, 1.0, 5e-4, wick_a=0.4)
    h0 = float(hamiltonian(big, cfg))
    drift = abs(float(hamiltonian(evolve(big, cfg, 10.0), cfg)) - h0) / abs(h0)

    # reversibility
    cfg_r = NlwConfig(1.0, 1.0, 0.02, wick_a=0.5)
    fwd = st.copy()
    n_steps = 10
    for _ in range(n_steps):
        fwd = strang_step(fwd, cfg_r)
    back = fwd.copy()
    for _ in range(n_steps):
        back = strang_step(back, cfg_r, dt=-cfg_r.dt)
    rev = float(max(np.max(np.abs(back.u - st.u)),
                    np.max(np.abs(back.ut - st.ut)))
                / np.max(np.abs(st.u))) / n_steps

    # Picard agreement at the contraction time tau = C^-2 (4 lam max(1,M)^3)^-2
    M = 3.0
    tau = picard_tau(1.0, M)
    cfg_p = NlwConfig(1.0, 1.0, 1e-4, wick_a=0.4)
    v, info = picard_local_solve(st, cfg_p, tau, n_nodes=65)
    contraction = info["contraction_factor"]
    full = evolve(st, cfg_p, tau)
    linear = linear_propagate(st, cfg_p.m, tau)
    pic_err = float(np.max(np.abs((v[-1] + linear.u) - full.u))
                    / max(float(np.max(np.abs(st.u))), 1.0))

    ok = (order_ok and drift <= 1e-6 and rev <= 1e-12
          and contraction < 1.0 and pic_err <= 1e-6)
    _report(5, ok, "order ratios %.2f/%.2f (gate 4 +/- 0.5), drift %.2e "
            "(gate 1e-6), reversibility %.2e/step (gate 1e-12), picard err "
            "%.2e at tau %.3e with contraction %.3f"
            % (r1, r2, drift, rev, pic_err, tau, contraction))


# ---------------------------------------------------------------------------
# 6. Liouville invariance for NLW, with a negative control


@pytest.mark.slow
def test_criterion_06_nlw_invariance():
    t0 = time.time()
    grid = TorusGrid(4.0, 132, 8.0)
    opts = {"burn_in": 64, "thinning": 2}
    rep = invariance_experiment(grid, "nlw", 1.0, 2000, RngStream(2026, 6),
                                lam=1.0, dt=0.01, sampler_opts=opts)
    neg = invariance_experiment(grid, "nlw", 1.0, 2000, RngStream(2026, 7),
                                lam=1.0, dt=0.01, quartic_coeff=1.0,
                                sampler_opts=opts)
    ok = rep.passed(max_fraction=0.15, uniformity_alpha=0.005) \
        and not neg.passed(max_fraction=0.15, uniformity_alpha=0.005)
    _report(6, ok, "fraction p<0.01 %.3f (gate 0.15), uniformity p %.4f "
            "(alpha 0.005), negative control fails: %s, %.0fs"
            % (rep.fraction_below_001, rep.uniformity_p,
               not neg.passed(), time.time() - t0))


# ---------------------------------------------------------------------------
# 7. Finite speed of propagation


def test_criterion_07_finite_speed():
    L, R, t = 8.0, 2.0, 1.0
    ratios = []
    for M, K in ((128, 3.0), (256, 6.0), (512, 12.0)):
        grid = TorusGrid(L, M, K)
        base = _gevrey_field(grid, 0.3, 5)
        pert = exterior_bump(grid, _gevrey_field(grid, 0.3, 6), R,
                             sharpness=1.0)
        sa = WaveState(grid, base, np.zeros_like(base))
        sb = WaveState(grid, base + pert, np.zeros_like(base))
        cfg = NlwConfig(1.0, 1.0, 0.02, wick_a=0.0)
        out = finite_speed_test(sa, sb, R, t, cfg, speed=1.0)
        ratios.append(float(out["interior_ratio"]))
    monotone = all(b < a for a, b in zip(ratios, ratios[1:]))
    ok = monotone and ratios[-1] <= 1e-6
    _report(7, ok, "interior/exterior ratios %s, monotone %s, finest "
            "%.2e (gate 1e-6)" % (["%.2e" % r for r in ratios],
                                  monotone, ratios[-1]))


# ---------------------------------------------------------------------------
# 8. Increasing-volume stabilization


@pytest.mark.slow
def test_criterion_08_volume_stabilization():
    t0 = time.time()
    rep = volume_stabilization_study(
        [4.0, 8.0, 16.0], 2.0, 0.5, 800, RngStream(88, 0), lam=1.0,
        D=1.2, dt=0.01, sampler_opts={"burn_in": 64, "thinning": 2})
    details = []
    ok = True
    for key in ("t0", "tT"):
        sub = rep[key]
        mk = sub["mann_kendall"]
        dec = sub["monotone_decreasing"]
        # two consecutive-L distances: require a strict decrease and that
        # Mann-Kendall does not certify an increasing trend at alpha=0.05
        not_increasing = not (mk["trend"] == "increasing"
                              and mk["p_value"] <= 0.05)
        ok = ok and dec and not_increasing
        details.append("%s distances %s decreasing %s"
                       % (key, ["%.4f" % d for d in sub["energy_distances"]],
                          dec))
    _report(8, ok, "; ".join(details) + ", %.0fs" % (time.time() - t0))


# ---------------------------------------------------------------------------
# 9. NLS: unitarity, mass, dispersion, invariance, tightness


@pytest.mark.slow
def test_criterion_09_nls():
    t0 = time.time()
    grid = TorusGrid(2.0, 32, 3.0)
    from wickwaves.gaussian import sample_complex_gff_coeffs

    st = NlsState(grid, sample_complex_gff_coeffs(grid, 1.0,
                                                  RngStream(90, 0)))
    out = nls_linear_propagate(st, 1.0, 2.31)
    unit_err = abs(float(mass(out)) - float(mass(st))) / float(mass(st))
    back = nls_linear_propagate(out, 1.0, -2.31)
    unit_err = max(unit_err, float(np.max(np.abs(back.u - st.u))
                                   / np.max(np.abs(st.u))))

    cfg = NlsConfig(1.0, 1.0, 0.005, wick_a=0.4, substep=MIDPOINT_SUBSTEP)
    m0 = float(mass(st))
    mass_drift = abs(float(mass(nls_evolve(st, cfg, 1.0))) - m0) / m0

    f = FourierField(grid, st.u, real=False)
    disp = dispersive_audit(f, np.linspace(0.0, 2.0, 21), s=-1.0,
                            p=2.0, q=2.0)
    lo, hi = disp["slope_ci"]
    disp_ok = lo <= 0.0 <= hi

    inv_grid = TorusGrid(4.0, 132, 8.0)
    rep = invariance_experiment(inv_grid, "nls", 1.0, 2000,
                                RngStream(2026, 9), lam=1.0, dt=0.01,
                                sampler_opts={"burn_in": 64, "thinning": 2})
    inv_ok = rep.passed(max_fraction=0.15, uniformity_alpha=0.005)

    # Holder-in-time tightness medians across L: no upward trend
    medians = []
    for L in (2.0, 4.0, 6.0):
        g = TorusGrid(L, int(16 * L + 2 + (L * 16) % 2), 3.0)
        qs = []
        for s in range(6):
            u0 = NlsState(g, sample_complex_gff_coeffs(
                g, 1.0, RngStream(91, int(10 * L) + s)))
            times = list(np.linspace(0.0, 0.5, 11))
            _, recs = nls_evolve(u0, NlsConfig(1.0, 1.0, 0.01, wick_a=0.4,
                                               substep=MIDPOINT_SUBSTEP),
                                 0.5, record_times=times)
            qs.append(holder_quotients([t for t, _ in recs],
                                       [snap.u for _, snap in recs],
                                       g, alpha=0.25))
        medians.append(float(np.median(qs)))
    mk = mann_kendall(medians)
    tight_ok = not (mk["trend"] == "increasing" and mk["p_value"] <= 0.05)

    ok = (unit_err <= 1e-14 and mass_drift <= 1e-10 and disp_ok
          and inv_ok and tight_ok)
    _report(9, ok, "unitarity %.1e (gate 1e-14), mass drift %.1e (gate "
            "1e-10), dispersive slope CI [%.3f, %.3f] contains 0: %s, "
            "invariance frac %.3f unif_p %.4f passed %s, tightness medians "
            "%s trend %s, %.0fs"
            % (unit_err, mass_drift, lo, hi, disp_ok,
               rep.fraction_below_001, rep.uniformity_p, inv_ok,
               ["%.3f" % v for v in medians], mk["trend"], time.time() - t0))


# ---------------------------------------------------------------------------
# 10. Besov inequality audits


def test_criterion_10_besov_audits():
    kinds = ("multiplication", "duality", "interpolation", "embedding",
             "periodic_vs_weighted")
    violations = []
    details = []
    for kind in kinds:
        rep = inequality_audit(kind, 1000, seed=2026)
        ok, bound = check_audit(rep)
        if not ok:
            violations.append(kind)
        details.append("%s max %.3f <= %.3f" % (kind, rep.max_ratio, bound))
    ok = not violations
    _report(10, ok, "; ".join(details)
            + ("" if ok else "; VIOLATIONS: %s" % violations))
