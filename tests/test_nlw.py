import math

import numpy as np
import pytest

from wickwaves import nls
from wickwaves.gaussian import (
    RngStream,
    sample_complex_gff_coeffs,
    sample_gff_coeffs,
)
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
    wick_cubic_coeffs,
)
from wickwaves.torus import TorusGrid, hermitian_symmetrize


@pytest.fixture
def wave_grid():
    return TorusGrid(2.0, 32, 3.0)


def random_state(grid, seed, amp=1.0):
    u = amp * sample_gff_coeffs(grid, 1.0, RngStream(seed, 0))
    ut = amp * sample_gff_coeffs(grid, 1.0, RngStream(seed, 1))
    return WaveState(grid, u, ut)


def test_linear_group_property(wave_grid):
    st = random_state(wave_grid, 1)
    one = linear_propagate(st, 1.0, 0.7)
    two = linear_propagate(linear_propagate(st, 1.0, 0.3), 1.0, 0.4)
    assert np.max(np.abs(one.u - two.u)) < 1e-13
    assert np.max(np.abs(one.ut - two.ut)) < 1e-13
    back = linear_propagate(one, 1.0, -0.7)
    assert np.max(np.abs(back.u - st.u)) < 1e-13


def test_linear_energy_exact(wave_grid):
    st = random_state(wave_grid, 2)
    cfg = NlwConfig(m=1.0, lam=0.0, dt=0.01)
    h0 = float(hamiltonian(st, cfg))
    h1 = float(hamiltonian(linear_propagate(st, 1.0, 3.7), cfg))
    assert h1 == pytest.approx(h0, rel=1e-13)


def test_strang_reversibility(wave_grid):
    st = random_state(wave_grid, 3)
    cfg = NlwConfig(m=1.0, lam=1.0, dt=0.02, wick_a=0.5)
    fwd = st.copy()
    for _ in range(10):
        fwd = strang_step(fwd, cfg)
    back = fwd.copy()
    for _ in range(10):
        back = strang_step(back, cfg, dt=-cfg.dt)
    scale = np.max(np.abs(st.u))
    assert np.max(np.abs(back.u - st.u)) / scale < 10 * 1e-12
    assert np.max(np.abs(back.ut - st.ut)) / scale < 10 * 1e-12


def test_strang_second_order(wave_grid):
    # richardson ratio err(2dt)/err(dt) -> 4 for a second-order scheme
    st = random_state(wave_grid, 4, amp=0.3)
    lam = 1.0
    T = 0.5
    errs = []
    ref = evolve(st, NlwConfig(1.0, lam, T / 1024, wick_a=0.4), T)
    for n in (32, 64, 128):
        out = evolve(st, NlwConfig(1.0, lam, T / n, wick_a=0.4), T)
        errs.append(np.max(np.abs(out.u - ref.u)))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    assert abs(r1 - 4.0) < 0.5
    assert abs(r2 - 4.0) < 0.5


def test_energy_drift_small(wave_grid):
    st = random_state(wave_grid, 5, amp=0.5)
    cfg = NlwConfig(1.0, 1.0, 0.0005, wick_a=0.4)
    h0 = float(hamiltonian(st, cfg))
    out = evolve(st, cfg, 2.0)
    h1 = float(hamiltonian(out, cfg))
    assert abs(h1 - h0) / abs(h0) < 1e-6


def test_wick_cubic_counterterm(wave_grid):
    # constant field u = c: P_K :u^3: = c^3 - 3ac at the zero mode
    c = np.zeros((wave_grid.nk,) * 2, np.complex128)
    c[wave_grid.kmax, wave_grid.kmax] = 1.5
    a = 0.7
    out = wick_cubic_coeffs(wave_grid, c, a)
    assert out[wave_grid.kmax, wave_grid.kmax] == pytest.approx(
        1.5**3 - 3 * a * 1.5, rel=1e-12)
    mask = np.ones_like(out, dtype=bool)
    mask[wave_grid.kmax, wave_grid.kmax] = False
    assert np.max(np.abs(out[mask])) < 1e-14


def test_picard_matches_strang(wave_grid):
    st = random_state(wave_grid, 6, amp=0.3)
    cfg = NlwConfig(1.0, 1.0, 1e-4, wick_a=0.4)
    norm = float(np.max(np.abs(st.u)))
    tau = min(0.05, picard_tau(cfg.lam, 3.0))
    v, info = picard_local_solve(st, cfg, tau, n_nodes=65)
    assert info["contraction_factor"] < 1.0
    full = evolve(st, cfg, tau)
    linear = linear_propagate(st, cfg.m, tau)
    diff = np.max(np.abs((v[-1] + linear.u) - full.u))
    assert diff / max(norm, 1.0) < 1e-6


def test_picard_rejects_bad_tau(wave_grid):
    with pytest.raises(ValueError):
        picard_local_solve(random_state(wave_grid, 7),
                           NlwConfig(1.0, 1.0), -0.1)


def _gevrey_field(grid, beta, seed):
    # deterministic smooth real field, unit physical amplitude
    from wickwaves.torus import to_physical_array

    gen = np.random.default_rng(seed)
    nsq = grid.mode_nsq()
    amp = np.exp(-beta * nsq)
    ph = np.exp(2j * np.pi * gen.uniform(size=nsq.shape))
    c = hermitian_symmetrize(np.where(grid.ball_mask(), amp * ph, 0)) / 2
    phys = to_physical_array(grid, c).real
    return c / max(np.max(np.abs(phys)), 1e-300)


def test_exterior_bump_vanishes_inside():
    from wickwaves.torus import to_physical_array

    grid = TorusGrid(8.0, 256, 6.0)
    u = _gevrey_field(grid, 0.3, 8)
    out = exterior_bump(grid, u, 2.0, sharpness=1.0)
    phys = to_physical_array(grid, out).real
    x1, x2 = grid.grid_x()
    inside = (x1**2 + x2**2) <= 1.0
    scale = np.max(np.abs(phys))
    assert np.max(np.abs(phys[inside])) / scale < 1e-5


def test_finite_speed_small():
    # two states differing only outside B(0, R): difference stays out of
    # the shrunken ball (wick_a=0 keeps the effective mass positive)
    grid = TorusGrid(8.0, 256, 6.0)
    base = _gevrey_field(grid, 0.3, 5)
    pert = exterior_bump(grid, _gevrey_field(grid, 0.3, 6), 2.0,
                         sharpness=1.0)
    sa = WaveState(grid, base, np.zeros_like(base))
    sb = WaveState(grid, base + pert, np.zeros_like(base))
    cfg = NlwConfig(1.0, 1.0, 0.02, wick_a=0.0)
    out = finite_speed_test(sa, sb, 2.0, 1.0, cfg, speed=1.0)
    assert out["interior_ratio"] < 1e-4
    assert out["total_norm"] > 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        NlwConfig(m=0.0)
    with pytest.raises(ValueError):
        NlwConfig(dt=-0.1)
    with pytest.raises(ValueError):
        NlwConfig(lam=-1.0)


def test_evolve_records_times(wave_grid):
    # Each case: flow, t_final, record times, the step sizes evolve must
    # take, and (label, step count) of each snapshot.  Snapshots and final
    # states must equal, bit for bit, single steps over those sizes: NLW's
    # carried force (first-same-as-last) changes no bit, on-grid record
    # times keep full steps of exactly dt, and an off-grid time splits the
    # step across it.
    dt = 0.01
    nlw_case = (evolve, strang_step, random_state(wave_grid, 10, amp=0.2),
                NlwConfig(1.0, 1.0, dt, wick_a=0.3), lambda s: (s.u, s.ut))
    nls_st = nls.NlsState(wave_grid, 0.2 * sample_complex_gff_coeffs(
        wave_grid, 1.0, RngStream(11, 0)))
    nls_case = (nls.evolve, nls.split_step, nls_st,
                nls.NlsConfig(1.0, 1.0, dt, wick_a=0.3,
                              substep=nls.MIDPOINT_SUBSTEP),
                lambda s: (s.u,))
    cases = [
        (nlw_case, 0.1, [0.0, 0.05, 0.1], [dt] * 10,
         [(0.0, 0), (0.05, 5), (0.1, 10)]),
        (nlw_case, 0.1, [0.1, 0.05], [dt] * 10, [(0.05, 5), (0.1, 10)]),
        (nlw_case, 0.095, [0.055, 0.095],
         [dt] * 5 + [0.055 - 5 * dt, 6 * dt - 0.055] + [dt] * 3
         + [0.095 - 9 * dt], [(0.055, 6), (0.095, 11)]),
        (nls_case, 0.035, [0.03, 0.015],
         [dt, 0.015 - dt, 2 * dt - 0.015, dt, 0.035 - 3 * dt],
         [(0.015, 2), (0.03, 4)]),
    ]
    for (flow, step, st, cfg, fields), T, times, sizes, want in cases:
        path = [st]
        for h in sizes:
            path.append(step(path[-1], cfg, dt=h))
        out, snaps = flow(st, cfg, T, record_times=times)
        assert [t for t, _ in snaps] == [t for t, _ in want]
        for (_, snap), (_, k) in zip(snaps, want):
            assert all(map(np.array_equal, fields(snap), fields(path[k])))
        assert all(map(np.array_equal, fields(out), fields(path[-1])))
    st, cfg = nlw_case[2], nlw_case[3]
    with pytest.raises(ValueError):
        evolve(st, cfg, 0.1, record_times=[0.05, 0.2])
    with pytest.raises(ValueError):
        evolve(st, cfg, -0.1)
