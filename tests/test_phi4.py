import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from wickwaves.gaussian import RngStream, wick_constant_lattice
from wickwaves.phi4 import (
    COMPLEX_FIELD,
    REAL_FIELD,
    MeasureSpec,
    _action_and_gradient,
    action,
    action_gradient,
    hmc_step,
    init_chain,
    mala_step,
    pack_dofs,
    quartic_integral,
    rejection_oracle,
    run_chain,
    tune_hmc_step,
    tune_step_size,
    unpack_dofs,
    zero_mode_gibbs_step,
)
from wickwaves.torus import TorusGrid, spectral_plan


@pytest.fixture
def tiny_grid():
    # 5 active modes (|k| <= 1 ball): small enough for the rejection oracle
    return TorusGrid(1.0, 8, 1.0)


def _spec(grid, lam=1.0, a=0.2, field=None):
    kwargs = {} if field is None else {"field_type": field}
    return MeasureSpec(grid, m=1.0, lam=lam, wick_a=a, **kwargs)


def test_pack_round_trip(tiny_grid):
    spec = _spec(tiny_grid)
    gen = np.random.default_rng(0)
    from wickwaves.torus import hermitian_symmetrize
    c = gen.standard_normal((tiny_grid.nk,) * 2) \
        + 1j * gen.standard_normal((tiny_grid.nk,) * 2)
    c = hermitian_symmetrize(np.where(tiny_grid.ball_mask(), c, 0.0))
    d = pack_dofs(spec, c)
    back = unpack_dofs(spec, d)
    assert np.max(np.abs(back - c)) < 1e-14
    assert d.shape[-1] == tiny_grid.n_active()  # 2 per pair, 1 for self-dual


def test_pack_round_trip_complex(tiny_grid):
    spec = _spec(tiny_grid, field=COMPLEX_FIELD)
    gen = np.random.default_rng(1)
    c = gen.standard_normal((tiny_grid.nk,) * 2) \
        + 1j * gen.standard_normal((tiny_grid.nk,) * 2)
    c = np.where(tiny_grid.ball_mask(), c, 0.0)
    d = pack_dofs(spec, c)
    back = unpack_dofs(spec, d)
    assert np.max(np.abs(back - c)) < 1e-14
    assert d.shape[-1] == 2 * tiny_grid.n_active()


def test_gradient_matches_finite_differences(tiny_grid):
    for field in (None, COMPLEX_FIELD):
        spec = _spec(tiny_grid, lam=0.7, a=0.4, field=field)
        gen = np.random.default_rng(2)
        st = init_chain(spec, RngStream(3, 0), batch=1)
        d0 = st.dofs[0].copy()
        grad = action_gradient(unpack_dofs(spec, d0), spec)
        eps = 1e-6
        for i in range(0, d0.size, max(1, d0.size // 7)):
            dp, dm = d0.copy(), d0.copy()
            dp[i] += eps
            dm[i] -= eps
            fd = (action(unpack_dofs(spec, dp), spec)
                  - action(unpack_dofs(spec, dm), spec)) / (2 * eps)
            assert grad[i] == pytest.approx(float(fd), rel=1e-5, abs=1e-7)


def _full_lattice_action_and_gradient(spec, dofs):
    """S and its packed gradient through the unpacked coefficients and a
    full complex transform on a padded lattice."""
    grid = spec.grid
    c = unpack_dofs(spec, dofs)
    P = 4 * grid.kmax + 2
    idx = np.arange(-grid.kmax, grid.kmax + 1) % P
    big = np.zeros(c.shape[:-2] + (P, P), dtype=np.complex128)
    big[..., idx[:, None], idx] = c
    z = np.fft.ifft2(big) * P**2
    a, q, vol = spec.a, spec.q, grid.volume
    osq = spec.m**2 + grid.mode_nsq()
    quad = 0.5 * vol * np.sum(osq * np.abs(c) ** 2, axis=(-2, -1))
    if spec.field_type == COMPLEX_FIELD:
        zsq = np.abs(z) ** 2
        w, cubic, mult = zsq**2 - 4 * a * zsq + 2 * a * a, (zsq - 2 * a) * z, 2
        quad = 2 * quad
    else:
        z = z.real
        w, cubic, mult = z**4 - 6 * a * z**2 + 3 * a * a, z**3 - 3 * a * z, 4
    s = quad + q * np.sum(w, axis=(-2, -1)) * (grid.L / P) ** 2
    d = (np.fft.fft2(cubic) / P**2)[..., idx[:, None], idx]
    g = np.where(grid.ball_mask(), 2 * vol * (osq * c + mult * q * d), 0.0)
    if spec.field_type != COMPLEX_FIELD:
        g[..., grid.kmax, grid.kmax] *= 0.5     # the zero mode is no pair
    return s, pack_dofs(spec, g)


@pytest.mark.parametrize("field", [None, COMPLEX_FIELD])
@pytest.mark.parametrize("batch", [None, 4])
def test_dofs_action_and_gradient_match_full_lattice(field, batch):
    spec = _spec(TorusGrid(2.0, 32, 3.0), lam=0.9, a=0.6, field=field)
    dofs = init_chain(spec, RngStream(12, 0), batch=batch or 1).dofs
    if batch is None:
        dofs = dofs[0]
    s, g = _action_and_gradient(spec, dofs)
    s_ref, g_ref = _full_lattice_action_and_gradient(spec, dofs)
    assert np.shape(s) == np.shape(s_ref) and g.shape == dofs.shape
    assert np.max(np.abs(s - s_ref)) < 1e-12 * np.max(np.abs(s_ref))
    assert np.max(np.abs(g - g_ref)) < 1e-12 * np.max(np.abs(g_ref))


def test_quartic_integral_constant_field(tiny_grid):
    # u = c constant: int (u^4 - 6a u^2 + 3a^2) = vol*(c^4 - 6a c^2 + 3a^2)
    spec = _spec(tiny_grid, a=0.5)
    c = np.zeros((tiny_grid.nk,) * 2, np.complex128)
    cval = 1.7
    c[tiny_grid.kmax, tiny_grid.kmax] = cval
    w = float(quartic_integral(spec, c))
    vol = tiny_grid.volume
    a = spec.a
    assert w == pytest.approx(
        vol * (cval**4 - 6 * a * cval**2 + 3 * a**2), rel=1e-12)


def test_lambda_zero_reduces_to_gff(tiny_grid):
    spec = MeasureSpec(tiny_grid, m=1.0, lam=0.0)
    samples = run_chain(spec, "mala", 4000, RngStream(5, 0),
                        burn_in=200, thinning=4, batch=32)[0]
    var0 = np.var(samples[:, tiny_grid.kmax, tiny_grid.kmax].real)
    target = 1.0 / tiny_grid.volume  # zero mode: 1/(L^2 m^2)
    assert abs(var0 - target) < 5 * target / math.sqrt(len(samples) / 4)


def test_mala_matches_rejection_oracle(tiny_grid):
    spec = _spec(tiny_grid, lam=1.0, a=0.2)
    oracle, _ = rejection_oracle(spec, 4000, RngStream(6, 0))
    chain, _ = run_chain(spec, "mala", 4000, RngStream(6, 1),
                         burn_in=400, thinning=8, batch=32)
    zo = oracle[:, tiny_grid.kmax, tiny_grid.kmax].real
    zc = chain[:, tiny_grid.kmax, tiny_grid.kmax].real
    so = np.sum(np.abs(oracle) ** 2, axis=(1, 2))
    sc = np.sum(np.abs(chain) ** 2, axis=(1, 2))
    for a_, b_ in ((zo, zc), (zo**2, zc**2), (so, sc)):
        se = math.sqrt(np.var(a_) / len(a_) + np.var(b_) / len(b_))
        assert abs(np.mean(a_) - np.mean(b_)) < 4 * se


def test_hmc_matches_rejection_oracle(tiny_grid):
    spec = _spec(tiny_grid, lam=1.0, a=0.2)
    oracle, _ = rejection_oracle(spec, 4000, RngStream(7, 0))
    chain, _ = run_chain(spec, "hmc", 4000, RngStream(7, 1),
                         burn_in=128, thinning=4, batch=32)
    so = np.sum(np.abs(oracle) ** 2, axis=(1, 2))
    sc = np.sum(np.abs(chain) ** 2, axis=(1, 2))
    se = math.sqrt(np.var(so) / len(so) + np.var(sc) / len(sc))
    assert abs(np.mean(so) - np.mean(sc)) < 4 * se


def test_hmc_acceptance_tuning(tiny_grid):
    spec = _spec(tiny_grid, lam=1.0, a=0.2)
    st = init_chain(spec, RngStream(8, 0), batch=16)
    eps = tune_hmc_step(st, 0.2)
    before = st.accepted
    for _ in range(20):
        hmc_step(st, eps)
    rate = (st.accepted - before) / (20 * st.batch)
    assert 0.5 < rate <= 1.0


def test_mala_acceptance_tuning(tiny_grid):
    spec = _spec(tiny_grid, lam=1.0, a=0.2)
    st = init_chain(spec, RngStream(9, 0), batch=16)
    dt = tune_step_size(st, 0.1)
    before = st.accepted
    for _ in range(50):
        mala_step(st, dt)
    rate = (st.accepted - before) / (50 * st.batch)
    assert 0.3 < rate < 0.9


def test_rejection_oracle_guard():
    big = TorusGrid(4.0, 64, 3.0)
    spec = MeasureSpec(big, lam=1.0, wick_a=0.1)
    with pytest.raises(ValueError):
        rejection_oracle(spec, 10, RngStream(10, 0))


def test_action_validation(tiny_grid):
    with pytest.raises(ValueError):
        MeasureSpec(tiny_grid, m=-1.0)
    with pytest.raises(ValueError):
        MeasureSpec(tiny_grid, lam=-0.5)
    with pytest.raises(ValueError):
        MeasureSpec(tiny_grid, field_type="quaternionic")


def test_run_chain_manifest(tiny_grid):
    spec = _spec(tiny_grid, lam=0.5)
    samples, manifest = run_chain(spec, "hmc", 64, RngStream(11, 0),
                                  burn_in=32, thinning=2, batch=8)
    assert samples.shape == (64, tiny_grid.nk, tiny_grid.nk)
    assert manifest["sampler"] == "hmc"
    assert manifest["n_samples"] == 64
    assert "acceptance_rate" in manifest
    assert "ess" in manifest


@pytest.mark.parametrize("sampler", ["hmc", "mala"])
def test_run_chain_rejects_zero_thinning(tiny_grid, sampler):
    # no step between draws would make each chain's draws copies of one
    # state; the check comes before any draw
    spec = _spec(tiny_grid, lam=0.5)
    with pytest.raises(ValueError, match="thinning"):
        run_chain(spec, sampler, 8, RngStream(11, 0), thinning=0, batch=4)


# the criterion-6 grid (L=4, K=8, P=132): big enough that the padded
# samples of a batch dwarf everything else a gradient call allocates
CRITERION6_GRID = TorusGrid(4.0, 132, 8.0)


@pytest.mark.parametrize("field", [REAL_FIELD, COMPLEX_FIELD])
def test_action_and_gradient_allocation_budget(field):
    # after a warm-up call, one call allocates less than twice the padded
    # spectrum of its batch: scipy's row-pass outputs of one block of
    # members, the packed dofs and the gradient; no batch-sized padded
    # temporaries (about three spectra before the work buffer)
    batch = 16
    spec = MeasureSpec(CRITERION6_GRID, m=1.0, lam=1.0, field_type=field)
    dofs = init_chain(spec, RngStream(3, 0), batch=batch).dofs
    plan = spectral_plan(CRITERION6_GRID, field == REAL_FIELD)
    padded = batch * plan.P * plan.width * 16
    _action_and_gradient(spec, dofs)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _action_and_gradient(spec, dofs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2 * padded


@pytest.mark.parametrize("field", [REAL_FIELD, COMPLEX_FIELD])
def test_zero_mode_move_leaves_action_and_gradient_cached(field):
    grid = TorusGrid(2.0, 32, 3.0)
    spec = MeasureSpec(grid, m=1.0, lam=1.0, field_type=field)
    state = init_chain(spec, RngStream(4, 0), batch=16)
    hmc_step(state, 0.1)
    # a zero mode far outside the move's bracket is always kept: chains
    # 0-3 are rejected, and the move computes their incoming cache itself
    c = np.zeros((grid.nk, grid.nk), complex)
    c[grid.kmax, grid.kmax] = 50.0 + (50.0j if field == COMPLEX_FIELD else 0)
    far = pack_dofs(spec, c)
    state.dofs[:4, far != 0] = far[far != 0]
    state._cache = None
    moved = []
    for _ in range(3):
        before = state.dofs.copy()
        zero_mode_gibbs_step(state)
        s, g = _action_and_gradient(spec, state.dofs)
        assert np.array_equal(state._cache[0], s)
        assert np.array_equal(state._cache[1], g)
        moved.append(np.any(state.dofs != before, axis=-1))
    # both accepted and rejected chains were checked
    assert 0 < np.count_nonzero(moved) < np.size(moved)


def test_gradients_on_two_threads_equal_serial_ones():
    # each thread has its own work buffer: two threads evaluating batches
    # of different sizes at once, switching every microsecond, get the
    # serial results bit for bit
    grid = TorusGrid(2.0, 32, 3.0)
    specs = [MeasureSpec(grid, m=1.0, lam=1.0, field_type=f)
             for f in (REAL_FIELD, COMPLEX_FIELD)]
    jobs = [(spec, init_chain(spec, RngStream(6, n), batch=n).dofs)
            for spec in specs for n in (3, 5)]
    want = [_action_and_gradient(spec, dofs) for spec, dofs in jobs]
    got = [[], []]

    def run(k):
        for _ in range(20):
            for spec, dofs in jobs[k::2]:
                got[k].append(_action_and_gradient(spec, dofs))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for k in (0, 1):
        assert len(got[k]) == 20 * len(jobs[k::2])
        for i, (s, g) in enumerate(got[k]):
            ws, wg = want[k + 2 * (i % len(jobs[k::2]))]
            assert np.array_equal(s, ws) and np.array_equal(g, wg)
