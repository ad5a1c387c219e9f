import sys
import threading
import tracemalloc

import numpy as np
import pytest

from wickwaves import torus
from wickwaves.torus import (
    FourierField,
    GridMismatchError,
    LPPartition,
    TorusGrid,
    chi_plateau,
    convolution_power_oracle,
    dealiased_power,
    from_physical,
    from_physical_array,
    hermitian_symmetrize,
    is_hermitian,
    lp_multiplier,
    map_groups,
    spectral_plan,
    to_physical,
    to_physical_array,
)


def random_real_field(grid, gen):
    c = gen.standard_normal((grid.nk, grid.nk)) \
        + 1j * gen.standard_normal((grid.nk, grid.nk))
    c = hermitian_symmetrize(np.where(grid.ball_mask(), c, 0.0))
    return FourierField(grid, c, real=True)


def test_grid_invariants(small_grid):
    g = small_grid
    assert g.nk == 2 * g.kmax + 1
    assert g.volume == pytest.approx(g.L ** 2)
    assert g.h == pytest.approx(g.L / g.M)
    assert g.n_active() == int(np.sum(g.ball_mask()))


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(1.0, 7, 1.0)          # odd M
    with pytest.raises(ValueError):
        TorusGrid(1.0, 4, 2.0)          # too coarse
    with pytest.raises(ValueError):
        TorusGrid(-1.0, 16, 1.0)


def test_round_trip(small_grid, gen):
    f = random_real_field(small_grid, gen)
    phys = to_physical(f)
    back = from_physical(small_grid, phys)
    assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12
    assert np.max(np.abs(phys.imag)) < 1e-12


def test_parseval(small_grid, gen):
    f = random_real_field(small_grid, gen)
    phys = to_physical(f).real
    lhs = np.sum(phys ** 2) * small_grid.h ** 2
    rhs = small_grid.volume * np.sum(np.abs(f.coeffs) ** 2)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_dealiased_power_matches_convolution(small_grid, gen):
    f = random_real_field(small_grid, gen)
    for j in (2, 3):
        fast = dealiased_power(f, j)
        slow = convolution_power_oracle(f, j)
        assert np.max(np.abs(fast.coeffs - slow.coeffs)) < 1e-12


def test_hermitian_helpers(small_grid, gen):
    f = random_real_field(small_grid, gen)
    assert is_hermitian(f.coeffs, tol=1e-14)
    phys = to_physical(f)
    assert np.max(np.abs(phys.imag)) < 1e-12


def test_lp_partition_of_unity(medium_grid):
    part = LPPartition(medium_grid.K)
    r = np.linspace(0.0, medium_grid.K, 300)
    total = sum(part.sigma(k, r) for k in part.blocks())
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_lp_blocks_sum_to_field(medium_grid, gen):
    f = random_real_field(medium_grid, gen)
    part = LPPartition(medium_grid.K)
    total = np.zeros_like(f.coeffs)
    for k in part.blocks():
        total = total + f.coeffs * lp_multiplier(medium_grid, part, k)
    assert np.max(np.abs(total - f.coeffs)) < 1e-12


def test_chi_plateau_profile():
    assert chi_plateau(np.array([0.0, 0.5, 0.74]))[0] == 1.0
    vals = chi_plateau(np.array([0.0, 0.5, 0.74, 4.0 / 3.0, 2.0]))
    assert np.all(vals[:3] == 1.0)
    assert np.all(vals[3:] == 0.0)


def test_grid_mismatch_raises(small_grid, medium_grid, gen):
    g = random_real_field(medium_grid, gen)
    with pytest.raises(GridMismatchError):
        from_physical(small_grid, to_physical(g))


def test_physical_array_batched(small_grid, gen):
    c = np.stack([random_real_field(small_grid, gen).coeffs
                  for _ in range(3)])
    phys = to_physical_array(small_grid, c)
    back = from_physical_array(small_grid, phys)
    assert np.max(np.abs(back - c)) < 1e-12


@pytest.mark.parametrize("L, M, K, P",
                         [(1.0, 16, 2.0, 10), (2.0, 32, 3.0, 27)])
@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("batch", [None, 3])
def test_spectral_plan_round_trip_and_cubic(L, M, K, P, real, batch, gen):
    grid = TorusGrid(L, M, K)
    plan = spectral_plan(grid, real)
    assert plan.P == P
    shape = (grid.nk, grid.nk) if batch is None else (batch, grid.nk, grid.nk)
    c = np.where(grid.ball_mask(), gen.standard_normal(shape)
                 + 1j * gen.standard_normal(shape), 0.0)
    if real:
        c = hermitian_symmetrize(c)
    u = plan.to_grid(c)
    assert np.isrealobj(u) == real
    scale = np.max(np.abs(c))
    assert np.max(np.abs(plan.from_grid(u) - c)) < 1e-12 * scale
    cubic = plan.from_grid(u**3).reshape((-1, grid.nk, grid.nk))
    for cb, got in zip(c.reshape((-1, grid.nk, grid.nk)), cubic):
        want = convolution_power_oracle(FourierField(grid, cb, real), 3).coeffs
        assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def _shifted_cubic(u, planes):
    """Round-trip work: s = |u|^2 - 0.3 in a plane, u <- s u, and the sum
    of s per member."""
    s = np.multiply(u.real, u.real, out=planes[0])
    if np.iscomplexobj(u):
        s += np.multiply(u.imag, u.imag, out=planes[1])
    s -= 0.3
    u *= s
    return u, np.sum(s, axis=(-2, -1))


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
@pytest.mark.parametrize("packed", [False, True])
@pytest.mark.parametrize("block_members", [1, 2, None])
def test_round_trip_equals_to_grid_then_from_grid(monkeypatch, gen, real,
                                                  lead, packed,
                                                  block_members):
    # bit for bit, whatever the blocks the batch is cut into
    grid = TorusGrid(2.0, 32, 3.0)
    plan = torus.SpectralPlan(grid, real, 27)
    if block_members is not None:
        monkeypatch.setattr(torus, "BLOCK_BYTES", 8 * 27 * 27 * block_members)
    if packed:
        entries = np.flatnonzero(plan.stored(grid.ball_mask()).ravel())
        parts = np.concatenate((2 * entries, 2 * entries + 1))
        values = gen.standard_normal(lead + parts.shape)
        out_parts, radius = parts[::3], None
    else:
        values = np.where(grid.ball_mask(),
                          gen.standard_normal(lead + (grid.nk, grid.nk))
                          + 1j * gen.standard_normal(lead + (grid.nk, grid.nk)),
                          0.0)
        parts, out_parts, radius = None, None, 2.0
    u = plan.to_grid(values, parts)
    s = u.real * u.real
    if not real:
        s += u.imag * u.imag
    s -= 0.3
    want = plan.from_grid(u * s, out_parts, radius)
    got, total = plan.round_trip(values, _shifted_cubic, parts, out_parts,
                                 radius)
    assert np.array_equal(got, want)
    assert np.array_equal(total, np.sum(s, axis=(-2, -1)))
    assert np.shape(total) == lead
    # without samples back there is no forward transform
    none, again = plan.round_trip(values, lambda u, planes: (
        None, _shifted_cubic(u, planes)[1]), parts)
    assert none is None and np.array_equal(again, total)


def test_round_trip_keeps_one_buffer_per_plan_and_thread(gen):
    grid = TorusGrid(2.0, 32, 3.0)
    plan = torus.SpectralPlan(grid, True, 64)
    batches = [np.zeros((n, grid.nk, grid.nk), complex) for n in (3, 5)]

    def buffer_bytes(n):
        # the padded spectrum and one real plane per member
        return n * 64 * (plan.width * 16 + 64 * 8)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for c in batches * 3:
            plan.round_trip(c, lambda u, planes: (u, None))
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # the last batch's buffer, not one per batch shape seen
    assert buffer_bytes(5) <= held < buffer_bytes(5) + buffer_bytes(3) // 2


def test_round_trip_planes_are_contiguous_in_every_block(monkeypatch):
    # blocks of 2, 2 and 1 members: the last block's planes are the head
    # of the buffer, so that a complex plan's planes read as one complex
    # array of the samples' shape
    grid = TorusGrid(2.0, 32, 3.0)
    plan = torus.SpectralPlan(grid, False, 27)
    monkeypatch.setattr(torus, "BLOCK_BYTES", 8 * 27 * 27 * 2)
    seen = []

    def record(u, planes):
        seen.append((planes.shape, planes.flags.c_contiguous,
                     planes.reshape(-1).view(np.complex128).size == u.size))
        return u, None

    plan.round_trip(np.zeros((5, grid.nk, grid.nk), complex), record)
    assert seen == [((2, m, 27, 27), True, True) for m in (2, 2, 1)]


def test_round_trip_refuses_nested_use(small_grid, gen):
    plan = spectral_plan(small_grid)
    c = random_real_field(small_grid, gen).coeffs

    def identity(u, planes):
        return u, None

    def nested(u, planes):
        plan.round_trip(c, identity)
        return u, None

    with pytest.raises(RuntimeError, match="entered again"):
        plan.round_trip(c, nested)
    # the plan serves the next call
    assert np.array_equal(plan.round_trip(c, identity)[0],
                          plan.from_grid(plan.to_grid(c)))


def test_map_groups_runs_every_group_once_in_order(monkeypatch):
    # a pool of its own with more threads than a 2-core box has, and a
    # thread switch every microsecond, so that a lost update of the shared
    # group queue shows
    monkeypatch.setattr(torus, "WORKERS", 4)
    monkeypatch.setattr(torus, "_pool", None)
    n = 50 * torus.GROUP + 3
    calls, lock, out = [], threading.Lock(), []

    def group(sl):
        with lock:
            calls.append(sl.start)
        # nested calls run inline, on the whole batch, with one FFT worker
        inner = map_groups(lambda s: (s, torus._fft_workers()), 2 * n)
        return sl, inner

    def stress():
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out.append(map_groups(group, n))
        finally:
            sys.setswitchinterval(interval)
            torus._pool.shutdown()

    worker = threading.Thread(target=stress)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    starts = list(range(0, n, torus.GROUP))
    assert sorted(calls) == starts
    assert [sl.start for sl, _ in out[0]] == starts
    assert [sl.stop for sl, _ in out[0]] == starts[1:] + [n]
    assert all(inner == [(slice(0, 2 * n), 1)] for _, inner in out[0])
    assert torus._fft_workers() == 4
    monkeypatch.setattr(torus, "WORKERS", 1)
    assert map_groups(lambda s: s, n) == [slice(0, n)]
