"""Results are bitwise equal whatever the worker count (FFT workers of the
spectral plan, threads of the member groups) and however the members are
batched or grouped."""

import threading
import warnings

import numpy as np
import pytest

from wickwaves import nls, nlw, phi4, torus
from wickwaves.io import NumericalGateError
from wickwaves.gaussian import (
    RngStream,
    sample_complex_gff_coeffs,
    sample_gff_coeffs,
)
from wickwaves.phi4 import (
    MeasureSpec,
    hmc_step,
    init_chain,
    run_chain,
    zero_mode_gibbs_step,
)
from wickwaves.torus import TorusGrid, grid_plan, spectral_plan

TEST_GRID = TorusGrid(2.0, 32, 3.0)
CRITERION6_GRID = TorusGrid(4.0, 132, 8.0)


def _midpoint_cfg(dt=0.01):
    return nls.NlsConfig(1.0, 1.0, dt, wick_a=0.4,
                         substep=nls.MIDPOINT_SUBSTEP)


def _per_worker_count(monkeypatch, compute):
    out = []
    for workers in (1, 2):
        monkeypatch.setattr(torus, "WORKERS", workers)
        out.append(compute())
    return out


@pytest.mark.parametrize("real", [True, False])
def test_transforms_do_not_depend_on_workers(monkeypatch, real):
    grid = CRITERION6_GRID
    sample = sample_gff_coeffs if real else sample_complex_gff_coeffs
    c = sample(grid, 1.0, RngStream(3, 0), size=8)

    def compute():
        outs = []
        for plan in (spectral_plan(grid, real), grid_plan(grid, real)):
            z = plan.to_grid(c)
            outs += [z, plan.from_grid(z)]
        return outs

    one, two = _per_worker_count(monkeypatch, compute)
    for a, b in zip(one, two):
        assert np.array_equal(a, b)


def test_hmc_trajectory_does_not_depend_on_workers(monkeypatch):
    spec = MeasureSpec(CRITERION6_GRID, m=1.0, lam=1.0)

    def compute():
        state = init_chain(spec, RngStream(5, 0), batch=8)
        hmc_step(state, 0.3)
        zero_mode_gibbs_step(state)
        return state.dofs

    one, two = _per_worker_count(monkeypatch, compute)
    assert np.array_equal(one, two)


def test_midpoint_step_does_not_depend_on_workers(monkeypatch):
    grid = CRITERION6_GRID
    st = nls.NlsState(grid, sample_complex_gff_coeffs(
        grid, 1.0, RngStream(7, 0), size=8))
    one, two = _per_worker_count(
        monkeypatch, lambda: nls.split_step(st, _midpoint_cfg()).u)
    assert np.array_equal(one, two)


@pytest.mark.parametrize("grid", [TEST_GRID, CRITERION6_GRID],
                         ids=["test_grid", "criterion6_grid"])
def test_nls_members_do_not_depend_on_the_batch(grid):
    u = sample_complex_gff_coeffs(grid, 1.0, RngStream(9, 0), size=8)
    cfg = _midpoint_cfg()

    def run(coeffs):
        return nls.evolve(nls.NlsState(grid, coeffs), cfg, 0.03).u

    batch = run(u)
    assert np.array_equal(run(u[3]), batch[3])
    assert np.array_equal(run(u[2:5]), batch[2:5])


# ---------------------------------------------------------------------------
# member groups: 19 NLS members make 10 groups on the pool, an odd number
# not a multiple of the group size; 1 member runs inline.  NLW and HMC run
# on the calling thread whatever the worker count.

BATCHES = [19, 1]


def _pooled_and_inline(monkeypatch, compute, batch, pooled):
    """compute() at WORKERS = 1 and 2; checks that the pool ran at 2 when
    `pooled` and the batch spans more than one group, and not otherwise."""
    used = []
    helpers = torus._helpers
    monkeypatch.setattr(torus, "_helpers",
                        lambda: used.append(torus.WORKERS) or helpers())
    one, two = _per_worker_count(monkeypatch, compute)
    assert set(used) == ({2} if pooled and batch > torus.GROUP else set())
    return one, two


@pytest.mark.parametrize("batch", BATCHES)
def test_nlw_evolve_does_not_depend_on_workers(monkeypatch, batch):
    grid = CRITERION6_GRID
    u = sample_gff_coeffs(grid, 1.0, RngStream(11, 0), size=batch)
    ut = sample_gff_coeffs(grid, 1.0, RngStream(11, 1), size=batch)
    cfg = nlw.NlwConfig(1.0, 1.0, 0.01, wick_a=0.4)

    def compute():
        # 0.023 lies between grid points, so a step is split there
        final, rec = nlw.evolve(nlw.WaveState(grid, u, ut), cfg, 0.05,
                                record_times=[0.0, 0.023, 0.05])
        return [final.u, final.ut] + [a for _, st in rec
                                      for a in (st.u, st.ut)]

    one, two = _pooled_and_inline(monkeypatch, compute, batch, False)
    for a, b in zip(one, two):
        assert a.shape[0] == batch
        assert np.array_equal(a, b)


@pytest.mark.parametrize("batch", BATCHES)
def test_nls_evolve_does_not_depend_on_groups(monkeypatch, batch):
    grid = CRITERION6_GRID
    u = sample_complex_gff_coeffs(grid, 1.0, RngStream(13, 0), size=batch)

    def compute():
        final, [(_, mid)] = nls.evolve(nls.NlsState(grid, u),
                                       _midpoint_cfg(), 0.03,
                                       record_times=[0.015])
        return final.u, mid.u

    one, two = _pooled_and_inline(monkeypatch, compute, batch, True)
    for a, b in zip(one, two):
        assert a.shape[0] == batch
        assert np.array_equal(a, b)


@pytest.mark.parametrize("batch", BATCHES)
def test_hmc_chain_does_not_depend_on_workers(monkeypatch, batch):
    spec = MeasureSpec(TEST_GRID, m=1.0, lam=1.0)
    assert phi4._deep_well(spec)        # the zero-mode move runs too

    def compute():
        draws, man = run_chain(spec, "hmc", 2 * batch, RngStream(15, 0),
                               burn_in=2, thinning=1, batch=batch)
        return draws, man["acceptance_rate"], man["dt"]

    one, two = _pooled_and_inline(monkeypatch, compute, batch, False)
    assert np.array_equal(one[0], two[0])
    assert one[1:] == two[1:]


def test_failed_group_raises_its_own_error_after_all_stop(monkeypatch):
    monkeypatch.setattr(torus, "WORKERS", 2)
    grid = TEST_GRID
    u = sample_complex_gff_coeffs(grid, 1.0, RngStream(9, 0), size=19)
    bad = u.copy()
    bad[0] *= 5.0       # too strong for the midpoint iteration to converge
    running, lock = [0], threading.Lock()
    kick = nls._midpoint_kick

    def counted(*args, **kwargs):
        with lock:
            running[0] += 1
        try:
            return kick(*args, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    monkeypatch.setattr(nls, "_midpoint_kick", counted)
    with pytest.raises(NumericalGateError, match="not converged") as info:
        nls.evolve(nls.NlsState(grid, bad), _midpoint_cfg(), 0.03)
    assert type(info.value) is NumericalGateError
    assert running[0] == 0
    # the pool still serves the next call, with the same results
    pooled = nls.evolve(nls.NlsState(grid, u), _midpoint_cfg(), 0.03).u
    monkeypatch.setattr(torus, "WORKERS", 1)
    inline = nls.evolve(nls.NlsState(grid, u), _midpoint_cfg(), 0.03).u
    assert np.array_equal(pooled, inline)


def test_diverging_trajectory_is_rejected_quietly(monkeypatch):
    monkeypatch.setattr(torus, "WORKERS", 2)
    spec = MeasureSpec(TEST_GRID, m=1.0, lam=1.0)
    state = init_chain(spec, RngStream(5, 0), batch=19)
    state.dofs[16:] *= 100.0    # the last three trajectories overflow
    before = state.dofs.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hmc_step(state, 0.05, flip_prob=0.0)
    assert state.overflow == 3
    assert state.accepted == 16
    assert np.array_equal(state.dofs[16:], before[16:])
    assert np.all(np.isfinite(state.dofs))
