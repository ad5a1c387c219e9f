"""Results are bitwise equal whatever the FFT worker count of the spectral
plan and however the NLS members are batched."""

import numpy as np
import pytest

from wickwaves import nls, torus
from wickwaves.gaussian import (
    RngStream,
    sample_complex_gff_coeffs,
    sample_gff_coeffs,
)
from wickwaves.phi4 import (
    MeasureSpec,
    hmc_step,
    init_chain,
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
