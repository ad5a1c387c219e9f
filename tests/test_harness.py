import numpy as np
import pytest

from wickwaves import harness
from wickwaves.gaussian import RngStream, sample_gff_coeffs
from wickwaves.harness import (
    FlowContext,
    blowup_bookkeeping,
    bump_test_field,
    default_observables,
    invariance_experiment,
    sample_initial_ensemble,
    volume_stabilization_study,
)
from wickwaves.phi4 import MeasureSpec
from wickwaves.torus import TorusGrid, to_physical_array


@pytest.fixture
def hgrid():
    return TorusGrid(2.0, 16, 1.5)


def test_bump_test_field_supported():
    grid = TorusGrid(2.0, 64, 6.0)
    f = bump_test_field(grid, 0.6, (1.0, 0.0))
    phys = to_physical_array(grid, f).real
    x1, x2 = grid.grid_x()
    outside = (x1**2 + x2**2) > 0.7**2
    scale = np.max(np.abs(phys))
    # compact support up to the band-limit truncation error
    assert np.max(np.abs(phys[outside])) / scale < 0.05


def test_default_observables_count(hgrid):
    for flow in ("nlw", "nls", "linear"):
        ctx = FlowContext(hgrid, 1.0, 1.0, 0.4, flow)
        obs = default_observables(ctx)
        assert len(obs) == 20
        assert len({ob.name for ob in obs}) == 20


def test_pairing_observable_linearity(hgrid):
    ctx = FlowContext(hgrid, 1.0, 1.0, 0.4, "nlw")
    ob = next(o for o in default_observables(ctx) if o.kind == "pairing")
    u = sample_gff_coeffs(hgrid, 1.0, RngStream(1, 0), size=4)
    ut = np.zeros_like(u)
    x1 = np.asarray(ob.evaluate(ctx, u, ut), float)
    x2 = np.asarray(ob.evaluate(ctx, 2.0 * u, ut), float)
    assert np.allclose(x2, 2.0 * x1, rtol=1e-12)


def test_sample_ensemble_empty(hgrid):
    spec = MeasureSpec(hgrid, lam=1.0, wick_a=0.2)
    ens, manifest = sample_initial_ensemble(spec, 0, RngStream(2, 0))
    assert ens.u.shape[0] == 0
    assert manifest == {}


def test_sample_ensemble_ess_gate(hgrid):
    spec = MeasureSpec(hgrid, lam=1.0, wick_a=0.2)
    with pytest.raises(RuntimeError, match="effective sample size"):
        sample_initial_ensemble(spec, 64, RngStream(3, 0),
                                required_ess_fraction=1e6,
                                sampler_opts={"burn_in": 16, "thinning": 1})


def test_invariance_input_validation(hgrid):
    with pytest.raises(ValueError):
        invariance_experiment(hgrid, "heat", 1.0, 10, RngStream(4, 0))
    with pytest.raises(ValueError):
        invariance_experiment(hgrid, "nlw", 1.0, 11, RngStream(4, 0))


def test_arguments_checked_before_any_draw(hgrid, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("sampled before checking the arguments")
    monkeypatch.setattr(harness, "_sample_gaussian_ensemble", no_draw)
    monkeypatch.setattr(harness, "sample_initial_ensemble", no_draw)
    for flow in ("linear", "nlw", "nls"):
        with pytest.raises(ValueError, match="dt must be positive"):
            invariance_experiment(hgrid, flow, 0.5, 20, RngStream(4, 0),
                                  dt=0.0)
    with pytest.raises(ValueError, match="even"):
        invariance_experiment(hgrid, "linear", 0.5, 21, RngStream(4, 0),
                              lam=0.0)
    with pytest.raises(ValueError, match="dt must be positive"):
        volume_stabilization_study([4.0, 8.0], 1.5, 0.5, 20,
                                   RngStream(8, 0), dt=0.0)


def test_invariance_linear_flow_passes(hgrid):
    rep = invariance_experiment(hgrid, "linear", 0.5, 400, RngStream(5, 0),
                                lam=0.0, dt=0.01)
    assert rep.passed()
    assert len(rep.p_values) == 20
    assert rep.manifest["sampler"] == "gaussian"


def test_invariance_t0_identity_distribution(hgrid):
    # T=0: both halves are i.i.d. from the same law, so the p-values are
    # uniform by construction
    rep = invariance_experiment(hgrid, "nlw", 0.0, 400, RngStream(6, 0),
                                lam=0.0, dt=0.01)
    assert rep.passed()
    assert rep.fraction_below_001 <= 0.15


def test_invariance_nls_small(hgrid):
    rep = invariance_experiment(hgrid, "nls", 0.25, 200, RngStream(7, 0),
                                lam=1.0, wick_a=0.2, dt=0.01,
                                sampler_opts={"burn_in": 64, "thinning": 4})
    assert rep.passed()


def test_volume_study_margin_violation():
    with pytest.raises(ValueError, match="light cone"):
        volume_stabilization_study([4.0, 8.0], 1.5, 3.0, 20, RngStream(8, 0),
                                   D=1.5, speed=1.0)
    with pytest.raises(ValueError):
        volume_stabilization_study([4.0], 1.5, 0.5, 20, RngStream(8, 0))


def test_volume_study_gaussian_small():
    rep = volume_stabilization_study([2.0, 4.0, 8.0], 1.0, 0.2, 80,
                                     RngStream(9, 0), lam=0.0, D=0.5,
                                     dt=0.02)
    for key in ("t0", "tT"):
        assert len(rep[key]["energy_distances"]) == 2
        assert all(d >= 0.0 for d in rep[key]["energy_distances"])
    assert rep["pairs"] == [(2.0, 4.0), (4.0, 8.0)]


def test_blowup_bookkeeping_rows(hgrid):
    rep = blowup_bookkeeping(hgrid, None, 1.0, 32, RngStream(10, 0),
                             lam=1.0, n_times=5)
    rows = rep["rows"]
    assert len(rows) >= 3
    tails = [r["tail"] for r in rows]
    # tails are nonincreasing in the threshold M
    assert all(b <= a + 1e-12 for a, b in zip(tails, tails[1:]))
    for r in rows:
        assert r["tau"] > 0.0
        assert r["iterations"] >= 1
