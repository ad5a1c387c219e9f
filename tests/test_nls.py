import math
import warnings

import numpy as np
import pytest

from wickwaves import nls
from wickwaves.gaussian import (RngStream, sample_complex_gff_coeffs,
                                wick_power_coeffs)
from wickwaves.io import NumericalGateError
from wickwaves.nls import (
    MIDPOINT_SUBSTEP,
    PHASE_SUBSTEP,
    NlsConfig,
    NlsState,
    dispersive_audit,
    evolve,
    holder_quotients,
    mass,
    nls_linear_propagate,
    split_step,
)
from wickwaves.torus import FourierField, SpectralPlan, TorusGrid


@pytest.fixture
def nls_grid():
    return TorusGrid(2.0, 32, 3.0)


def random_state(nls_grid, seed, amp=1.0):
    u = amp * sample_complex_gff_coeffs(nls_grid, 1.0, RngStream(seed, 0))
    return NlsState(nls_grid, u)


def test_linear_unitarity(nls_grid):
    st = random_state(nls_grid, 1)
    out = nls_linear_propagate(st, 1.0, 2.31)
    assert float(mass(out)) == pytest.approx(float(mass(st)), rel=1e-14)
    back = nls_linear_propagate(out, 1.0, -2.31)
    assert np.max(np.abs(back.u - st.u)) < 1e-13


def test_midpoint_mass_conservation(nls_grid):
    st = random_state(nls_grid, 2)
    cfg = NlsConfig(1.0, 1.0, 0.005, wick_a=0.4, substep=MIDPOINT_SUBSTEP)
    m0 = float(mass(st))
    out = evolve(st, cfg, 1.0)
    assert abs(float(mass(out)) - m0) / m0 < 1e-10


def test_midpoint_second_order(nls_grid):
    st = random_state(nls_grid, 3, amp=0.5)
    T = 0.25
    ref = evolve(st, NlsConfig(1.0, 1.0, T / 2048, wick_a=0.3,
                               substep=MIDPOINT_SUBSTEP), T)
    errs = []
    for n in (32, 64, 128):
        out = evolve(st, NlsConfig(1.0, 1.0, T / n, wick_a=0.3,
                                   substep=MIDPOINT_SUBSTEP), T)
        errs.append(np.max(np.abs(out.u - ref.u)))
    r1, r2 = errs[0] / errs[1], errs[1] / errs[2]
    assert abs(r1 - 4.0) < 0.6
    assert abs(r2 - 4.0) < 0.6


def test_midpoint_reversibility(nls_grid):
    st = random_state(nls_grid, 4)
    cfg = NlsConfig(1.0, 1.0, 0.01, wick_a=0.4, substep=MIDPOINT_SUBSTEP)
    fwd = st
    for _ in range(10):
        fwd = split_step(fwd, cfg)
    back = fwd
    for _ in range(10):
        back = split_step(back, cfg, dt=-cfg.dt)
    scale = np.max(np.abs(st.u))
    assert np.max(np.abs(back.u - st.u)) / scale < 1e-10


def _fixed_point_kick(grid, coeffs, lam, tau, a):
    """The midpoint kick iterated on the whole batch until every update is
    at most 1e-15 of its member's norm."""
    norm = np.sqrt(np.sum(np.abs(coeffs) ** 2, axis=(-2, -1)))
    new = coeffs
    for _ in range(200):
        nxt = coeffs - 1j * lam * tau * wick_power_coeffs(
            grid, 0.5 * (coeffs + new), 3, a, real=False)
        delta = np.sqrt(np.sum(np.abs(nxt - new) ** 2, axis=(-2, -1)))
        new = nxt
        if np.all(delta <= 1e-15 * norm):
            return new
    raise AssertionError("reference fixed point did not converge")


def test_midpoint_kick_converges(nls_grid, monkeypatch):
    # each kick stops at an update of 1e-13 of the member's norm; three
    # steps (six kicks) stay within 1e-13 of the fixed point, member by
    # member, in the largest coefficient
    st = NlsState(nls_grid, sample_complex_gff_coeffs(
        nls_grid, 1.0, RngStream(8, 0), size=4))
    cfg = NlsConfig(1.0, 1.0, 0.01, wick_a=0.4, substep=MIDPOINT_SUBSTEP)
    out = st
    for _ in range(3):
        out = split_step(out, cfg)
    monkeypatch.setattr(nls, "_midpoint_kick", _fixed_point_kick)
    ref = st
    for _ in range(3):
        ref = split_step(ref, cfg)
    err = np.max(np.abs(out.u - ref.u), axis=(-2, -1))
    assert np.all(err <= 1e-13 * np.max(np.abs(ref.u), axis=(-2, -1)))


def test_midpoint_kick_raises_when_not_converged(nls_grid):
    u = random_state(nls_grid, 9).u
    with pytest.raises(NumericalGateError, match="not converged"):
        nls._midpoint_kick(nls_grid, u, 1.0, 0.005, 0.4, max_iter=2)


def test_midpoint_kick_stops_an_overflowing_member_at_once(nls_grid,
                                                          monkeypatch):
    # one member of 19 scaled by 1e110, whose cubic overflows; the kick
    # raises at the first non-finite update, without a numpy warning
    u = sample_complex_gff_coeffs(nls_grid, 1.0, RngStream(10, 0), size=19)
    u[7] *= 1e110
    cubics = []

    def counted(*args, **kwargs):
        cubics.append(1)
        return wick_power_coeffs(*args, **kwargs)

    monkeypatch.setattr(nls, "wick_power_coeffs", counted)
    cfg = NlsConfig(1.0, 1.0, 0.01, substep=MIDPOINT_SUBSTEP)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalGateError, match="non-finite"):
            split_step(NlsState(nls_grid, u), cfg)
    # 1 iteration here, against 60 without the first-non-finite stop
    assert len(cubics) < 20


def test_midpoint_kick_solves_a_member_the_plain_iteration_did_not(nls_grid):
    # the member scaled by 3 of the failed-group test: iterating
    # u' = u - i lam tau P N(w) from u did not reach 1e-13 in 60 updates
    u = 3.0 * sample_complex_gff_coeffs(nls_grid, 1.0, RngStream(9, 0),
                                        size=19)[0]
    lam, tau, a = 1.0, 0.005, 0.4
    new = nls._midpoint_kick(nls_grid, u, lam, tau, a)
    residual = new - u + 1j * lam * tau * wick_power_coeffs(
        nls_grid, 0.5 * (u + new), 3, a, real=False)
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(u)


def test_midpoint_steps_cost_at_most_085_of_the_plain_iteration(
        nls_grid, monkeypatch):
    # member-cubics (one per member per complex padded transform pair) of
    # three midpoint steps of 8 members: 643 for the plain iteration from
    # u, 492 with the mean-field shift and the phase-kick start
    u = sample_complex_gff_coeffs(nls_grid, 1.0, RngStream(8, 0), size=8)
    cfg = NlsConfig(1.0, 1.0, 0.01, wick_a=0.4, substep=MIDPOINT_SUBSTEP)
    members = []
    plain = SpectralPlan.round_trip

    def counted(self, values, *args, **kwargs):
        members.append(math.prod(values.shape[:-2]))
        return plain(self, values, *args, **kwargs)

    monkeypatch.setattr(SpectralPlan, "round_trip", counted)
    st = NlsState(nls_grid, u)
    for _ in range(3):
        st = split_step(st, cfg)
    assert sum(members) <= 0.85 * 643


def test_phase_kick_of_a_member_does_not_depend_on_its_batch(nls_grid):
    # 32 members are 373 KB of samples and one is 11.7 KB, on either side
    # of the 256 KiB from which numpy's temporary elision swaps the
    # operands of `z * np.exp(...)`, which moves the product's last bit
    u = sample_complex_gff_coeffs(nls_grid, 1.0, RngStream(7, 0), size=32)
    batch = nls._phase_kick(nls_grid, u, 1.0, 0.005, 0.4)
    for i in (0, 31):
        alone = nls._phase_kick(nls_grid, u[i], 1.0, 0.005, 0.4)
        assert np.array_equal(alone, batch[i])


def test_phase_substep_smooth_data(nls_grid):
    # on data far below the band limit the pointwise phase kick is exact
    grid = nls_grid
    u = np.zeros((grid.nk,) * 2, np.complex128)
    u[grid.kmax, grid.kmax] = 0.5
    u[grid.kmax + 1, grid.kmax] = 0.1
    st = NlsState(grid, u)
    cfg = NlsConfig(1.0, 1.0, 0.002, wick_a=0.2, substep=PHASE_SUBSTEP)
    m0 = float(mass(st))
    out = evolve(st, cfg, 0.5)
    assert abs(float(mass(out)) - m0) / m0 < 1e-6


def test_lambda_zero_is_linear(nls_grid):
    st = random_state(nls_grid, 5)
    cfg = NlsConfig(1.0, 0.0, 0.01)
    out = evolve(st, cfg, 0.37)
    lin = nls_linear_propagate(st, 1.0, 0.37)
    assert np.max(np.abs(out.u - lin.u)) < 1e-12


def test_dispersive_audit_bounded(nls_grid):
    f = FourierField(nls_grid,
                     sample_complex_gff_coeffs(nls_grid, 1.0,
                                               RngStream(6, 0)),
                     real=False)
    rep = dispersive_audit(f, np.linspace(0.0, 2.0, 21), s=-1.0,
                           p=2.0, q=2.0)
    assert rep["max_ratio"] > 0.0
    lo, hi = rep["slope_ci"]
    assert lo <= 0.0 <= hi or abs(rep["slope"]) < 1e-6


def test_holder_quotients_finite(nls_grid):
    st = random_state(nls_grid, 7)
    cfg = NlsConfig(1.0, 1.0, 0.01, wick_a=0.3, substep=MIDPOINT_SUBSTEP)
    times = list(np.linspace(0.0, 0.5, 11))
    _, recs = evolve(st, cfg, 0.5, record_times=times)
    q = holder_quotients([t for t, _ in recs],
                         [s.u for _, s in recs], nls_grid, alpha=0.25)
    assert np.isfinite(q) and q > 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        NlsConfig(m=-1.0)
    with pytest.raises(ValueError):
        NlsConfig(substep="bogus")
