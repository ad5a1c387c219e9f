import numpy as np
import pytest

from wickwaves.besov import (
    AUDIT_KINDS,
    BesovParams,
    POLY,
    WeightSpec,
    _effective_weight,
    besov_norm,
    besov_norm_array,
    check_audit,
    inequality_audit,
    load_calibration,
    random_band_limited,
)
from wickwaves.gaussian import RngStream, sample_gff_coeffs
from wickwaves.torus import (
    FourierField,
    LPPartition,
    TorusGrid,
    from_physical_array,
    hermitian_symmetrize,
    lp_multiplier,
    to_physical_array,
)


def random_field(grid, gen):
    c = gen.standard_normal((grid.nk, grid.nk)) \
        + 1j * gen.standard_normal((grid.nk, grid.nk))
    c = hermitian_symmetrize(np.where(grid.ball_mask(), c, 0.0))
    return FourierField(grid, c, real=True)


def test_norm_homogeneity_and_triangle(medium_grid, gen):
    f = random_field(medium_grid, gen)
    g = random_field(medium_grid, gen)
    params = BesovParams(0.5, 2.0, 2.0)
    nf = besov_norm(f, params)
    ng = besov_norm(g, params)
    assert besov_norm(FourierField(medium_grid, 3.0 * f.coeffs, True),
                      params) == pytest.approx(3.0 * nf, rel=1e-12)
    nsum = besov_norm(FourierField(medium_grid, f.coeffs + g.coeffs, True),
                      params)
    assert nsum <= nf + ng + 1e-12
    assert besov_norm(FourierField(
        medium_grid, np.zeros_like(f.coeffs), True), params) == 0.0


def test_b222_matches_sobolev(medium_grid, gen):
    # B^s_{2,2} with the flat weight is equivalent to H^s; on a single
    # LP block the two agree up to the sigma overlap, so compare s=0
    # where both collapse to L^2.
    f = random_field(medium_grid, gen)
    b = besov_norm(f, BesovParams(0.0, 2.0, 2.0))
    h = medium_grid.L * np.linalg.norm(f.coeffs)
    assert b == pytest.approx(h, rel=0.2)


def test_norm_monotone_in_smoothness(medium_grid, gen):
    f = random_field(medium_grid, gen)
    norms = [besov_norm(f, BesovParams(s, 2.0, 2.0))
             for s in (0.0, 0.5, 1.0)]
    assert norms[0] < norms[1] < norms[2]


def test_weight_reduces_norm(medium_grid, gen):
    f = random_field(medium_grid, gen)
    params = BesovParams(0.5, 2.0, 2.0)
    flat = besov_norm(f, params)
    poly = besov_norm(f, params, WeightSpec(2.0, POLY))
    assert 0.0 < poly < flat


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightSpec(1.0, "bogus")


def test_batched_matches_single(medium_grid, gen):
    c = np.stack([random_field(medium_grid, gen).coeffs for _ in range(4)])
    params = BesovParams(0.25, 4.0, 3.0)
    batch = besov_norm_array(medium_grid, c, params, WeightSpec())
    for i in range(4):
        single = besov_norm(FourierField(medium_grid, c[i], True), params)
        assert batch[i] == pytest.approx(single, rel=1e-12)


def test_random_band_limited_in_ball(medium_grid, gen):
    f = random_band_limited(medium_grid, gen)
    assert np.all(np.where(medium_grid.ball_mask(), 0.0, np.abs(f)) == 0.0)


def test_audit_reproducible():
    a = inequality_audit("duality", 10, 3)
    b = inequality_audit("duality", 10, 3)
    assert a.max_ratio == b.max_ratio
    assert a.rows == b.rows


def test_audit_unknown_kind():
    with pytest.raises(ValueError):
        inequality_audit("nonsense", 5, 0)


def test_all_audits_within_calibration():
    cal = load_calibration()
    assert set(cal["audit_constants"]) == set(AUDIT_KINDS)
    for kind in AUDIT_KINDS:
        rep = inequality_audit(kind, 200, 2024)
        ok, bound = check_audit(rep, cal)
        assert ok, f"{kind}: ratio {rep.max_ratio} exceeds bound {bound}"
        assert rep.max_ratio > 0.0


def _reference_besov(grid, coeffs, params, w, periodic_extension):
    """Each LP block evaluated on the centred grid by a full complex ifft2,
    then the same weighted L^p and l^r."""
    part = LPPartition(grid.K)
    M = grid.M
    k = grid.axes_k()
    phase = (-1.0) ** (k[:, None] + k[None, :])
    idx = k % M
    weight = (_effective_weight(grid, w, params.p, True)
              if periodic_extension else w.values(grid))
    vals = []
    for j in part.blocks():
        big = np.zeros(coeffs.shape[:-2] + (M, M), dtype=complex)
        big[..., idx[:, None], idx] = (
            coeffs * part.sigma(j, np.sqrt(grid.mode_nsq())) * phase)
        wu = np.abs(np.fft.ifft2(big) * M**2) * weight
        if np.isinf(params.p):
            norm = np.max(wu, axis=(-2, -1))
        else:
            norm = (grid.h**2 * np.sum(wu**params.p, axis=(-2, -1))) \
                ** (1.0 / params.p)
        vals.append(2.0 ** (j * params.s) * norm)
    vals = np.array(vals)
    if np.isinf(params.r):
        return np.max(vals, axis=0)
    return np.sum(vals**params.r, axis=0) ** (1.0 / params.r)


@pytest.mark.parametrize("s", [-0.1, -1.1])
@pytest.mark.parametrize("p, r", [(2, 2), (4, 4), (np.inf, np.inf),
                                  (2, np.inf)])
@pytest.mark.parametrize("weight, periodic", [
    (WeightSpec(), False), (WeightSpec(3.0, POLY), False),
    (WeightSpec(3.0, POLY), True)])
@pytest.mark.parametrize("real", [True, False])
def test_besov_norm_matches_ifft2_reference(medium_grid, gen, s, p, r,
                                            weight, periodic, real):
    grid = medium_grid
    shape = (3, grid.nk, grid.nk)
    c = np.where(grid.ball_mask(), gen.standard_normal(shape)
                 + 1j * gen.standard_normal(shape), 0.0)
    if real:
        c = hermitian_symmetrize(c)
    params = BesovParams(s, p, r)
    got = besov_norm_array(grid, c, params, weight,
                           periodic_extension=periodic)
    want = _reference_besov(grid, c, params, weight, periodic)
    assert np.max(np.abs(got - want) / want) <= 1e-12


def test_cached_weight_and_multiplier_are_read_only(medium_grid):
    part = LPPartition(medium_grid.K)
    for arr in (_effective_weight(medium_grid, WeightSpec(3.0, POLY), 2.0,
                                  True), lp_multiplier(medium_grid, part, 0)):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_periodic_weight_rejects_slow_decay():
    # alpha = 1.5, p = 2: rho^p is summable, but the 1e-12 tail would need
    # far more than the translate cap, so the weight must not be built
    grid = TorusGrid(4.0, 18, 1.0)
    c = np.zeros((grid.nk, grid.nk), dtype=complex)
    with pytest.raises(ValueError, match="within 20000 translates"):
        besov_norm_array(grid, c, BesovParams(-0.1, 2.0, 2.0),
                         WeightSpec(1.5, POLY), periodic_extension=True)


@pytest.mark.parametrize("real", [True, False])
def test_physical_array_round_trip_and_point_values(medium_grid, gen, real):
    grid = medium_grid
    shape = (3, grid.nk, grid.nk)
    c = np.where(grid.ball_mask(), gen.standard_normal(shape)
                 + 1j * gen.standard_normal(shape), 0.0)
    if real:
        c = hermitian_symmetrize(c)
    u = to_physical_array(grid, c)
    x1, x2 = grid.grid_x()
    n1, n2 = grid.mode_n()
    scale = np.max(np.abs(c))
    for j in [(0, 0), (5, 17), (grid.M - 1, grid.M // 2), (grid.M // 2, 3)]:
        direct = np.sum(c * np.exp(2j * np.pi * (n1 * x1[j] + n2 * x2[j])),
                        axis=(-2, -1))
        assert np.max(np.abs(u[:, j[0], j[1]] - direct)) <= 1e-12 * scale
    back = from_physical_array(grid, u, real=real)
    assert np.max(np.abs(back - c)) <= 1e-12 * scale
    # real=True keeps the coefficients of the real part
    back_re = from_physical_array(grid, u, real=True)
    assert np.max(np.abs(back_re - hermitian_symmetrize(c))) <= 1e-12 * scale
