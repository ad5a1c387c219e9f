import math

import numpy as np
import pytest

from wickwaves.gaussian import (
    WICK_TABLE,
    RngStream,
    gff_covariance,
    pairing,
    sample_complex_gff_coeffs,
    sample_gff_coeffs,
    sample_white_noise_coeffs,
    wick_constant_continuum,
    wick_constant_difference,
    wick_constant_lattice,
    wick_power,
    wick_power_coeffs,
)
from wickwaves.torus import FourierField, TorusGrid


def test_rng_stream_reproducible():
    a = RngStream(42, 3).generator().standard_normal(8)
    b = RngStream(42, 3).generator().standard_normal(8)
    c = RngStream(42, 4).generator().standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_wick_constant_pins():
    assert wick_constant_lattice(1.0, 1.0, 1.0) == pytest.approx(3.0, abs=0)
    assert wick_constant_continuum(1.0, 1.0) == pytest.approx(
        math.pi * math.log(2.0), abs=1e-10)


def test_wick_constant_monotonicity():
    for m in (0.5, 1.0, 2.0):
        vals = [wick_constant_lattice(2.0, K, m) for K in (1, 2, 4, 8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    for K in (1.0, 4.0):
        vals = [wick_constant_lattice(2.0, K, m) for m in (0.5, 1.0, 2.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_wick_constant_difference_decay():
    # |a_lattice - a_continuum| ~ 1/L
    diffs = [abs(wick_constant_difference(L, 8.0, 1.0))
             for L in (2.0, 4.0, 8.0, 16.0)]
    assert all(b < a for a, b in zip(diffs, diffs[1:]))


def test_gff_coefficient_variance(small_grid):
    grid = small_grid
    n = 40000
    c = sample_gff_coeffs(grid, 1.0, RngStream(7, 0), size=n)
    osq = 1.0 + grid.mode_nsq()
    target = 1.0 / (grid.volume * osq)
    var = np.mean(np.abs(c) ** 2, axis=0)
    mask = grid.ball_mask()
    se = target / math.sqrt(n)
    assert np.all(np.abs(var[mask] - target[mask]) < 4.5 * se[mask])
    assert np.all(var[~mask] == 0.0)


def test_white_noise_pairing_variance(small_grid):
    grid = small_grid
    n = 40000
    c = sample_white_noise_coeffs(grid, RngStream(8, 0), size=n)
    # unit-L^2 test field: pairing variance must be 1
    f = np.zeros((grid.nk, grid.nk), np.complex128)
    f[grid.kmax, grid.kmax] = 1.0 / grid.L
    pair = pairing(c, f, grid.L)
    assert abs(np.var(pair.real) - 1.0) < 5.0 / math.sqrt(n)


def test_complex_gff_variance(small_grid):
    grid = small_grid
    n = 40000
    c = sample_complex_gff_coeffs(grid, 1.0, RngStream(9, 0), size=n)
    osq = 1.0 + grid.mode_nsq()
    target = 1.0 / (grid.volume * osq)
    mask = grid.ball_mask()
    var = np.mean(np.abs(c) ** 2, axis=0)
    se = target / math.sqrt(n)
    assert np.all(np.abs(var[mask] - target[mask]) < 4.5 * se[mask])


def test_gff_covariance_positive(small_grid):
    g0 = gff_covariance(small_grid, 1.0, (0.0, 0.0))
    g1 = gff_covariance(small_grid, 1.0, (0.25, 0.0))
    assert g0 > g1 > 0.0


# The expanded Wick polynomials by degree, in u and s = u^2 or |u|^2
EXPANDED = {
    True: {2: lambda u, s, a: u**2 - a,
           3: lambda u, s, a: u**3 - 3 * a * u,
           4: lambda u, s, a: u**4 - 6 * a * u**2 + 3 * a**2},
    False: {2: lambda u, s, a: s - a,
            3: lambda u, s, a: s * u - 2 * a * u,
            4: lambda u, s, a: s**2 - 4 * a * s + 2 * a**2},
}


@pytest.mark.parametrize("real", [True, False])
def test_wick_table_entries_and_gradient(gen, real):
    a, h = 1.3, 1e-6
    u = 2.0 * gen.standard_normal(200)
    if not real:
        u = u + 2j * gen.standard_normal(200)
    s = np.abs(u) ** 2
    col = WICK_TABLE[real]
    for j, poly in EXPANDED[real].items():
        want = poly(u, s, a)
        got = col.density(u.copy(), j, a)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.max(np.abs(want)))
        planes = np.empty((2,) + u.shape)
        assert np.array_equal(col.density(u.copy(), j, a, planes), got)

    # k times the cubic is d/du (real) or d/d(conj u) (complex) of the quartic
    def quartic(v):
        return col.density(v, 4, a)

    grad = (quartic(u + h) - quartic(u - h)) / (2 * h)
    if not real:
        grad = 0.5 * (grad + 1j * (quartic(u + 1j * h)
                                   - quartic(u - 1j * h)) / (2 * h))
    cubic = col.k * col.density(u, 3, a)
    np.testing.assert_allclose(grad, cubic, rtol=0,
                               atol=1e-7 * np.max(np.abs(cubic)))


def test_complex_wick_powers_are_centred():
    # E :|u|^2: = E :|u|^4: = 0 for the complex GFF with a = E|u(0)|^2;
    # the zero mode of the Wick power is its space average
    grid = TorusGrid(2.0, 32, 2.0)
    a = wick_constant_lattice(grid.L, grid.K, 1.0)
    c = sample_complex_gff_coeffs(grid, 1.0, RngStream(21, 0), size=2000)
    for j in (2, 4):
        zero = wick_power_coeffs(grid, c, j, a, real=False)[
            :, grid.kmax, grid.kmax]
        se = np.std(zero) / math.sqrt(len(zero))
        assert abs(np.mean(zero)) < 4.0 * se
    one = FourierField(grid, c[0], real=False)
    assert np.array_equal(wick_power(one, 2, a).coeffs,
                          wick_power_coeffs(grid, c[0], 2, a, real=False))


def test_wick_power_hermite_identities(small_grid):
    grid = small_grid
    z = sample_gff_coeffs(grid, 1.0, RngStream(11, 0))
    a = 1.3
    from wickwaves.torus import to_physical_array, dealiased_power

    f = FourierField(grid, z, real=True)
    w2 = wick_power(f, 2, a, output_radius=2 * grid.K)
    direct = dealiased_power(f, 2, output_radius=2 * grid.K).coeffs.copy()
    direct[grid.kmax, grid.kmax] -= a
    assert np.max(np.abs(w2.coeffs - direct)) < 1e-12
