import numpy as np
import pytest
import scipy.stats

from wickwaves.stats import (
    energy_distance,
    integrated_autocorr_time,
    ks_two_sample,
    ks_uniformity,
    mann_kendall,
)


def test_ks_two_sample_same_distribution():
    gen = np.random.default_rng(0)
    x = gen.standard_normal(2000)
    y = gen.standard_normal(2000)
    stat, p = ks_two_sample(x, y)
    assert p > 0.01
    assert 0.0 <= stat <= 1.0


def test_ks_two_sample_detects_shift():
    gen = np.random.default_rng(1)
    x = gen.standard_normal(2000)
    y = gen.standard_normal(2000) + 0.5
    _, p = ks_two_sample(x, y)
    assert p < 1e-6


def test_ks_uniformity():
    gen = np.random.default_rng(2)
    _, p_good = ks_uniformity(gen.uniform(size=500))
    _, p_bad = ks_uniformity(gen.uniform(size=500) ** 3)
    assert p_good > 0.01
    assert p_bad < 1e-6


def test_energy_distance_properties():
    gen = np.random.default_rng(3)
    x = gen.standard_normal((400, 3))
    y = gen.standard_normal((400, 3))
    z = gen.standard_normal((400, 3)) + 2.0
    near = energy_distance(x, y)
    far = energy_distance(x, z)
    assert near >= 0.0
    assert far > 10 * max(near, 1e-12)


def test_energy_distance_1d_consistent():
    gen = np.random.default_rng(4)
    x = gen.standard_normal(300)
    y = gen.standard_normal(300) + 1.0
    d1 = scipy.stats.energy_distance(x, y)
    # scipy's energy_distance is the square root of the E-statistic
    d2 = energy_distance(x[:, None], y[:, None])
    assert d1 == pytest.approx(np.sqrt(d2), rel=1e-8)


def test_mann_kendall_trends():
    up = mann_kendall([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    down = mann_kendall([7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
    flat = mann_kendall([1.0, 3.0, 2.0, 4.0, 1.5, 3.5])
    assert up["trend"] == "increasing"
    assert down["trend"] == "decreasing"
    assert flat["trend"] == "no trend"
    assert up["p_value"] < 0.05 < flat["p_value"]


def test_mann_kendall_degenerate():
    out = mann_kendall([1.0, 0.5])
    assert out["trend"] == "no trend"
    assert out["p_value"] == 1.0


def test_autocorr_iid():
    gen = np.random.default_rng(5)
    x = gen.standard_normal(20000)
    tau = integrated_autocorr_time(x)
    assert 0.4 < tau < 0.7


def test_autocorr_ar1():
    gen = np.random.default_rng(6)
    rho = 0.9
    n = 50000
    x = np.empty(n)
    x[0] = 0.0
    eps = gen.standard_normal(n)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + eps[i]
    tau = integrated_autocorr_time(x)
    # exact tau for AR(1): (1+rho)/(2(1-rho)) = 9.5
    assert 7.0 < tau < 12.0
