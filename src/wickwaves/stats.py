"""Statistical helpers: two-sample tests, trend tests, autocorrelation.

Thin wrappers around scipy.stats where possible; the multivariate energy
distance and the small-sample exact Mann-Kendall tail are implemented here.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import stats as sps


def ks_two_sample(x, y):
    """Two-sample Kolmogorov-Smirnov test; returns (statistic, p_value)."""
    res = sps.ks_2samp(np.asarray(x), np.asarray(y), method="auto")
    return float(res.statistic), float(res.pvalue)


def ks_uniformity(p_values):
    """KS test of a collection of p-values against Uniform[0, 1]."""
    res = sps.kstest(np.asarray(p_values, dtype=float), "uniform")
    return float(res.statistic), float(res.pvalue)


def energy_distance(x, y):
    """Energy distance between multivariate samples, rows = observations.

    E = 2 E|X-Y| - E|X-X'| - E|Y-Y'| with Euclidean norms; nonnegative,
    zero iff the distributions coincide.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[1] != y.shape[1]:
        raise ValueError("samples must share the coordinate dimension")

    def mean_dist(a, b):
        d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
        return d.mean()

    return float(2.0 * mean_dist(x, y) - mean_dist(x, x) - mean_dist(y, y))


def _mk_s(values):
    v = np.asarray(values, dtype=float)
    s = 0
    for i in range(len(v) - 1):
        s += int(np.sum(np.sign(v[i + 1:] - v[i])))
    return s


def mann_kendall(values, alpha=0.05):
    """Mann-Kendall trend test.

    Returns a dict with the S statistic, a two-sided p-value, and the trend
    label in {"increasing", "decreasing", "no trend"} at the given alpha.
    For short sequences (n <= 8) the exact permutation null is used; the
    normal approximation with tie correction otherwise.
    """
    v = np.asarray(values, dtype=float)
    n = len(v)
    if n < 2:
        return {"n": n, "s": 0, "p_value": 1.0, "trend": "no trend"}
    s = _mk_s(v)
    if n <= 8:
        # exact null distribution of S over all orderings
        null = np.array([_mk_s(p) for p in itertools.permutations(range(n))])
        p = float(np.mean(np.abs(null) >= abs(s)))
    else:
        _, counts = np.unique(v, return_counts=True)
        var = (n * (n - 1) * (2 * n + 5)
               - np.sum(counts * (counts - 1) * (2 * counts + 5))) / 18.0
        if var <= 0:
            p = 1.0
        else:
            z = (s - np.sign(s)) / math.sqrt(var)
            p = float(2.0 * sps.norm.sf(abs(z)))
    if p < alpha and s > 0:
        trend = "increasing"
    elif p < alpha and s < 0:
        trend = "decreasing"
    else:
        trend = "no trend"
    return {"n": n, "s": int(s), "p_value": p, "trend": trend}


def integrated_autocorr_time(x, c=6.0):
    """Integrated autocorrelation time by Sokal's adaptive windowing.

    Returns tau >= 0.5 such that the effective sample size is n / (2 tau).
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 4:
        return 0.5
    x = x - x.mean()
    var = np.dot(x, x) / n
    if var == 0:
        return 0.5
    # FFT autocorrelation
    m = int(2 ** math.ceil(math.log2(2 * n)))
    f = np.fft.rfft(x, m)
    acf = np.fft.irfft(f * np.conj(f), m)[:n].real / (n * var)
    tau = 0.5
    for w in range(1, n):
        tau += acf[w]
        if w >= c * tau:
            break
    return float(max(tau, 0.5))
