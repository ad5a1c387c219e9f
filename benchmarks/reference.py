"""Reference computations the benchmark checks the library against.

Nothing here calls ``wickwaves``: the quadrature grid, the
Littlewood-Paley multipliers and the effective-sample-size estimator are
written out from their definitions, so a fault in the library's kernel
cannot cancel against the same fault in the check.

Conventions are those of the library's documentation: a field is
``u(x) = sum_k c(k) exp(2 pi i k.x / L)`` with coefficients stored on the
centred square ``k in [-kmax, kmax]^2``; ``|n|^2 = |k|^2 / L^2``.
"""

from __future__ import annotations

import math

import numpy as np

CHUNK = 32      # fields transformed at a time, to bound the padded temporaries


# ---------------------------------------------------------------------------
# quadrature on a padded grid

def quadrature_size(nk):
    """Smallest even grid on which the rectangle rule integrates every
    quartic product of band-kmax fields exactly (P > 4 kmax)."""
    return 4 * (nk // 2) + 2


def padded_values(coeffs, P):
    """Values of the fields on a P x P grid of the torus.

    The grid starts at the origin, not at -L/2; integrals over the torus do
    not depend on where the grid starts.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    kmax = coeffs.shape[-1] // 2
    idx = np.arange(-kmax, kmax + 1) % P
    big = np.zeros(coeffs.shape[:-2] + (P, P), dtype=np.complex128)
    big[..., idx[:, None], idx[None, :]] = coeffs
    return np.fft.ifft2(big, axes=(-2, -1)) * (P * P)


def moments(coeffs, L, real):
    """(int |u|^2 dx, int |u|^4 dx) per field, by exact quadrature."""
    coeffs = np.asarray(coeffs)
    P = quadrature_size(coeffs.shape[-1])
    cell = (L / P) ** 2
    flat = coeffs.reshape((-1,) + coeffs.shape[-2:])
    m2 = np.empty(len(flat))
    m4 = np.empty(len(flat))
    for lo in range(0, len(flat), CHUNK):
        z = padded_values(flat[lo:lo + CHUNK], P)
        s = z.real * z.real if real else z.real * z.real + z.imag * z.imag
        m2[lo:lo + CHUNK] = s.sum(axis=(-2, -1)) * cell
        m4[lo:lo + CHUNK] = (s * s).sum(axis=(-2, -1)) * cell
    shape = coeffs.shape[:-2]
    return m2.reshape(shape), m4.reshape(shape)


def parseval_l2sq(coeffs, L):
    """int |u|^2 dx = L^2 sum |c(k)|^2."""
    return L * L * np.sum(np.abs(coeffs) ** 2, axis=(-2, -1))


def mode_nsq(nk, L):
    k = np.arange(nk) - nk // 2
    return (k[:, None] ** 2 + k[None, :] ** 2) / (L * L)


def gaussian_quad(coeffs, L, m):
    """(1/2) L^2 sum (m^2 + |n|^2) |c|^2."""
    w = m * m + mode_nsq(coeffs.shape[-1], L)
    return 0.5 * L * L * np.sum(w * np.abs(coeffs) ** 2, axis=(-2, -1))


def wick4_from_moments(m2, m4, a, L, real):
    """int :u^4: dx: u^4 - 6a u^2 + 3a^2 (real), |u|^4 - 4a|u|^2 + 2a^2
    (complex)."""
    if real:
        return m4 - 6.0 * a * m2 + 3.0 * a * a * L * L
    return m4 - 4.0 * a * m2 + 2.0 * a * a * L * L


def virial(coeffs, L, m, q, a, mom=None):
    """x . grad S for the real-field action S = Quad + q int :u^4:.

    Quad is homogeneous of degree 2 and the Wick quartic is a sum of
    degree-4 and degree-2 terms, so
    x . grad S = 2 Quad + q (4 int u^4 - 12 a int u^2).  Under the Gibbs
    measure its mean is the number of real degrees of freedom.
    """
    m2, m4 = moments(coeffs, L, True) if mom is None else mom
    return 2.0 * gaussian_quad(coeffs, L, m) + q * (4.0 * m4 - 12.0 * a * m2)


def active_mask(nk, L, K):
    """Stored modes inside the ball |n| <= K."""
    return mode_nsq(nk, L) <= K * K * (1 + 1e-12)


def stein_terms(coeffs, L, K, m, q, a):
    """(|grad S|^2, Laplacian S) of the real-field action in the packed
    coordinates (c(0); Re c(k), Im c(k) over half the ball), for which
    E|grad S|^2 = E Laplacian S under exp(-S).

    With w = m^2 + |n|^2, g(k) the coefficients of G = 4q (u^3 - 3au) and
    r = w c + g on the ball, |grad S|^2 = V^2 (2 sum |r|^2 - |r(0)|^2).
    The squared basis functions of the packed coordinates sum to 2N - 1 at
    every point (N active modes), so
    Laplacian S = V (2 sum w - w(0)) + 12 q (2N - 1) int (u^2 - a) dx.
    """
    coeffs = np.asarray(coeffs)
    nk = coeffs.shape[-1]
    kmax = nk // 2
    V = L * L
    P = quadrature_size(nk)
    w = m * m + mode_nsq(nk, L)
    ball = active_mask(nk, L, K)
    n_active = int(np.count_nonzero(ball))
    idx = np.arange(-kmax, kmax + 1) % P
    flat = coeffs.reshape((-1, nk, nk))
    grad2 = np.empty(len(flat))
    m2 = np.empty(len(flat))
    for lo in range(0, len(flat), CHUNK):
        c = flat[lo:lo + CHUNK]
        z = padded_values(c, P).real
        m2[lo:lo + CHUNK] = (z * z).sum(axis=(-2, -1)) * (L / P) ** 2
        g = np.fft.fft2(4.0 * q * z * (z * z - 3.0 * a), axes=(-2, -1))
        g = g[..., idx[:, None], idx[None, :]] / (P * P)
        r = np.where(ball, w * c + g, 0.0)
        grad2[lo:lo + CHUNK] = V * V * (
            2.0 * np.sum(np.abs(r) ** 2, axis=(-2, -1))
            - np.abs(r[..., kmax, kmax]) ** 2)
    lap = (V * (2.0 * np.sum(w[ball]) - w[kmax, kmax])
           + 12.0 * q * (2 * n_active - 1) * (m2 - a * V))
    shape = coeffs.shape[:-2]
    return grad2.reshape(shape), lap.reshape(shape)


def nlw_energy(u, ut, L, m, lam, a, mom=None):
    """H = (1/2) int u_t^2 + |D u|^2 + m^2 u^2 + (lam/4) int :u^4:;
    `mom` are the moments of u when already known."""
    m2, m4 = moments(u, L, True) if mom is None else mom
    kinetic = 0.5 * parseval_l2sq(ut, L)
    return kinetic + gaussian_quad(u, L, m) + 0.25 * lam * wick4_from_moments(
        m2, m4, a, L, True)


def nls_energy(u, L, m, lam, a, mom=None):
    """H = int |D u|^2 + m^2 |u|^2 + (lam/2) int :|u|^4:."""
    m2, m4 = moments(u, L, False) if mom is None else mom
    return 2.0 * gaussian_quad(u, L, m) + 0.5 * lam * wick4_from_moments(
        m2, m4, a, L, False)


# ---------------------------------------------------------------------------
# Littlewood-Paley blocks from their defining formula

def smooth_step(t):
    """0 for t <= 0, 1 for t >= 1: f(t) / (f(t) + f(1-t)), f(t) = exp(-1/t)."""
    t = np.asarray(t, dtype=float)

    def f(s):
        out = np.zeros_like(s)
        pos = s > 0
        out[pos] = np.exp(-1.0 / s[pos])
        return out

    return f(t) / (f(t) + f(1.0 - t))


def chi(r):
    """Radial cutoff: 1 for r <= 3/4, 0 for r >= 4/3."""
    return smooth_step((4.0 / 3.0 - np.abs(r)) / (4.0 / 3.0 - 0.75))


def lp_block_count(K):
    """Index of the last dyadic block: the least j with 3/4 * 2^(j+1) >= K."""
    j = 0
    while 0.75 * 2.0 ** (j + 1) < K:
        j += 1
    return j


def sigma(j, r):
    """sigma_{-1}(r) = chi(r); sigma_j(r) = chi(r / 2^(j+1)) - chi(r / 2^j)."""
    if j == -1:
        return chi(r)
    return chi(r / 2.0 ** (j + 1)) - chi(r / 2.0 ** j)


def besov22(coeffs, L, K, s):
    """B^s_{2,2} norm by Parseval:
    (sum_j 4^(js) L^2 sum |sigma_j c|^2)^(1/2)."""
    r = np.sqrt(mode_nsq(coeffs.shape[-1], L))
    total = 0.0
    for j in range(-1, lp_block_count(K) + 1):
        total = total + 4.0 ** (j * s) * parseval_l2sq(sigma(j, r) * coeffs, L)
    return np.sqrt(total)


# ---------------------------------------------------------------------------
# effective sample size

def pooled_ess(x):
    """Multi-chain effective sample size of x[draw, chain].

    Autocorrelations are pooled over chains against the combined
    within/between-chain variance, summed in pairs and cut at the first
    negative pair sum, with the pair sums forced non-increasing (Geyer's
    initial monotone sequence; Geyer 1992, Stat. Sci. 7; Vehtari et al.
    2021, Bayesian Anal. 16).
    """
    x = np.asarray(x, dtype=float)
    n, m = x.shape
    if n < 4:
        raise ValueError("need at least four draws per chain")
    centred = x - x.mean(axis=0)
    spec = np.fft.rfft(centred, 2 * n, axis=0)
    acov = np.fft.irfft(spec * np.conj(spec), 2 * n, axis=0)[:n] / n
    within = float(np.mean(acov[0])) * n / (n - 1.0)
    between = float(np.var(x.mean(axis=0), ddof=1)) if m > 1 else 0.0
    var_plus = (n - 1.0) / n * within + between
    if var_plus <= 0.0:
        return float(n * m)
    rho = 1.0 - (within - acov.mean(axis=1)) / var_plus
    pairs = []
    for t in range(0, n - 1, 2):
        p = rho[t] + rho[t + 1] if t > 0 else 1.0 + rho[1]
        if p < 0.0:
            break
        if pairs and p > pairs[-1]:
            p = pairs[-1]
        pairs.append(p)
    tau = -1.0 + 2.0 * sum(pairs)
    return float(n * m / max(tau, 1.0 / math.log10(n * m)))
