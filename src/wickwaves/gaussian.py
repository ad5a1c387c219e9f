"""Gaussian free field and white noise sampling, Wick constants and powers.

The truncated GFF on the torus is realized mode-by-mode as

    c(n) = g_n / (L * sqrt(m^2 + |n|^2)),   g_{-n} = conj(g_n),

with independent standard complex Gaussians g_n (E|g_n|^2 = 1) and a real
standard Gaussian at n = 0.  Under the volume-L^2 torus convention this
gives covariance <f, (m^2 - Delta)^{-1} g> and pointwise variance

    E[Z(0)^2] = (1/L^2) sum_{|n|<=K} 1 / (m^2 + |n|^2),

which is exactly the lattice Wick constant.  White noise uses c(n) = g_n/L.
Every Wick density, force and constant in the package reads `WICK_TABLE`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .torus import FourierField, spectral_plan


@dataclass(frozen=True)
class RngStream:
    """Counter-based RNG stream: identical (seed, id) -> identical draws."""

    master_seed: int
    stream_id: int = 0
    algorithm: str = "philox"

    def generator(self):
        if self.algorithm != "philox":
            raise ValueError("only the philox counter-based generator is supported")
        return np.random.Generator(
            np.random.Philox(key=np.array([self.master_seed, self.stream_id],
                                          dtype=np.uint64))
        )

    def child(self, offset):
        """Independent stream derived by shifting the stream id."""
        return RngStream(self.master_seed, self.stream_id + 1 + offset,
                         self.algorithm)


def _canonical_half_mask(grid):
    """Modes on the canonical half-lattice: k1 > 0, or k1 == 0 and k2 > 0."""
    k = grid.axes_k()
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    return ((k1 > 0) | ((k1 == 0) & (k2 > 0))) & grid.ball_mask()


def _hermitian_gaussian_coeffs(grid, gen, size):
    """Hermitian-symmetric array of unit complex Gaussians, real g_0.

    Conjugate-pair modes share one complex Gaussian g = (x + iy)/sqrt(2)
    so that E|g|^2 = 1; the zero mode is a real N(0, 1).
    """
    nk = grid.nk
    shape = (size, nk, nk) if size is not None else (nk, nk)
    xs = gen.standard_normal(shape)
    ys = gen.standard_normal(shape)
    g = (xs + 1j * ys) / np.sqrt(2.0)
    half = _canonical_half_mask(grid)
    out = np.zeros(shape, dtype=np.complex128)
    out[..., half] = g[..., half]
    out += np.conj(out[..., ::-1, ::-1])
    out[..., grid.kmax, grid.kmax] = xs[..., grid.kmax, grid.kmax]
    return out


def sample_gff_coeffs(grid, m, rng: RngStream, size=None):
    """Batched GFF coefficient arrays, shape (size, nk, nk) or (nk, nk)."""
    if m <= 0:
        raise ValueError("mass m must be positive (zero mode would diverge)")
    gen = rng.generator()
    g = _hermitian_gaussian_coeffs(grid, gen, size)
    omega = np.sqrt(m**2 + grid.mode_nsq())
    c = g / (grid.L * omega)
    return np.where(grid.ball_mask(), c, 0.0)


def sample_white_noise_coeffs(grid, rng: RngStream, size=None):
    gen = rng.generator()
    g = _hermitian_gaussian_coeffs(grid, gen, size)
    return np.where(grid.ball_mask(), g / grid.L, 0.0)


def sample_complex_gff_coeffs(grid, m, rng: RngStream, size=None):
    """Complex GFF: all modes independent, E|c(n)|^2 = 1/(L^2 (m^2+|n|^2))."""
    if m <= 0:
        raise ValueError("mass m must be positive")
    gen = rng.generator()
    nk = grid.nk
    shape = (size, nk, nk) if size is not None else (nk, nk)
    g = (gen.standard_normal(shape) + 1j * gen.standard_normal(shape)) / np.sqrt(2.0)
    omega = np.sqrt(m**2 + grid.mode_nsq())
    return np.where(grid.ball_mask(), g / (grid.L * omega), 0.0)


# ---------------------------------------------------------------------------
# Wick constants

def wick_constant_lattice(L, K, m):
    """a_{N,L} = (1/L^2) sum over lattice modes |n| <= K of 1/(m^2+|n|^2)."""
    if K < 0 or m <= 0:
        raise ValueError("need K >= 0 and m > 0")
    kmax = int(np.floor(K * L + 1e-9))
    k = np.arange(-kmax, kmax + 1)
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    nsq = (k1**2 + k2**2) / L**2
    mask = nsq <= K**2 * (1 + 1e-12)
    return float(np.sum(1.0 / (m**2 + nsq[mask])) / L**2)


def wick_constant_continuum(K, m):
    """a_N = int_{|y|<=K} dy/(m^2+|y|^2) = pi * log((m^2+K^2)/m^2)."""
    if K < 0 or m <= 0:
        raise ValueError("need K >= 0 and m > 0")
    return float(np.pi * np.log((m**2 + K**2) / m**2))


def wick_constant_difference(L, K, m):
    """r-like difference a_{N,L} - a_N at finite truncation."""
    return wick_constant_lattice(L, K, m) - wick_constant_continuum(K, m)


def wick_constant_difference_bound(L, K, m):
    """Certified O(1/K + 1/L) bound on |a_{N,L} - a_N|.

    Two terms: cells straddling the boundary circle (each charged its full
    lattice value) and the interior Riemann-sum discrepancy, charged the
    per-cell gradient bound (1/L) / (m^2 + |n|^2)^2 per mode.  Both decay
    like 1/L at fixed K, while the exact signed difference often decays
    faster thanks to symmetry cancellations; the bound is what carries the
    1/L rate.
    """
    if K <= 0 or m <= 0 or L <= 0:
        raise ValueError("need K, m, L > 0")
    kmax = int(np.floor(K * L + 1e-9))
    k = np.arange(-kmax, kmax + 1)
    k1, k2 = np.meshgrid(k, k, indexing="ij")
    nsq = (k1**2 + k2**2) / L**2
    inside = nsq <= K**2 * (1 + 1e-12)
    # cells n + [-1/2L, 1/2L]^2 that straddle the circle |n| = K
    half_diag = np.sqrt(0.5) / L
    r = np.sqrt(nsq)
    straddle = inside & (r >= K - half_diag)
    boundary = float(np.sum(1.0 / (m**2 + nsq[straddle])) / L**2)
    interior = float(np.sum(1.0 / (m**2 + nsq[inside]) ** 2) / L**3)
    return boundary + interior


def gff_covariance(grid, m, dx):
    """Exact covariance E[Z(x)Z(y)] of the truncated GFF, dx = x - y.

    G(dx) = (1/L^2) sum_{|n|<=K} cos(2 pi n . dx) / (m^2 + |n|^2).
    """
    n1, n2 = grid.mode_n()
    nsq = grid.mode_nsq()
    mask = grid.ball_mask()
    phase = np.cos(2 * np.pi * (n1 * dx[0] + n2 * dx[1]))
    return float(np.sum((phase / (m**2 + nsq))[mask]) / grid.L**2)


# ---------------------------------------------------------------------------
# The Wick table and Wick powers

@dataclass(frozen=True)
class WickColumn:
    """One column of WICK_TABLE, keyed by whether the field is real: normal
    ordering of real (Hermite) or complex (Laguerre in |u|^2) fields at
    variance a.  With s = u^2 or |u|^2 and (c, d, k) = (3, 6, 4) or
    (2, 2, 2), the degree-2, 3 and 4 entries are s - a, (s - c a) u and
    (s - c a)^2 - d a^2.  k times the degree-3 entry is the gradient (d/du,
    or d/d(conj u)) of the degree-4 entry, whose minimum -d a^2 lies c^2 a^2
    below its value at u = 0."""

    c: float
    d: float
    k: float

    def shifted(self, u, a, c=None, out=None):
        """s - c a (c defaults to the column's): a new real array, or, with
        `out` (real planes of u's shape, see SpectralPlan.round_trip),
        out[0], with a complex u's imaginary part squared in out[1]."""
        s = np.multiply(u.real, u.real, out=None if out is None else out[0])
        if np.iscomplexobj(u):
            s += (u.imag * u.imag if out is None else
                  np.multiply(u.imag, u.imag, out=out[1]))
        s -= (self.c if c is None else c) * a
        return s

    def density(self, u, j, a, out=None):
        """The degree-j entry at samples u (degrees 0 and 1 are 1 and u);
        with `out` (see shifted), the work is done in place: degree 3 in
        u's buffer, degrees 2 and 4 in out[0]."""
        if j not in range(5):
            raise ValueError("Wick degree j must be in 0..4")
        if j < 2:
            return u if j == 1 else np.ones_like(u)
        s = self.shifted(u, a, 1.0 if j == 2 else None, out)
        if j == 3:
            return np.multiply(u, s, out=None if out is None else u)
        if j == 2:
            return s
        s = np.square(s, out=None if out is None else s)
        s -= self.d * a * a
        return s


WICK_TABLE = {True: WickColumn(3.0, 6.0, 4.0),
              False: WickColumn(2.0, 2.0, 2.0)}


def wick_power_coeffs(grid, coeffs, j, a, output_radius=None, real=True):
    """Batched Wick power: the table's entry on an alias-free grid."""
    if j not in (2, 3, 4):
        raise ValueError("Wick power j must be in {2, 3, 4}")
    col = WICK_TABLE[real]
    return spectral_plan(grid, real, j).round_trip(
        coeffs, lambda u, planes: (col.density(u, j, a, planes), None),
        radius=output_radius)[0]


def wick_power(Z: FourierField, j, a, output_radius=None):
    """:Z^j: with renormalization constant a, truncated to output_radius."""
    c = wick_power_coeffs(Z.grid, Z.coeffs, j, a, output_radius, Z.real)
    return FourierField(Z.grid, c, Z.real)


def pairing(f_coeffs, g_coeffs, L):
    """L^2(torus) pairing int f g dx = L^2 sum f(n) conj(g(n)) for real g.

    For real fields both forms agree; we use sum f(n) g(-n) which is exact
    for complex fields too.
    """
    return L**2 * np.sum(f_coeffs * g_coeffs[..., ::-1, ::-1],
                         axis=(-2, -1))

