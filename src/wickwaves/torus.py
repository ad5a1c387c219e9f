"""Discrete torus geometry, spectral transforms and dealiased products.

Conventions (fixed once, used by every other module):

* The torus has side length ``L`` and is realized as the centered square
  ``[-L/2, L/2)^2`` of volume ``L**2``.  Grid points are
  ``x_j = -L/2 + j*h`` with ``h = L/M``.
* A field is ``u(x) = sum_n c(n) exp(2*pi*i n.x)`` over the mode lattice
  ``n = k/L``, ``k`` integer pairs.  Modes with ``|n| <= K`` (Euclidean
  ball) are active.
* Parseval: ``int |u|^2 dx = L**2 * sum |c(n)|^2``; the discrete rectangle
  rule on the M x M grid is exact for band-limited integrands.
* Derivatives use the scaled gradient ``D = grad / (2*pi)`` whose Fourier
  symbol is ``i*n``, so ``-Delta`` acts as multiplication by ``|n|^2``.
  All dispersion relations, Sobolev weights and weight commutators use
  this scaling consistently.

Coefficients are stored on the centered square ``k in [-kmax, kmax]^2``
with ``kmax = floor(K*L)``; index ``(i, j)`` holds mode
``k = (i - kmax, j - kmax)``.  Entries outside the ball ``|k| <= K*L``
are identically zero.

:class:`SpectralPlan` is the only transform: padded for products
(:func:`spectral_plan`), or on the M x M grid itself (:func:`grid_plan`).
It runs on every CPU the process may use (its affinity mask); each 1-D
transform is computed alike whatever the worker count, so the results do
not depend on it.

:func:`map_groups` runs a function on contiguous groups of the members of
a batch, on the calling thread and ``WORKERS - 1`` pool threads; the NLS
time loop uses it, because its members never interact.  A group's
transforms run on one FFT worker each.
"""

from __future__ import annotations

import functools
import io
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

_MAGIC = b"WWF1"
_SNAPSHOT_VERSION = 1


class GridMismatchError(ValueError):
    """Two fields living on different grids were combined."""


@dataclass(frozen=True)
class TorusGrid:
    """Geometry of the discrete torus: side L, M points per axis, cutoff K."""

    L: float
    M: int
    K: float

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("torus side L must be positive")
        if self.M <= 0 or self.M % 2 != 0:
            raise ValueError("grid size M must be a positive even integer")
        if self.K < 0:
            raise ValueError("cutoff K must be nonnegative")
        if self.M < 4 * int(np.ceil(self.K * self.L)) + 2:
            raise ValueError(
                "grid too coarse: need M >= 4*ceil(K*L) + 2 for dealiasing room"
            )

    @property
    def h(self):
        """Spatial step."""
        return self.L / self.M

    @property
    def kmax(self):
        """Largest integer mode index along one axis."""
        return int(np.floor(self.K * self.L + 1e-9))

    @property
    def nk(self):
        """Side of the centered coefficient array."""
        return 2 * self.kmax + 1

    @property
    def volume(self):
        return self.L**2

    def axes_k(self):
        """Integer mode indices along one axis, centered."""
        return np.arange(-self.kmax, self.kmax + 1)

    def mode_n(self):
        """(n1, n2) frequency meshgrids, shape (nk, nk)."""
        k = self.axes_k()
        k1, k2 = np.meshgrid(k, k, indexing="ij")
        return k1 / self.L, k2 / self.L

    def mode_nsq(self):
        """|n|^2 per stored mode, shape (nk, nk)."""
        n1, n2 = self.mode_n()
        return n1**2 + n2**2

    def ball_mask(self, radius=None):
        """Boolean mask of modes with |n| <= radius (default: the cutoff K)."""
        r = self.K if radius is None else radius
        if r < 0:
            raise ValueError("radius must be nonnegative")
        return self.mode_nsq() <= r**2 * (1 + 1e-12)

    def grid_x(self):
        """(x1, x2) coordinate meshgrids of the physical grid."""
        x = -self.L / 2 + self.h * np.arange(self.M)
        x1, x2 = np.meshgrid(x, x, indexing="ij")
        return x1, x2

    def n_active(self):
        """Number of active modes."""
        return int(np.count_nonzero(self.ball_mask()))


def _hermitian_flip(coeffs):
    """conj(c(-k)) in the centered layout: reverse both mode axes."""
    return np.conj(coeffs[..., ::-1, ::-1])


def hermitian_symmetrize(coeffs):
    return 0.5 * (coeffs + _hermitian_flip(coeffs))


def is_hermitian(coeffs, tol=0.0):
    d = np.max(np.abs(coeffs - _hermitian_flip(coeffs))) if coeffs.size else 0.0
    return d <= tol


@dataclass
class FourierField:
    """Band-limited field on a torus, stored as centered Fourier coefficients."""

    grid: TorusGrid
    coeffs: np.ndarray
    real: bool = True

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.grid.nk, self.grid.nk):
            raise ValueError(
                f"coefficient array must have shape {(self.grid.nk, self.grid.nk)}"
            )
        c = np.where(self.grid.ball_mask(), c, 0.0)
        if self.real:
            c = hermitian_symmetrize(c)
        self.coeffs = c

    def copy(self):
        return FourierField(self.grid, self.coeffs.copy(), self.real)

    def l2_norm(self):
        """Spatial L^2 norm, by Parseval."""
        return float(self.grid.L * np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    def __add__(self, other):
        _check_same_grid(self, other)
        return FourierField(self.grid, self.coeffs + other.coeffs,
                            self.real and other.real)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return FourierField(self.grid, self.coeffs - other.coeffs,
                            self.real and other.real)

    def __mul__(self, scalar):
        return FourierField(self.grid, self.coeffs * scalar,
                            self.real and np.isrealobj(np.asarray(scalar)))

    __rmul__ = __mul__


def _check_same_grid(f, g):
    if f.grid != g.grid:
        raise GridMismatchError("fields live on different grids")


# ---------------------------------------------------------------------------
# transforms on the M x M grid

def _centring_phase(grid):
    """(-1)**(k1+k2): moves the plan's points j h to the centred -L/2 + j h."""
    k = grid.axes_k()
    return np.where((k[:, None] + k[None, :]) % 2 == 0, 1.0, -1.0)


def to_physical_array(grid, coeffs):
    """Complex samples of coefficients (..., nk, nk) on the centred grid."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    return grid_plan(grid, real=False).to_grid(coeffs * _centring_phase(grid))


def from_physical_array(grid, samples, real=True):
    """Inverse of :func:`to_physical_array`; truncates to the active band.
    With `real`, the coefficients are those of `samples.real`."""
    samples = np.asarray(samples)
    if samples.shape[-2:] != (grid.M, grid.M):
        raise GridMismatchError("sample array does not match the grid")
    if real:
        samples = samples.real
    return grid_plan(grid, real).from_grid(samples) * _centring_phase(grid)


def to_physical(f: FourierField):
    """Physical samples on the M x M grid; real-valued when f.real."""
    u = to_physical_array(f.grid, f.coeffs)
    if f.real:
        return u.real
    return u


def from_physical(grid, samples, real=True):
    return FourierField(grid, from_physical_array(grid, samples, real=real), real)


def project(f: FourierField, radius):
    """Sharp Fourier projection P_radius onto the ball |n| <= radius."""
    if radius < 0:
        raise ValueError("projection radius must be nonnegative")
    mask = f.grid.ball_mask(radius)
    return FourierField(f.grid, np.where(mask, f.coeffs, 0.0), f.real)


# ---------------------------------------------------------------------------
# the spectral plan: alias-free padded transforms

# threads of map_groups and scipy.fft workers of a plan outside a group:
# the CPUs this process may run on
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

# Members per group of map_groups.  The members of an NLS midpoint kick
# iterate to their own tolerances, so groups take unequal times, and the
# threads can only even out at a group boundary: with 64 members in groups
# of 8, the last group can leave one thread idle for as long as an eighth
# of the batch's work takes.  Groups of 2 keep that small, at some speed
# (see CHANGES.md).
GROUP = 2

_local = threading.local()      # .grouped: this thread is running a group
_pool_lock = threading.Lock()
_pool = None


def _fft_workers():
    """scipy.fft workers of a transform: one inside a member group, whose
    threads already share the CPUs, and WORKERS outside."""
    return 1 if getattr(_local, "grouped", False) else WORKERS


def _helpers():
    """The WORKERS - 1 pool threads of map_groups, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(WORKERS - 1, 1),
                                       thread_name_prefix="wickwaves-group")
        return _pool


def _forget_pool():
    """A forked child has none of its parent's threads."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def map_groups(fn, n):
    """[fn(group) ...] over the contiguous slices of GROUP members that
    split a batch of n independent members, in member order.

    The calling thread and WORKERS - 1 pool threads each take the next
    group until none is left; inside a group every transform runs on one
    FFT worker.  When WORKERS is 1, when the batch fits one group, or when
    called from inside a group, fn runs once, inline, on the whole batch.
    fn must depend only on its own members, and must set numpy's error
    state (np.errstate) itself, since it does not reach the pool threads.
    When a group raises, groups not yet started are skipped and, once
    every running group has stopped, the exception of the first failed
    group is raised as it is."""
    if WORKERS == 1 or n <= GROUP or getattr(_local, "grouped", False):
        return [fn(slice(0, n))]
    groups = [slice(lo, min(lo + GROUP, n)) for lo in range(0, n, GROUP)]
    out, errors = [None] * len(groups), [None] * len(groups)
    todo = iter(range(len(groups)))
    lock, stop = threading.Lock(), threading.Event()

    def drain():
        _local.grouped = True
        try:
            while not stop.is_set():
                with lock:
                    i = next(todo, None)
                if i is None:
                    return
                try:
                    out[i] = fn(groups[i])
                except BaseException as exc:
                    errors[i] = exc
                    stop.set()
        finally:
            _local.grouped = False

    pool = _helpers()
    helpers = [pool.submit(drain)
               for _ in range(min(WORKERS, len(groups)) - 1)]
    try:
        drain()
        for h in helpers:
            h.result()
    except BaseException:
        stop.set()
        raise
    for exc in errors:
        if exc is not None:
            raise exc
    return out


class SpectralPlan:
    """Transforms between a grid's stored band and a P x P grid.

    Made by :func:`spectral_plan`, whose P exceeds (degree + 1) * kmax, so
    that a product of `degree` band-limited factors truncated back to the
    band, and the integral of a product of degree + 1 factors, are exact
    (Orszag 1971), or by :func:`grid_plan`, with P = M.  The samples sit at
    x_j = j L / P; the shift from the centred grid changes no product or
    integral.

    The stored spectrum has shape (..., nk, ncols): the columns k2 >= 0 of
    a real field (its other half is the conjugate), all nk columns of a
    complex one.  The inverse transform is one complex pass along axis -2
    over the stored columns and one pass over every row along axis -1
    (`irfft` for real fields); the forward transform mirrors it.  Both
    scale with norm="forward", so the inverse is the bare Fourier sum.

    A cached plan is shared by every caller and thread: its arrays are
    read-only, and each call allocates its own buffers.  Inside a member
    group (map_groups) a call runs one FFT worker, else WORKERS.
    """

    def __init__(self, grid, real, P):
        kmax = grid.kmax
        self.grid, self.real, self.kmax = grid, real, kmax
        self.nk = grid.nk
        self.P = P
        self.ncols = kmax + 1 if real else self.nk
        self.rows = np.arange(-kmax, kmax + 1) % P
        # the padded spectrum: P rows by P // 2 + 1 (what irfft reads) or
        # P columns; the stored columns sit at `cols`, inside `col_slices`
        self.width = P // 2 + 1 if real else P
        self.cols = np.arange(kmax + 1) if real else self.rows
        self.col_slices = ((slice(0, kmax + 1),) if real else
                           (slice(0, kmax + 1), slice(P - kmax, P)))
        self.ball = grid.ball_mask()
        for arr in (self.rows, self.cols, self.ball):
            arr.flags.writeable = False

    def index(self, k1, k2):
        """Flat positions of modes (k1, k2) in the stored spectrum; a real
        field stores only k2 >= 0."""
        return (np.asarray(k1) + self.kmax) * self.ncols + (
            np.asarray(k2) + (0 if self.real else self.kmax))

    def stored(self, coeffs):
        """The stored spectrum of centred coefficients (..., nk, nk)."""
        return coeffs[..., self.kmax:] if self.real else coeffs

    def complete(self, stored):
        """Centred coefficients from the stored spectrum; a real field gets
        its k2 < 0 half by c(-k) = conj c(k), exactly Hermitian."""
        if not self.real:
            return stored
        col0 = stored[..., :1]
        col0 = 0.5 * (col0 + np.conj(col0[..., ::-1, :]))
        return np.concatenate((np.conj(stored[..., ::-1, :0:-1]), col0,
                               stored[..., 1:]), axis=-1)

    def _column_pass(self, transform, spec):
        """The pass along axis -2, over the stored columns only, in place
        (scipy writes a strided view in place when asked to overwrite)."""
        for sl in self.col_slices:
            view = spec[..., sl]
            out = transform(view, axis=-2, norm="forward", overwrite_x=True,
                            workers=_fft_workers())
            if not np.shares_memory(out, view):
                view[...] = out

    def to_grid(self, values, parts=None):
        """Samples on the P x P grid (real-valued for a real plan).

        `values` are centred coefficients (..., nk, nk), or, with `parts`,
        real numbers (..., n) placed at those positions of the stored
        spectrum read as float64 pairs: the real part of entry j at 2j,
        its imaginary part at 2j + 1."""
        lead = values.shape[:-2] if parts is None else values.shape[:-1]
        buf = np.zeros(lead + (self.P, self.width), dtype=np.complex128)
        if parts is None:
            buf[..., self.rows[:, None], self.cols] = self.stored(values)
        else:
            entry, col = np.divmod(parts // 2, self.ncols)
            padded = 2 * (self.rows[entry] * self.width + self.cols[col]) \
                + parts % 2
            buf.reshape(lead + (-1,)).view(np.float64)[..., padded] = values
        self._column_pass(sfft.ifft, buf)
        if self.real:
            return sfft.irfft(buf, n=self.P, axis=-1, norm="forward",
                              overwrite_x=True, workers=_fft_workers())
        return sfft.ifft(buf, axis=-1, norm="forward", overwrite_x=True,
                         workers=_fft_workers())

    def from_grid(self, samples, parts=None, radius=None):
        """Centred band coefficients (..., nk, nk) of P x P samples, zero
        outside |n| <= radius (default: the cutoff K); with `parts`, the
        float64 parts (..., n) at those positions of the stored spectrum
        instead (see to_grid)."""
        row_pass = sfft.rfft if self.real else sfft.fft
        spec = row_pass(samples, axis=-1, norm="forward",
                        workers=_fft_workers())
        self._column_pass(sfft.fft, spec)
        band = spec[..., self.rows[:, None], self.cols]
        if parts is not None:
            flat = np.ascontiguousarray(band).reshape(band.shape[:-2] + (-1,))
            return flat.view(np.float64)[..., parts]
        ball = self.ball if radius is None else self.grid.ball_mask(radius)
        return np.where(ball, self.complete(band), 0.0)


@functools.lru_cache(maxsize=64)
def spectral_plan(grid, real=True, degree=3):
    """The cached alias-free plan for products of `degree` factors."""
    P = sfft.next_fast_len(max((degree + 1) * grid.kmax + 2, 4))
    return SpectralPlan(grid, real, int(P))


@functools.lru_cache(maxsize=16)
def grid_plan(grid, real=True):
    """The cached plan on the grid's own M x M points."""
    return SpectralPlan(grid, real, grid.M)


def dealiased_product_arrays(grid, coeff_list, output_radius=None, real=True):
    """Product of several coefficient arrays, truncated to |n| <= output_radius."""
    plan = spectral_plan(grid, real, len(coeff_list))
    phys = None
    for c in coeff_list:
        u = plan.to_grid(c)
        phys = u if phys is None else phys * u
    return plan.from_grid(phys, radius=output_radius)


def dealiased_power(f: FourierField, j, output_radius=None):
    """Exact (alias-free) spectral power f**j for j in {2, 3, 4}."""
    if j not in (2, 3, 4):
        raise ValueError("power j must be one of 2, 3, 4")
    c = dealiased_product_arrays(f.grid, [f.coeffs] * j, output_radius, real=f.real)
    return FourierField(f.grid, c, f.real)


def convolution_power_oracle(f: FourierField, j, output_radius=None):
    """Brute-force direct coefficient convolution; test oracle for powers."""
    from scipy.signal import convolve2d

    grid = f.grid
    kmax = grid.kmax
    acc = f.coeffs
    for _ in range(j - 1):
        acc = convolve2d(acc, f.coeffs, mode="full")
    # acc covers k in [-j*kmax, j*kmax]^2; extract the centered window
    size = j * kmax
    out = acc[size - kmax:size + kmax + 1, size - kmax:size + kmax + 1]
    r = grid.K if output_radius is None else output_radius
    out = np.where(grid.ball_mask(r), out, 0.0)
    return FourierField(grid, out, f.real)


# ---------------------------------------------------------------------------
# Littlewood-Paley partition

def _bump_transition(t):
    """Smooth monotone step: 0 for t <= 0, 1 for t >= 1, C^inf in between."""
    t = np.asarray(t, dtype=float)
    def psi(s):
        out = np.zeros_like(s)
        pos = s > 0
        out[pos] = np.exp(-1.0 / s[pos])
        return out
    a, b = psi(t), psi(1.0 - t)
    return a / (a + b)


def chi_plateau(r):
    """Radial cutoff: 1 on |xi| <= 3/4, support in |xi| < 4/3.

    chi(r) = step((4/3 - r) / (4/3 - 3/4)); the step is the standard
    exp(-1/t) mollifier ratio, so the formula is reproducible bit-exactly.
    """
    r = np.abs(np.asarray(r, dtype=float))
    return _bump_transition((4.0 / 3.0 - r) / (4.0 / 3.0 - 3.0 / 4.0))


class LPPartition:
    """Dyadic Littlewood-Paley partition sigma_k, k = -1, 0, ..., k_max.

    sigma_{-1}(xi) = chi(|xi|) and sigma_k(xi) = chi(|xi|/2^(k+1)) -
    chi(|xi|/2^k), so sigma_k is supported on the annulus
    3/4 * 2^k <= |xi| <= 8/3 * 2^k and the sum telescopes to
    chi(|xi| / 2^(k_max+1)) = 1 on the active ball.
    """

    def __init__(self, K):
        if K < 0:
            raise ValueError("cutoff must be nonnegative")
        self.K = K
        j = 0
        while 0.75 * 2.0 ** (j + 1) < K:
            j += 1
        self.k_max = j

    def sigma(self, k, r):
        """Evaluate sigma_k at radius r (array ok)."""
        if k < -1 or k > self.k_max:
            raise ValueError("block index out of range")
        r = np.abs(np.asarray(r, dtype=float))
        if k == -1:
            return chi_plateau(r)
        return chi_plateau(r / 2.0 ** (k + 1)) - chi_plateau(r / 2.0**k)

    def blocks(self):
        return range(-1, self.k_max + 1)


def lp_multiplier(grid, part, k):
    """sigma_k evaluated on the grid's mode lattice (cached, read-only)."""
    return _lp_multiplier(grid, part.K, k)


@functools.lru_cache(maxsize=256)
def _lp_multiplier(grid, K, k):
    mult = LPPartition(K).sigma(k, np.sqrt(grid.mode_nsq()))
    # every later norm shares the cached array
    mult.flags.writeable = False
    return mult


def lp_block(f: FourierField, k, part: LPPartition):
    """Littlewood-Paley block Delta_k f."""
    mult = lp_multiplier(f.grid, part, k)
    return FourierField(f.grid, f.coeffs * mult, f.real)


# ---------------------------------------------------------------------------
# snapshot format
#
# header: magic "WWF1" (4 bytes), version u32, endianness marker u32
# (0x01020304), L f64, M u32, K f64, reality u8, pad 3 bytes; then
# nk*nk little-endian (f64, f64) coefficient pairs in row-major mode order.

def write_snapshot(f: FourierField, fh):
    own = isinstance(fh, (str, bytes))
    stream = open(fh, "wb") if own else fh
    try:
        stream.write(_MAGIC)
        stream.write(struct.pack("<II", _SNAPSHOT_VERSION, 0x01020304))
        stream.write(struct.pack("<dId", f.grid.L, f.grid.M, f.grid.K))
        stream.write(struct.pack("<B3x", 1 if f.real else 0))
        flat = np.ascontiguousarray(f.coeffs, dtype="<c16")
        stream.write(flat.tobytes())
    finally:
        if own:
            stream.close()


def read_snapshot(fh):
    own = isinstance(fh, (str, bytes))
    stream = open(fh, "rb") if own else fh
    try:
        magic = stream.read(4)
        if magic != _MAGIC:
            raise ValueError("not a field snapshot (bad magic)")
        version, endmark = struct.unpack("<II", stream.read(8))
        if version != _SNAPSHOT_VERSION or endmark != 0x01020304:
            raise ValueError("unsupported snapshot version or endianness")
        L, M, K = struct.unpack("<dId", stream.read(20))
        (real_flag,) = struct.unpack("<B3x", stream.read(4))
        grid = TorusGrid(L, M, K)
        n = grid.nk
        raw = stream.read(16 * n * n)
        coeffs = np.frombuffer(raw, dtype="<c16").reshape(n, n).astype(np.complex128)
        return FourierField(grid, coeffs, bool(real_flag))
    finally:
        if own:
            stream.close()


def snapshot_bytes(f: FourierField):
    buf = io.BytesIO()
    write_snapshot(f, buf)
    return buf.getvalue()
