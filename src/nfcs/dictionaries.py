"""Sparsifying dictionaries: chirped unitary, DFT, and polar-grid baseline.

The chirped dictionary multiplies the DFT matrix by a diagonal quadratic-phase
(chirp) matrix tied to one effective distance, which keeps it unitary while
its columns approximate spherical-wavefront array responses. The polar
baseline jointly grids angle and distance and is overcomplete.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from ._files import write_atomic
from .geometry import ArrayConfig, _steering, b_vector, field_boundaries
from .validation import as_complex_matrix, as_complex_vector

MAGIC = b"NFCS"
_HEADER = struct.Struct("<4sIII")  # magic, rows, cols, reserved
_COHERENCE_BLOCK = 128  # Gram rows per block of the mutual-coherence sweep


def dft_grid(n_antennas: int) -> np.ndarray:
    """Angular grid sin(theta_n) = (2n - N - 1)/N for n = 1..N."""
    n = np.arange(1, n_antennas + 1)
    return (2 * n - n_antennas - 1) / n_antennas


class Dictionary:
    """An N x M sparsifying dictionary with transformer-style helpers.

    ``sense`` forms the sensing matrix ``pilots @ D``, ``transform`` maps
    channel vectors to coefficients via the adjoint, and ``inverse_transform``
    synthesises channels from coefficients. For the unitary kinds ("dmu",
    "dft") the two are exact inverses.

    The chirped kinds ("dmu", "dft") are not stored densely. With
    half-wavelength spacing ``D_mu = diag(b_mu) F`` and ``F = diag(s) W``,
    where ``W`` is the unitary inverse DFT and ``s_n = exp(-j*pi*n*(N-1)/N)``
    carries the centring of the angular grid, so all three products apply
    the length-N chirp ``c = b_mu * s`` and one FFT along the antenna axis,
    in O(N log N) per vector. Their ``matrix`` is built on first access from
    the closed form ``b_mu[:, None] * F`` and cached. The polar baseline has
    a different quadratic term on every ring, so it keeps a dense matrix and
    dense products; a solver reads its sensing matrix through
    ``sensing_operator``, which leaves ``pilots @ D`` unformed.

    ``matrix`` and ``row_gram`` are read-only; instances are immutable after
    construction and safe to share across threads.
    """

    def __init__(self, matrix, kind: str, mu: float = None, radii=None, cfg=None):
        """Dense dictionary from ``matrix``, or with ``matrix=None`` the chirped
        dictionary ``diag(b_vector(cfg, mu)) F`` of a half-wavelength array."""
        self.kind = kind
        self.mu = mu
        self.radii = None if radii is None else np.asarray(radii, dtype=float)
        self._cfg = cfg
        self._row_gram = None
        if matrix is None:
            n = cfg.n_antennas
            shift = np.exp(-1j * np.pi * np.arange(n) * (n - 1) / n)
            self._chirp = b_vector(cfg, mu) * shift
            self._matrix = None
            self.shape = (n, n)
        else:
            self._chirp = None
            self._matrix = as_complex_matrix(matrix, "matrix")
            self._matrix.setflags(write=False)
            self.shape = self._matrix.shape

    @property
    def matrix(self) -> np.ndarray:
        """The dense N x M matrix (read-only; chirped kinds build it on first access)."""
        if self._matrix is None:
            matrix = b_vector(self._cfg, self.mu)[:, None] * _far_matrix(self._cfg)
            matrix.setflags(write=False)
            self._matrix = matrix
        return self._matrix

    @property
    def row_gram(self) -> np.ndarray:
        """``D D^H`` (N x N, read-only), built on first access and cached."""
        if self._row_gram is None:
            gram = self.matrix @ np.conj(self.matrix.T)
            gram.setflags(write=False)
            self._row_gram = gram
        return self._row_gram

    @property
    def n_antennas(self) -> int:
        return self.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.shape[1]

    def sense(self, pilots) -> np.ndarray:
        """Sensing matrix ``pilots @ D`` for a T x N pilot block."""
        arr = as_complex_matrix(pilots, "pilots")
        _check_length(arr, self.n_antennas, "pilot rows")
        if self._chirp is None:
            return arr @ self._matrix
        return np.fft.ifft(arr * self._chirp, axis=1, norm="ortho")

    def sensing_operator(self, pilots):
        """The sensing matrix ``pilots @ D`` in the form a solver reads it.

        The chirped kinds return ``sense(pilots)``, which one FFT forms in
        O(T N log N). A dense dictionary returns a ``SensingProduct``: the
        T x M product would cost T N M to form, while a solver only needs its
        correlations and a few of its columns.
        """
        if self._chirp is not None:
            return self.sense(pilots)
        arr = as_complex_matrix(pilots, "pilots")
        _check_length(arr, self.n_antennas, "pilot rows")
        return SensingProduct(arr, self._matrix, self.row_gram)

    def transform(self, X) -> np.ndarray:
        """Adjoint analysis: channel rows (or a single vector) to coefficients."""
        arr, single = _as_rows(X)
        _check_length(arr, self.n_antennas, "vectors")
        if self._chirp is None:
            out = arr @ np.conj(self._matrix)
        else:
            out = np.fft.fft(np.conj(self._chirp) * arr, axis=1, norm="ortho")
        return out[0] if single else out

    def inverse_transform(self, X) -> np.ndarray:
        """Synthesis: coefficient rows (or a single vector) to channels."""
        arr, single = _as_rows(X)
        _check_length(arr, self.n_atoms, "coefficient vectors")
        if self._chirp is None:
            out = arr @ self._matrix.T
        else:
            out = self._chirp * np.fft.ifft(arr, axis=1, norm="ortho")
        return out[0] if single else out

    def __repr__(self):
        mu = "" if self.mu is None else f", mu={self.mu!r}"
        return f"Dictionary(kind={self.kind!r}, shape={self.shape}{mu})"


@dataclass(frozen=True)
class SensingProduct:
    """The T x M sensing matrix ``pilots @ matrix``, held as its factors.

    ``row_gram`` is ``matrix @ matrix^H``; with it the mean column energy of
    the product, ``tr(pilots @ row_gram @ pilots^H) / M``, costs T N^2.
    """

    pilots: np.ndarray
    matrix: np.ndarray
    row_gram: np.ndarray

    @property
    def shape(self) -> tuple:
        return (self.pilots.shape[0], self.matrix.shape[1])


def _as_rows(X):
    """``X`` as complex rows, and whether it was a single vector."""
    arr = np.asarray(X, dtype=np.complex128)
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


def _check_length(rows, length: int, what: str):
    if rows.shape[1] != length:
        raise ValueError(f"expected {what} of length {length}, got {rows.shape[1]}")


def _require_half_wavelength(cfg: ArrayConfig):
    if not cfg.is_half_wavelength:
        raise ValueError(
            "dictionary grids assume half-wavelength antenna spacing; "
            f"got spacing {cfg.spacing!r} for wavelength {cfg.wavelength!r}"
        )


def _far_matrix(cfg: ArrayConfig) -> np.ndarray:
    """The DFT basis F of ``D_mu = diag(b_mu) F``, also ring 0 of the polar baseline.

    Its columns are the plane-wave responses on ``dft_grid``, but their phase
    is formed from the grid product directly, not through ``_steering``: the
    other association of the same product moves the last bits of the matrix.
    """
    n = np.arange(cfg.n_antennas)
    grid = dft_grid(cfg.n_antennas)
    phase = (2 * np.pi / cfg.wavelength) * cfg.spacing * np.outer(n, grid)
    return np.exp(1j * phase) / math.sqrt(cfg.n_antennas)


def build_dmu(cfg: ArrayConfig, mu: float) -> Dictionary:
    """Unitary chirped dictionary for one effective distance (inf gives the DFT)."""
    _require_half_wavelength(cfg)
    return Dictionary(None, kind="dmu", mu=mu, cfg=cfg)


def build_dft(cfg: ArrayConfig) -> Dictionary:
    """Plain DFT dictionary (the chirped dictionary at infinite effective distance)."""
    _require_half_wavelength(cfg)
    return Dictionary(None, kind="dft", mu=math.inf, cfg=cfg)


def build_polar_baseline(
    cfg: ArrayConfig, n_rings: int = 6, distance_range: tuple = None
) -> Dictionary:
    """Overcomplete angle x distance dictionary used as the comparison baseline.

    Ring 0 sits at infinity (plane-wave atoms, identical to the DFT columns);
    the remaining ``n_rings - 1`` rings sample 1/r uniformly over the given
    distance range (default: Fresnel to Rayleigh distance). Columns are
    grouped ring-major so ``n_rings = 1`` reduces exactly to the DFT.
    """
    _require_half_wavelength(cfg)
    if n_rings < 1:
        raise ValueError(f"n_rings must be >= 1, got {n_rings}")
    if distance_range is None:
        distance_range = field_boundaries(cfg)
    lo, hi = distance_range
    if not (0 < lo <= hi):
        raise ValueError(f"invalid distance range {distance_range!r}")
    ring_radii = [math.inf]
    if n_rings > 1:
        inv = np.linspace(1.0 / hi, 1.0 / lo, n_rings - 1)
        ring_radii.extend(float(1.0 / v) for v in inv)
    grid = dft_grid(cfg.n_antennas)
    blocks = [
        _far_matrix(cfg) if math.isinf(radius) else _steering(cfg, grid, radius, "taylor")
        for radius in ring_radii
    ]
    return Dictionary(
        np.concatenate(blocks, axis=1),
        kind="polar",
        radii=np.repeat(ring_radii, cfg.n_antennas),
    )


def analyze(dictionary: Dictionary, h) -> np.ndarray:
    """Coefficients beta = D^H h of one channel; exact for unitary dictionaries."""
    return dictionary.transform(as_complex_vector(h, "h"))


def _screen_margin(n_rows: int) -> float:
    """Bound on the error of one screened entry of ``mutual_coherence``.

    For unit-norm columns x_i, x_j of length T, with u = 2^-24 the unit
    roundoff of complex64 and gamma(n) = n u / (1 - n u) (Higham, *Accuracy
    and Stability of Numerical Algorithms*, sections 3.1 and 3.6):

    - the cast to complex64 moves each entry by at most u relative, so
      x_i^H x_j moves by at most (2u + u^2) |x_i|^T |x_j| <= 2u + u^2;
    - the real and imaginary parts of x_i^H x_j are each a sum of 2T real
      products; summed in any order, with or without fused multiply-adds,
      each errs by at most gamma(2T) |x_i|^T |x_j|, so the complex value errs
      by at most sqrt(2) gamma(2T) (1 + u)^2 for the cast columns;
    - underflow, gradual or flushed to zero, adds at most the smallest
      normal 2^-126 per real product or sum (4T per part) and per input
      entry flushed by the cast; 16T of them bound both;
    - ``abs`` rounds once more, by at most 2u of its result.

    The 1% slack covers the float64 normalisation and the float64 recompute,
    whose errors are of order T 2^-52.
    """
    u = 2.0**-24
    n = 2 * n_rows
    gamma = n * u / (1 - n * u) if n * u < 1 else math.inf
    inner = 2 * u + u * u + math.sqrt(2) * gamma * (1 + u) ** 2 + 16 * n_rows * 2.0**-126
    return 1.01 * (inner + 2 * u * (1 + inner))


# column norms inside which neither the squares of the norms nor the Gram
# products of two columns over- or underflow
_NORM_RANGE = (2.0**-400, 2.0**400)


def _column_norms(m) -> np.ndarray:
    """Column 2-norms, by blocks of columns: the norm of all of m would square
    all of it at once."""
    with np.errstate(invalid="ignore", over="ignore", under="ignore"):  # checked by the caller
        return np.concatenate(
            [
                np.linalg.norm(m[:, lo : lo + _COHERENCE_BLOCK], axis=0)
                for lo in range(0, m.shape[1], _COHERENCE_BLOCK)
            ]
        )


def mutual_coherence(matrix) -> float:
    """Largest normalised inner product between distinct columns.

    Two passes over the upper triangle of the Gram, each in row blocks of at
    most ``_COHERENCE_BLOCK`` rows against the columns from the block's
    first row on, so neither holds more than ``_COHERENCE_BLOCK x M``
    entries:

    1. Screen: the columns are normalised in float64 and cast once to
       complex64; the blocks of their Gram are reduced to per-row and
       per-column maxima at once. Every screened entry is within
       ``_screen_margin(T)`` of its exact value, so every pair that attains
       the exact maximum screens at least the screened maximum minus twice
       that margin.
    2. Exact: the rows holding such candidate pairs are recomputed in
       float64 from the original columns, ``|x_i^H x_j| / (n_i n_j)`` for
       i != j, against the columns up to the last candidate column.

    The screen costs T M^2 / 2 complex64 multiply-adds. On a matrix with a
    few near-maximal pairs the exact pass is a few rows; when every pair is
    a candidate (a unitary or low-coherence matrix, where the threshold is
    below zero) it is the full float64 sweep.

    A matrix with a column norm outside ``_NORM_RANGE`` is first scaled
    column by column by powers of two; in range it is used as it is.
    """
    m = as_complex_matrix(matrix, "matrix")
    n_rows, n_cols = m.shape
    if n_cols < 2:
        raise ValueError("mutual coherence needs at least two columns")
    norms = _column_norms(m)
    if not np.all((norms >= _NORM_RANGE[0]) & (norms <= _NORM_RANGE[1])):
        # the squares in the norms or the products in the Gram leave the
        # normal range; coherence is scale-invariant, so scale each column by
        # the power of two that brings its largest entry into [0.5, 1), which
        # moves no rounded result
        largest = np.maximum(np.abs(m.real).max(axis=0), np.abs(m.imag).max(axis=0))
        shift = -np.frexp(largest)[1]
        scaled = np.empty_like(m)
        scaled.real = np.ldexp(m.real, shift)
        scaled.imag = np.ldexp(m.imag, shift)
        m = scaled
        norms = _column_norms(m)
    if np.any(norms == 0):
        raise ValueError("mutual coherence is undefined for zero columns")
    if not np.all(np.isfinite(norms)):
        raise ValueError("mutual coherence needs finite columns")

    screen = np.empty(m.shape, dtype=np.complex64)
    np.divide(m, norms, out=screen, casting="same_kind")
    row_max = np.zeros(n_cols)  # over j > i
    col_max = np.zeros(n_cols)  # over i < j
    lower = np.tri(_COHERENCE_BLOCK, dtype=bool)  # the diagonal and below
    for lo in range(0, n_cols, _COHERENCE_BLOCK):
        hi = min(lo + _COHERENCE_BLOCK, n_cols)
        block = np.abs(np.conj(screen[:, lo:hi].T) @ screen[:, lo:])
        block[:, : hi - lo][lower[: hi - lo, : hi - lo]] = 0.0
        row_max[lo:hi] = block.max(axis=1)
        np.maximum(col_max[lo:], block.max(axis=0), out=col_max[lo:])
    del screen, block

    threshold = row_max.max() - 2 * _screen_margin(n_rows)
    rows = np.flatnonzero(row_max >= threshold)
    stop = np.flatnonzero(col_max >= threshold)[-1] + 1
    best = 0.0
    for k in range(0, rows.size, _COHERENCE_BLOCK):
        chunk = rows[k : k + _COHERENCE_BLOCK]
        lo = chunk[0]
        left = m[:, chunk].T  # a copy, conjugated in place
        np.conjugate(left, out=left)
        block = np.abs(left @ m[:, lo:stop])
        block /= np.outer(norms[chunk], norms[lo:stop])
        block[np.arange(chunk.size), chunk - lo] = 0.0  # i == j
        best = np.maximum(best, block.max())  # propagates a nan, unlike max()
    return float(best)


def export_dictionary(dictionary: Dictionary, path):
    """Write the matrix as little-endian complex64 pairs with a 16-byte header.

    The file is written atomically: readers see the old file or the new one.
    """
    header = _HEADER.pack(MAGIC, dictionary.n_antennas, dictionary.n_atoms, 0)
    write_atomic(path, header + dictionary.matrix.astype("<c8").tobytes(order="C"))


def load_dictionary_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`export_dictionary`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(
            f"not a dictionary file: expected a {_HEADER.size}-byte header, got {len(raw)} bytes"
        )
    magic, rows, cols, _ = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"not a dictionary file: bad magic {magic!r}")
    expected = rows * cols * 8
    if len(raw) - _HEADER.size != expected:
        raise ValueError(
            f"dictionary file of {rows} x {cols} complex64 entries needs a "
            f"{expected}-byte payload, got {len(raw) - _HEADER.size} bytes"
        )
    return np.frombuffer(raw, dtype="<c8", offset=_HEADER.size).reshape(rows, cols).astype(np.complex128)
