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


@dataclass(frozen=True)
class SparseRep:
    """Coefficient vector together with the dictionary it refers to."""

    beta: np.ndarray
    dictionary: Dictionary

    def synthesize(self) -> np.ndarray:
        return self.dictionary.inverse_transform(self.beta)


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


def analyze(dictionary: Dictionary, h) -> SparseRep:
    """Coefficients beta = D^H h; exact representation for unitary dictionaries."""
    vec = as_complex_vector(h, "h")
    if vec.shape[0] != dictionary.n_antennas:
        raise ValueError(
            f"dimension mismatch: dictionary has {dictionary.n_antennas} rows, "
            f"channel has {vec.shape[0]}"
        )
    return SparseRep(beta=dictionary.transform(vec), dictionary=dictionary)


def mutual_coherence(matrix) -> float:
    """Largest normalised inner product between distinct columns.

    The Gram is swept in row blocks of its upper triangle: block ``[lo, hi)``
    holds columns ``lo:hi`` against columns ``lo:``, so the sweep costs about
    half the flops of the full Gram and never holds more than
    ``_COHERENCE_BLOCK x M`` entries.
    """
    m = as_complex_matrix(matrix, "matrix")
    n_cols = m.shape[1]
    if n_cols < 2:
        raise ValueError("mutual coherence needs at least two columns")
    with np.errstate(invalid="ignore", over="ignore"):  # caught just below
        norms = np.linalg.norm(m, axis=0)
    if np.any(norms == 0):
        raise ValueError("mutual coherence is undefined for zero columns")
    if not np.all(np.isfinite(norms)):
        raise ValueError("mutual coherence needs finite columns")
    best = 0.0
    for lo in range(0, n_cols, _COHERENCE_BLOCK):
        hi = min(lo + _COHERENCE_BLOCK, n_cols)
        block = np.abs(np.conj(m[:, lo:hi].T) @ m[:, lo:])
        block /= np.outer(norms[lo:hi], norms[lo:])
        np.fill_diagonal(block[:, : hi - lo], 0.0)
        best = np.maximum(best, block.max())  # propagates a nan, unlike max()
    return float(best)


def export_dictionary(dictionary: Dictionary, path):
    """Write the matrix as little-endian complex64 pairs with a 16-byte header."""
    matrix = np.ascontiguousarray(dictionary.matrix.astype(np.complex64))
    header = _HEADER.pack(MAGIC, dictionary.n_antennas, dictionary.n_atoms, 0)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(matrix.astype("<c8").tobytes(order="C"))


def load_dictionary_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`export_dictionary`."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        magic, rows, cols, _ = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise ValueError(f"not a dictionary file: bad magic {magic!r}")
        data = np.frombuffer(fh.read(), dtype="<c8")
    if data.size != rows * cols:
        raise ValueError(
            f"truncated dictionary file: expected {rows * cols} entries, got {data.size}"
        )
    return data.reshape(rows, cols).astype(np.complex128)
