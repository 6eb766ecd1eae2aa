"""Sparsifying dictionaries: chirped unitary, DFT, and polar-grid baseline.

The chirped dictionary multiplies the DFT matrix by a diagonal quadratic-phase
(chirp) matrix tied to one effective distance, which keeps it unitary while
its columns approximate spherical-wavefront array responses. The polar
baseline jointly grids angle and distance and is overcomplete.
"""

import copy
import math
import threading

import numpy as np

from .geometry import ArrayConfig, _steering, b_vector, field_boundaries, finite_phase
from .validation import POSITIVE, RANGE, Rule, as_complex_matrix, as_complex_vector, check, check_integer
from .validation import finite_energy

_COHERENCE_BLOCK = 128  # Gram rows per block of the mutual-coherence sweep
_HEAD_ROWS = 16  # matrix rows in the head screen of the mutual-coherence sweep
_DENSE_BLOCK = 64  # rows of a dense dictionary conjugated, or its columns formed, at a time
_BLOCK_ENTRIES = 2**16
"""Entries of one block of the analytics kernels: the columns of a mutual-
coherence pass, the draws of the sparsity level and the rows of the exact
coherence kernel are formed this many entries at a time (1 MiB of complex
values), so their memory does not grow with the trials or with M."""
_BRACKET_PAD = 1e-6
"""Widening of the mean-column-energy bracket, relative to lambda_max of A A^H."""


def dft_grid(n_antennas: int) -> np.ndarray:
    """Angular grid sin(theta_n) = (2n - N - 1)/N for n = 1..N."""
    n = np.arange(1, n_antennas + 1)
    return (2 * n - n_antennas - 1) / n_antennas


class Dictionary:
    """An N x M sparsifying dictionary with transformer-style helpers.

    ``sensing_operator`` gives the ``SensingProduct`` of ``pilots @ D``,
    ``transform`` maps channel vectors to coefficients via the adjoint, and
    ``inverse_transform`` synthesises channels from coefficients, its exact
    inverse for the unitary chirped dictionaries (``build_dmu``, ``build_dft``).

    The chirped dictionaries are not stored densely. With
    half-wavelength spacing ``D_mu = diag(b_mu) F`` and ``F = diag(s) W``,
    where ``W`` is the unitary inverse DFT and ``s_n = exp(-j*pi*n*(N-1)/N)``
    carries the centring of the angular grid, so all three products apply
    the length-N chirp ``c = b_mu * s`` and one FFT along the antenna axis,
    in O(N log N) per vector. Their ``matrix`` is built on first access and
    cached: column n is the second-order steering vector at
    (theta_n, mu cos^2(theta_n)) on the DFT grid, formed in place by
    ``_steering_columns`` (mu = inf gives the DFT), so the build holds the
    matrix once; their sensing matrix is formed by the FFT. The polar
    baseline has a different quadratic term on every ring, so it keeps a
    dense matrix and dense products, and its sensing matrix ``pilots @ D``
    is left unformed. A dense matrix out of ``_ENERGY_RANGE`` (not the
    polar grid) is also kept scaled into range, for its products to read.

    ``matrix`` and ``row_gram_range`` are read-only caches, each built on
    its first read and never changed after; an instance is otherwise
    immutable. A cache is built under the instance's lock, so threads that
    read it for the first time at once build it once and all read that one.
    """

    def __init__(self, matrix, mu: float = None, cfg=None):
        """Dense dictionary from ``matrix``, or with ``matrix=None`` the chirped
        dictionary ``diag(b_vector(cfg, mu)) F`` of a half-wavelength array."""
        self.mu = mu
        self._cfg = cfg
        self._row_gram_range = None
        self._scaled, self._shift = None, 0  # the copy products read, if any
        self._lock = threading.RLock()  # reentrant: row_gram_range reads matrix
        if matrix is None:
            n = cfg.n_antennas
            shift = np.exp(-1j * np.pi * np.arange(n) * (n - 1) / n)
            self._chirp = b_vector(cfg, mu) * shift
            self._matrix = None
            self.shape = (n, n)
        else:
            self._chirp = None
            self._matrix = as_complex_matrix(matrix, "matrix")
            scaled, _, self._shift = scale_into_range(self._matrix, "matrix")
            self._scaled = None if scaled is self._matrix else scaled
            self._matrix.setflags(write=False)
            self.shape = self._matrix.shape

    @property
    def matrix(self) -> np.ndarray:
        """The dense N x M matrix (read-only; chirped kinds build it on first access)."""
        if self._matrix is None:
            with self._lock:
                if self._matrix is None:
                    grid = dft_grid(self.n_antennas)
                    matrix = np.empty(self.shape, dtype=np.complex128)
                    _steering_columns(self._cfg, grid, self.mu * (1.0 - grid**2), matrix)
                    matrix.setflags(write=False)
                    self._matrix = matrix
        return self._matrix

    @property
    def row_gram_range(self) -> tuple:
        """The extreme eigenvalues ``(lambda_min, lambda_max)`` of ``D D^H``,
        D as its products read it, from one N^3 ``eigvalsh`` on first
        access, cached; the Gram is not kept."""
        if self._row_gram_range is None:
            with self._lock:
                if self._row_gram_range is None:
                    eigs = np.linalg.eigvalsh(self._lower_row_gram())
                    self._row_gram_range = (float(eigs[0]), float(eigs[-1]))
        return self._row_gram_range

    def _lower_row_gram(self) -> np.ndarray:
        """The lower triangle of ``D D^H``, which ``eigvalsh`` reads, by blocks
        of ``_DENSE_BLOCK`` columns, each the product of the rows from the
        block's first on with one conjugated block of rows; no N x M copy."""
        matrix = self._product_matrix()
        n = matrix.shape[0]
        gram = np.zeros((n, n), dtype=np.complex128)
        for start in range(0, n, _DENSE_BLOCK):
            block = slice(start, start + _DENSE_BLOCK)
            gram[start:, block] = matrix[start:] @ np.conj(matrix[block]).T
        return gram

    def _product_matrix(self) -> np.ndarray:
        """The matrix a product ``pilots @ D`` reads: D, or its copy scaled into range."""
        return self.matrix if self._scaled is None else self._scaled

    @property
    def chirped(self) -> bool:
        """Whether this is a chirped dictionary, applied through its chirp and one FFT."""
        return self._chirp is not None

    @property
    def n_antennas(self) -> int:
        return self.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.shape[1]

    def sensing_operator(self, pilots, overwrite: bool = False) -> "SensingProduct":
        """The ``SensingProduct`` of ``pilots @ D`` for T x N pilots, finite
        and not all zero. The chirped kinds form X with one FFT, in
        O(T N log N), and read it in place; with ``overwrite``, to the same
        bits, in the buffer of writable complex128 pilots, which then hold
        it. A dense dictionary's reader, which would cost T N M to form,
        holds P and D. Finite pilots so large that their X overflows, and
        that were not overwritten, are formed again scaled by the power of
        two of ``unit_exponent``, which the reader adds to its ``shift``."""
        if self._chirp is None:
            return SensingProduct(pilots, self)
        arr = as_complex_matrix(pilots, "pilots")
        _check_length(arr, self.n_antennas, "pilot rows")
        buf = self._chirped_product(arr, arr if overwrite and arr.flags.writeable else None)
        try:
            return SensingProduct(buf)
        except ValueError:
            if buf is arr or np.isfinite(buf).all() or not np.isfinite(arr).all():
                raise
        shift = unit_exponent(arr)
        scaled = complex_ldexp(arr, shift)
        return SensingProduct(self._chirped_product(scaled, scaled), shift=shift)

    def _chirped_product(self, arr: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``arr @ D`` by the chirp and one FFT, formed in ``out`` if given,
        and transformed in place: one T x N array, not two. A non-finite or
        overflowing X is left for the reader to reject."""
        with np.errstate(invalid="ignore", over="ignore"):
            buf = np.multiply(arr, self._chirp, out=out)
            return np.fft.ifft(buf, axis=1, norm="ortho", out=buf)

    def transform(self, X) -> np.ndarray:
        """Adjoint analysis: channel rows (or a single vector) to coefficients."""
        arr, single = _as_rows(X)
        _check_length(arr, self.n_antennas, "vectors")
        if self._chirp is None:
            # conj(conj(x) D) = x conj(D), without a conjugated copy of D
            out = np.conj(np.conj(arr) @ self._matrix)
        else:
            # transformed in place, as in sensing_operator: one array, not two
            buf = np.conj(self._chirp) * arr
            out = np.fft.fft(buf, axis=1, norm="ortho", out=buf)
        return out[0] if single else out

    def inverse_transform(self, X) -> np.ndarray:
        """Synthesis: coefficient rows (or a single vector) to channels. A
        dense dictionary reads only the columns that some row uses (a nonzero
        or non-finite coefficient): a sparse estimate costs N per nonzero,
        not N M, and the terms left out are exact zeros."""
        arr, single = _as_rows(X)
        _check_length(arr, self.n_atoms, "coefficient vectors")
        if self._chirp is None:
            cols = np.flatnonzero(np.any(arr != 0, axis=0))
            out = arr[:, cols] @ self._matrix[:, cols].T
        else:
            out = self._chirp * np.fft.ifft(arr, axis=1, norm="ortho")
        return out[0] if single else out

    def __repr__(self):
        mu = "" if self.mu is None else f", mu={self.mu!r}"
        return f"Dictionary(shape={self.shape}{mu})"


class SensingProduct:
    """The T x M sensing matrix X that every solver and probe reads: the
    product P A of pilots P and a dense dictionary A, read through its
    factors and never formed, which would cost T N M, or, with no
    dictionary, a formed complex X, read in place (``pilots`` is None).

    P or X must be finite and not all zero (``ValueError`` names it
    ``name``); it is checked once, when the reader is built, and held as
    ``scale_into_range`` returns it (the reader reads ``2**shift`` X), with
    its sum of squares; a product adds the power of two of the dictionary's
    scaled copy, if it reads one. ``read(cols, out=None)`` is the block of
    the columns ``cols``: of a formed X a view for a slice, of a product
    ``P A[:, cols]``, formed in the flat buffer ``out`` if given.
    ``correlate(r)`` is ``r^H X``, ``(r^H P) A`` of a product (T N + N M).
    ``scaled(shifts)`` reads X with column j scaled by ``2**shifts[j]``.
    A reader holds no per-draw state: once built it does not change, so
    fits at several block sizes, or in several threads, can share one.
    The mean column energy E = ||X||_F^2 / M of a formed X is exact, and its
    ``energy_bracket`` has zero width. A product sums E (T N M) on each
    read, one ``_blocks`` block of columns at a time through one buffer,
    never holding the T x M product, and bounds E from ||P||_F^2 and the
    extreme eigenvalues of ``A A^H`` (see ``recovery._best_prefix``), which
    the dictionary computes once, when a draw first needs them.
    ``rank_bound`` is min(T, N) of a product and min(T, M) of a formed X.
    """

    def __init__(self, pilots, dictionary: Dictionary = None, name: str = "pilots", shift: int = 0):
        """``shift``: ``pilots`` already holds ``2**shift`` times the P or X it stands for."""
        self.dictionary = dictionary
        arr = as_complex_matrix(pilots, name)
        if dictionary is not None:
            _check_length(arr, dictionary.n_antennas, "pilot rows")
        arr, self._energy, self.shift = scale_into_range(arr, name)
        if not self._energy:
            raise ValueError(f"{name} must not be all zero")
        self.pilots, self._atoms = (None, arr) if dictionary is None else (arr, dictionary._product_matrix())
        self.shift += shift if dictionary is None else shift + dictionary._shift
        self.shape = (len(arr), self._atoms.shape[1])
        self.rank_bound = min(arr.shape)

    def scaled(self, shifts: np.ndarray) -> "SensingProduct":
        """X with column j scaled by ``2**shifts[j]``, for ``mutual_coherence``."""
        reader = copy.copy(self)
        reader._atoms = complex_ldexp(self._atoms, shifts)
        return reader

    @property
    def mean_col_energy(self) -> float:
        if self.pilots is None:
            return self._energy / self.shape[1]
        blocks = _blocks(self.shape[1], self.shape[0])
        buffer = self._read_buffer(blocks)
        return sum(float(_column_energy(self.read(cols, buffer)).sum()) for cols in blocks) / self.shape[1]

    def _read_buffer(self, blocks: list):
        """A flat buffer for ``read`` of each of the column slices ``blocks``
        (``_blocks``, the first the widest), or None for a formed X, whose
        slices are read as views."""
        if self.pilots is None:
            return None
        return np.empty(self.shape[0] * min(blocks[0].stop, self.shape[1]), dtype=np.complex128)

    def energy_bracket(self) -> tuple:
        if self.pilots is None:
            return (self.mean_col_energy,) * 2
        # lambda_min ||P||_F^2 / M <= E <= lambda_max ||P||_F^2 / M, padded for rounding
        lo, hi = self.dictionary.row_gram_range
        pad = _BRACKET_PAD * hi
        scale = self._energy / self.shape[1]
        return max(lo - pad, 0.0) * scale, (hi + pad) * scale

    def read(self, cols, out: np.ndarray = None) -> np.ndarray:
        block = self._atoms[:, cols]
        if self.pilots is None:
            return block
        if out is not None:
            out = out[: self.shape[0] * block.shape[1]].reshape(self.shape[0], -1)
        return np.matmul(self.pilots, block, out=out)

    def correlate(self, resid: np.ndarray) -> np.ndarray:
        # r^H X without conjugating X (|r^H X| = |X^H r|)
        left = np.conj(resid)
        return (left if self.pilots is None else left @ self.pilots) @ self._atoms


def as_sensing(X, name: str) -> SensingProduct:
    """``X`` if it is a ``SensingProduct``, else the reader of the formed
    matrix ``X``, checked and scaled as ``name``."""
    return X if isinstance(X, SensingProduct) else SensingProduct(X, name=name)


def _as_rows(X):
    """``X`` as complex rows, and whether it was a single vector."""
    arr = np.asarray(X, dtype=np.complex128)
    if arr.ndim not in (1, 2):
        raise ValueError(f"X must be 1-D or 2-D, got shape {arr.shape}")
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


def _blocks(count: int, length: int) -> list:
    """Slices of ``count`` vectors of ``length`` entries, as many to a slice
    as ``_BLOCK_ENTRIES`` holds (at least one)."""
    width = max(1, _BLOCK_ENTRIES // length)
    return [slice(start, start + width) for start in range(0, count, width)]


def _check_length(rows, length: int, what: str):
    if rows.shape[1] != length:
        raise ValueError(f"expected {what} of length {length}, got {rows.shape[1]}")


def half_wavelength(wavelength: float) -> Rule:
    """The rule of spacings of half a ``wavelength``, which the dictionary grids assume."""
    return Rule(
        lambda d: abs(d - wavelength / 2) <= 1e-12 * wavelength,
        f"must be half the wavelength, {wavelength / 2!r} m, for the dictionary grids",
    )


def polar_range(cfg: ArrayConfig, r_min: float = None, r_max: float = None) -> tuple:
    """Distance range of the polar rings; an end not given defaults to the
    Fresnel and the Rayleigh distance."""
    fresnel, rayleigh = field_boundaries(cfg)
    return fresnel if r_min is None else r_min, rayleigh if r_max is None else r_max


def _steering_columns(cfg: ArrayConfig, sines: np.ndarray, radii: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The second-order steering vectors at ``(sines[j], radii[j])``, one per
    column j of ``out`` (N x len(sines)), with r = inf the plane-wave
    response. They are formed in place through ``_steering``,
    ``_DENSE_BLOCK`` columns at a time, so a build holds ``out`` and the real
    phase of one block of columns."""
    for start in range(0, out.shape[1], _DENSE_BLOCK):
        cols = slice(start, start + _DENSE_BLOCK)
        _steering(cfg, sines[cols], radii[cols], "taylor", out=out[:, cols])
    return out


def build_dmu(cfg: ArrayConfig, mu: float) -> Dictionary:
    """Unitary chirped dictionary for one effective distance (inf gives the DFT)."""
    check(cfg.spacing, "spacing", half_wavelength(cfg.wavelength))
    return Dictionary(None, mu=mu, cfg=cfg)


def build_dft(cfg: ArrayConfig) -> Dictionary:
    """Plain DFT dictionary (the chirped dictionary at infinite effective distance)."""
    return build_dmu(cfg, math.inf)


def build_polar_baseline(
    cfg: ArrayConfig, n_rings: int = 6, distance_range: tuple = None
) -> Dictionary:
    """Overcomplete angle x distance dictionary used as the comparison baseline.

    Ring 0 sits at r = inf (plane-wave atoms, identical to the DFT columns);
    the remaining ``n_rings - 1`` rings sample 1/r uniformly over the given
    distance range (default: ``polar_range(cfg)``). Columns are grouped
    ring-major so ``n_rings = 1`` reduces exactly to the DFT. Every ring,
    ring 0 included, is formed in place by ``_steering_columns``, the
    former of the chirped dictionaries' dense matrix, on the ring-major
    (sin(theta), r) grid, so the build holds the matrix once.
    """
    check(cfg.spacing, "spacing", half_wavelength(cfg.wavelength))
    n_rings = check_integer(n_rings, "n_rings", 1)
    lo, hi = polar_range(cfg) if distance_range is None else distance_range
    for end, name in ((lo, "distance_range[0]"), (hi, "distance_range[1]")):
        check(end, name, POSITIVE)
        check(end, name, finite_phase(cfg))
    check((lo, hi), "distance_range", RANGE)
    radii = np.append(math.inf, 1.0 / np.linspace(1.0 / hi, 1.0 / lo, n_rings - 1))
    n = cfg.n_antennas
    matrix = np.empty((n, n * n_rings), dtype=np.complex128)
    _steering_columns(cfg, np.tile(dft_grid(n), n_rings), np.repeat(radii, n), matrix)
    return Dictionary(matrix)


def analyze(dictionary: Dictionary, h) -> np.ndarray:
    """Coefficients beta = D^H h of one channel; exact for unitary dictionaries."""
    return dictionary.transform(as_complex_vector(h, "h"))


def _screen_margin(n_rows: int) -> float:
    """Bound on the error of one head-screen entry ``|h_ij|`` of
    ``mutual_coherence``, the complex64 product of ``n_rows`` head rows.

    For columns x_i, x_j of norm at most 1 (the heads of unit columns), with
    u = 2^-24 the unit roundoff of complex64 and gamma(n) = n u / (1 - n u)
    (Higham, *Accuracy and Stability of Numerical Algorithms*, sections 3.1
    and 3.6):

    - the cast to complex64 moves each entry by at most u relative, so
      x_i^H x_j moves by at most (2u + u^2) |x_i|^T |x_j| <= 2u + u^2;
    - the real and imaginary parts of x_i^H x_j are each a sum of 2k real
      products (k = ``n_rows``); summed in any order, with or without fused
      multiply-adds, each errs by at most gamma(2k) |x_i|^T |x_j|, so the
      complex value errs by at most sqrt(2) gamma(2k) (1 + u)^2;
    - underflow, gradual or flushed to zero, adds at most the smallest
      normal 2^-126 per real product or sum (4k per part) and per input
      entry flushed by the cast; 16k of them bound both;
    - ``abs`` rounds once more, by at most 2u of its result.

    The 1% slack covers the float64 normalisation. The tail term
    ``t_i t_j`` is summed in float32: t_i is the norm of the tail rows,
    summed directly, over the column norm, so its float64 error is relative,
    of order T 2^-53, and the cast to float32, the product and the sum add
    at most 5u in all (``1 - |h_i|^2`` would cancel instead: an error d in it
    moves t_i by up to sqrt(d)). Threshold tau - 2 ``_screen_margin(k)``
    leaves ``_screen_margin(k)`` for these and for the float64 rounding of
    tau; for T > 16 that is ``_screen_margin(16)``, about 3e-6, against
    5u = 3e-7, and for T <= 16 the tails are zero and add nothing.
    """
    u = 2.0**-24
    n = 2 * n_rows
    gamma = n * u / (1 - n * u) if n * u < 1 else math.inf
    inner = 2 * u + u * u + math.sqrt(2) * gamma * (1 + u) ** 2 + 16 * n_rows * 2.0**-126
    return 1.01 * (inner + 2 * u * (1 + inner))


# sums of squares whose square roots and pairwise products neither over- nor
# underflow: BlockOMP's correlations and mutual_coherence's Gram entries
_ENERGY_RANGE = (2.0**-400, 2.0**400)


def unit_exponent(z: np.ndarray, axis: int = None):
    """The power of two that brings the largest real or imaginary part of
    ``z`` (along ``axis``, if given) into [0.5, 1); 0 for zeros."""
    return -np.frexp(np.maximum(np.abs(z.real).max(axis=axis), np.abs(z.imag).max(axis=axis)))[1]


def complex_ldexp(z: np.ndarray, shift) -> np.ndarray:
    """``z * 2**shift`` for a complex ``z``, exact for entries that stay in the normal range."""
    out = np.empty_like(z)
    out.real = np.ldexp(z.real, shift)
    out.imag = np.ldexp(z.imag, shift)
    return out


def scale_into_range(arr: np.ndarray, name: str) -> tuple:
    """``(2**shift * arr, its sum of squares, shift)``, or ``ValueError`` naming
    a non-finite ``arr``. Out of ``_ENERGY_RANGE``, ``arr`` is scaled by the
    power of two that brings its largest real or imaginary part into [0.5, 1),
    which moves no rounded result; in range it is returned as it is, shift 0."""
    energy = finite_energy(arr, name)
    if _ENERGY_RANGE[0] <= energy <= _ENERGY_RANGE[1]:
        return arr, energy, 0
    shift = unit_exponent(arr)
    arr = complex_ldexp(arr, shift)
    return arr, finite_energy(arr, name), shift


def _column_energy(x: np.ndarray) -> np.ndarray:
    """Per-column sums of squares of a complex ``x``."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):  # checked by the caller
        return np.einsum("ij,ij->j", x.real, x.real) + np.einsum("ij,ij->j", x.imag, x.imag)


def _screen_maxima(screen: np.ndarray, tails: np.ndarray, starts, stops) -> tuple:
    """Maxima of ``|s_i^H s_j| + t_i t_j`` per row i and per column j of the
    columns s of ``screen``, over the pairs that row block b meets: its rows
    b B to (b + 1) B, with B = ``_COHERENCE_BLOCK``, against the columns
    ``starts[b]`` to ``stops[b]``. A span that starts at the block's first
    row meets only the columns after each row (j > i). The maxima are 0
    where a row or a column meets no pair."""
    n_cols = screen.shape[1]
    row_max, col_max = np.zeros(n_cols), np.zeros(n_cols)
    lower = np.tri(_COHERENCE_BLOCK, dtype=bool)  # j <= i in a block's own columns
    for lo, start, stop in zip(range(0, n_cols, _COHERENCE_BLOCK), starts, stops):
        if start >= stop:
            continue
        hi = min(lo + _COHERENCE_BLOCK, n_cols)
        left = screen[:, lo:hi].conj().T
        block = np.abs(left @ screen[:, start:stop])
        block += np.multiply.outer(tails[lo:hi], tails[start:stop])
        if start == lo:
            block[:, : hi - lo][lower[: hi - lo, : hi - lo]] = 0.0
        np.maximum(row_max[lo:hi], block.max(axis=1), out=row_max[lo:hi])
        np.maximum(col_max[start:stop], block.max(axis=0), out=col_max[start:stop])
    return row_max, col_max


def _exact_maximum(read, norms: np.ndarray, candidates: np.ndarray) -> float:
    """Largest float64 ``|x_i^H x_j| / (n_i n_j)``, or nan if one is nan, over
    the pairs i < j of the ``candidates`` (ascending, distinct), of the
    columns that ``read(idx)`` returns (``SensingProduct.read``). Row blocks
    of at most ``_COHERENCE_BLOCK`` candidates each meet the candidates after
    the block's first, read at most that many at a time."""
    best = 0.0
    for k in range(0, candidates.size, _COHERENCE_BLOCK):
        chunk = candidates[k : k + _COHERENCE_BLOCK]
        left = read(chunk).T  # a copy, conjugated in place
        np.conjugate(left, out=left)
        later = candidates[k + 1 :]
        for lo in range(0, later.size, _COHERENCE_BLOCK):
            part = later[lo : lo + _COHERENCE_BLOCK]
            block = np.abs(left @ read(part))
            block /= np.outer(norms[chunk], norms[part])
            block[chunk[:, None] == part] = 0.0  # i == j
            best = np.maximum(best, block.max())  # propagates a nan, unlike max()
    return best


def _column_pass(read, blocks: list, n_head: int, n_cols: int, buffer) -> tuple:
    """The sums of squares of the ``n_head`` head rows and of the tail rows
    of every column, and the head rows over the column norms in complex64,
    read one block of columns at a time (a product's into ``buffer``)."""
    head_energy, tail_energy = np.empty(n_cols), np.empty(n_cols)
    head = np.empty((n_head, n_cols), dtype=np.complex64)
    # a column out of range is read again scaled, and a zero or non-finite
    # one (a product that overflows) rejected, after the pass
    with np.errstate(all="ignore"):
        for cols in blocks:
            block = read(cols, buffer)
            head_energy[cols] = _column_energy(block[:n_head])
            tail_energy[cols] = _column_energy(block[n_head:])
            norms = np.sqrt(head_energy[cols] + tail_energy[cols])
            np.divide(block[:n_head], norms, out=head[:, cols], casting="same_kind")
    return head_energy, tail_energy, head


def mutual_coherence(matrix) -> float:
    """Largest normalised inner product between distinct columns, at most 1.

    ``matrix`` is a ``SensingProduct`` (``Dictionary.sensing_operator``;
    a dense dictionary's P A is never formed), or a formed T x M matrix,
    finite and not all zero, wrapped in one (``as_sensing``). It is read
    through ``SensingProduct.read``, a block of columns at a time
    (``_blocks``: at most ``_BLOCK_ENTRIES`` entries); a formed matrix's
    blocks are views of it. The memory beyond the input is one block of a
    product, the complex64 head rows below and the candidate columns of
    stage 2, however large T and M.

    For unit columns u_i, u_j split into a head of k = min(T, ``_HEAD_ROWS``)
    rows and the tail after it, of norms s_i and t_i (s_i^2 + t_i^2 = 1),
    Cauchy-Schwarz bounds ``|u_i^H u_j| <= |h_ij| + t_i t_j``, with ``h_ij``
    the inner product of the heads, and ``|h_ij| <= s_i s_j``. With the angle
    ``a_i = atan2(s_i, t_i)`` that gives
    ``|u_i^H u_j| <= s_i s_j + t_i t_j = cos(a_i - a_j)``. Two stages:

    1. Head screen in angle order: one pass over the column blocks takes the
       sums of squares of the head and tail rows, and the k head rows over
       the column norm, cast to complex64; t is the tail norm over the
       column norm. The columns are sorted by a. Row blocks of at most
       ``_COHERENCE_BLOCK`` rows reduce ``|h_ij| + t_i t_j`` over their pairs
       i < j to per-row and per-column maxima, at k complex64 multiply-adds
       a pair:
       a. each block meets its own columns and the next block's; the exact
          float64 row of the row with the largest bound, x^H times every
          column (``(x^H P) A`` for a product), gives tau, the value of a
          real pair, so the maximum is at least tau;
       b. each block then meets the later columns whose angle lies within
          ``acos(tau - 3 _screen_margin(k))`` of its last row's. Every pair
          further apart has ``|u_i^H u_j| <= cos(a_j - a_i)`` below
          ``tau - 3 _screen_margin(k)``, plus the rounding of the angles
          (of order 2^-52), so below tau: no skipped pair is the maximum.
    2. Exact pass: only a pair whose bound is at least
       ``tau - 2 _screen_margin(k)`` can hold the maximum. The columns that
       begin or end such a pair are the candidates, and all their pairs are
       computed in float64 from the original columns,
       ``|x_i^H x_j| / (n_i n_j)``, reading at most ``_COHERENCE_BLOCK``
       candidate columns at a time (``P A[:, cand]`` for a product).

    On an N = 256 polar sensing matrix (M = 1536) step 1b adds no pair, so
    the screen meets 23.6% of the M (M - 1) / 2 pairs, and stage 2 is 4-12
    columns. On a low-coherence matrix the tails are near 1, the band spans
    every angle, stage 1 rules out nothing and stage 2 is the float64 sweep
    of the upper triangle.

    When a column sum of squares lies outside ``_ENERGY_RANGE``, every
    column is scaled by the power of two that brings its largest real or
    imaginary part into [0.5, 1) (the columns of A, for a product), and the
    pass is made again; in range the columns are used as they are. A formed
    matrix whose whole sum of squares is out of range, which ``as_sensing``
    would scale by one power of two, is scaled so column by column, from
    the columns as given, before it is wrapped; so is the A of a product
    that its ``Dictionary`` keeps scaled by one power of two. The
    result is capped at 1, which a quotient of near-parallel columns can
    exceed by rounding.
    """
    reader = as_sensing(matrix, "matrix")
    # a formed X, or the A of a product P A, out of range was scaled by one
    # power of two, which can flush its smallest columns to zero: scale each
    # column as given instead
    if reader is not matrix and reader.shift:
        formed = np.asarray(matrix, dtype=np.complex128)
        reader = as_sensing(complex_ldexp(formed, unit_exponent(formed, axis=0)), "matrix")
    elif reader.dictionary is not None and reader.dictionary._scaled is not None:
        atoms = reader.dictionary.matrix
        reader = Dictionary(complex_ldexp(atoms, unit_exponent(atoms, axis=0))).sensing_operator(reader.pilots)
    matrix = reader
    n_rows, n_cols = matrix.shape
    if n_cols < 2:
        raise ValueError("mutual coherence needs at least two columns")
    n_head = min(n_rows, _HEAD_ROWS)
    blocks = _blocks(n_cols, n_rows)
    # a product forms every block of the pass in one buffer, released after
    # it: with a new array per block, malloc handed the pages back between
    # blocks and faulted them in again, 9% of a desk run's time
    buffer = matrix._read_buffer(blocks)
    head_energy, tail_energy, head = _column_pass(matrix.read, blocks, n_head, n_cols, buffer)
    energy = head_energy + tail_energy
    if not np.all((energy >= _ENERGY_RANGE[0]) & (energy <= _ENERGY_RANGE[1])):
        # coherence is scale-invariant, and a power of two moves no rounded result
        with np.errstate(over="ignore", invalid="ignore"):  # a product that overflows is rejected below
            shifts = np.concatenate([unit_exponent(matrix.read(cols, buffer), axis=0) for cols in blocks])
        matrix = matrix.scaled(shifts)
        head_energy, tail_energy, head = _column_pass(matrix.read, blocks, n_head, n_cols, buffer)
        energy = head_energy + tail_energy
    del buffer
    if np.any(energy == 0):
        raise ValueError("mutual coherence is undefined for zero columns")
    if not np.all(np.isfinite(energy)):
        raise ValueError("mutual coherence needs finite columns")
    norms = np.sqrt(energy)

    # 1. head screen of |h_ij| + t_i t_j in angle order: the pairs of
    # neighbouring blocks give tau, then the band of the angle gaps whose
    # cosine reaches tau - 3 margin
    angles = np.arctan2(np.sqrt(head_energy), np.sqrt(tail_energy))
    order = np.argsort(angles, kind="stable")
    angles = angles[order]
    head = head[:, order]
    tails = (np.sqrt(tail_energy[order]) / norms[order]).astype(np.float32)
    firsts = np.arange(0, n_cols, _COHERENCE_BLOCK)
    near = np.minimum(firsts + 2 * _COHERENCE_BLOCK, n_cols)
    row_bound, col_bound = _screen_maxima(head, tails, firsts, near)
    top = order[row_bound.argmax()]
    exact_row = np.abs(matrix.correlate(matrix.read([top])[:, 0])) / (norms[top] * norms)
    exact_row[top] = 0.0
    margin = _screen_margin(n_head)
    threshold = exact_row.max() - 2 * margin
    reach = math.acos(threshold - margin)  # 0 <= tau <= 1 + rounding
    lasts = np.minimum(firsts + _COHERENCE_BLOCK, n_cols) - 1
    stops = np.searchsorted(angles, angles[lasts] + reach, side="right")
    far_rows, far_cols = _screen_maxima(head, tails, near, stops)
    del head
    np.maximum(row_bound, far_rows, out=row_bound)
    np.maximum(col_bound, far_cols, out=col_bound)

    # 2. float64 pairs of the columns that begin or end a candidate pair
    candidates = np.union1d(order[row_bound >= threshold], order[col_bound >= threshold])
    return float(np.minimum(_exact_maximum(matrix.read, norms, candidates), 1.0))
