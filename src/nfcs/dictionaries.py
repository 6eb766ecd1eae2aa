"""Sparsifying dictionaries: chirped unitary, DFT, and polar-grid baseline.

The chirped dictionary multiplies the DFT matrix by a diagonal quadratic-phase
(chirp) matrix tied to one effective distance, which keeps it unitary while
its columns approximate spherical-wavefront array responses. The polar
baseline jointly grids angle and distance and is overcomplete.
"""

import math
import threading

import numpy as np

from .geometry import ArrayConfig, _steering, b_vector, field_boundaries, finite_phase
from .validation import POSITIVE, RANGE, Rule, as_complex_matrix, as_complex_vector, check, check_integer
from .validation import finite_energy

_COHERENCE_BLOCK = 128  # Gram rows per block of the mutual-coherence sweep
_HEAD_ROWS = 16  # matrix rows in the head screen of the mutual-coherence sweep
_BRACKET_PAD = 1e-6
"""Widening of the mean-column-energy bracket, relative to lambda_max of A A^H."""


def dft_grid(n_antennas: int) -> np.ndarray:
    """Angular grid sin(theta_n) = (2n - N - 1)/N for n = 1..N."""
    n = np.arange(1, n_antennas + 1)
    return (2 * n - n_antennas - 1) / n_antennas


class Dictionary:
    """An N x M sparsifying dictionary with transformer-style helpers.

    ``sense`` forms the sensing matrix ``pilots @ D``, ``transform`` maps
    channel vectors to coefficients via the adjoint, and ``inverse_transform``
    synthesises channels from coefficients. For the unitary chirped
    dictionaries (``build_dmu``, ``build_dft``) the two are exact inverses.

    The chirped dictionaries are not stored densely. With
    half-wavelength spacing ``D_mu = diag(b_mu) F`` and ``F = diag(s) W``,
    where ``W`` is the unitary inverse DFT and ``s_n = exp(-j*pi*n*(N-1)/N)``
    carries the centring of the angular grid, so all three products apply
    the length-N chirp ``c = b_mu * s`` and one FFT along the antenna axis,
    in O(N log N) per vector. Their ``matrix`` is built on first access from
    the closed form ``b_mu[:, None] * F`` and cached. The polar baseline has
    a different quadratic term on every ring, so it keeps a dense matrix and
    dense products; a solver reads its sensing matrix through
    ``sensing_operator``, which leaves ``pilots @ D`` unformed.

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
            finite_energy(self._matrix, "matrix")
            self._matrix.setflags(write=False)
            self.shape = self._matrix.shape

    @property
    def matrix(self) -> np.ndarray:
        """The dense N x M matrix (read-only; chirped kinds build it on first access)."""
        if self._matrix is None:
            with self._lock:
                if self._matrix is None:
                    matrix = b_vector(self._cfg, self.mu)[:, None] * _far_matrix(self._cfg)
                    matrix.setflags(write=False)
                    self._matrix = matrix
        return self._matrix

    @property
    def row_gram_range(self) -> tuple:
        """The extreme eigenvalues ``(lambda_min, lambda_max)`` of ``D D^H``,
        from one N^3 ``eigvalsh`` on first access, cached; the Gram is not kept."""
        if self._row_gram_range is None:
            with self._lock:
                if self._row_gram_range is None:
                    eigs = np.linalg.eigvalsh(self.matrix @ np.conj(self.matrix.T))
                    self._row_gram_range = (float(eigs[0]), float(eigs[-1]))
        return self._row_gram_range

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

    def sense(self, pilots, overwrite: bool = False) -> np.ndarray:
        """Sensing matrix ``pilots @ D`` for a T x N pilot block.

        With ``overwrite`` a chirped dictionary forms it in the buffer of
        writable complex128 pilots, which then hold the product; the result
        is the same to the bit. A dense dictionary ignores it.
        """
        arr = as_complex_matrix(pilots, "pilots")
        _check_length(arr, self.n_antennas, "pilot rows")
        if self._chirp is None:
            return arr @ self._matrix
        # the product is transformed in place: one T x N array, not two
        buf = np.multiply(arr, self._chirp, out=arr if overwrite and arr.flags.writeable else None)
        return np.fft.ifft(buf, axis=1, norm="ortho", out=buf)

    def sensing_operator(self, pilots, overwrite: bool = False):
        """The sensing matrix ``pilots @ D`` in the form a solver reads it.

        The chirped kinds return ``sense(pilots, overwrite)``, which one FFT
        forms in O(T N log N). A dense dictionary returns a
        ``SensingProduct``: the T x M product would cost T N M to form, while
        a solver only needs its correlations and a few of its columns.
        """
        return self.sense(pilots, overwrite) if self._chirp is not None else SensingProduct(pilots, self)

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
        return f"Dictionary(shape={self.shape}{mu})"


class SensingProduct:
    """The T x M sensing matrix ``P A`` of pilots P and a dense dictionary A,
    read through the factors without forming it, which would cost T N M.

    P must be finite and not all zero; it is held as ``scale_into_range``
    returns it (the product reads ``2**shift P A``), with its ||P||_F^2.
    ``correlate(r)`` is ``(r^H P) A`` (T N + N M). ``columns(idx)`` reads any
    index set, forming each column ``P a_j`` on its own on its first read, so
    its bits do not depend on the reads around it, and keeping it for the
    draw (P must not change meanwhile). The mean column energy
    E = ``||P A||_F^2 / M`` is read from the formed product (T N M) on each
    read; ``energy_bracket`` bounds it from ||P||_F^2 and the extreme
    eigenvalues of ``A A^H`` (see ``recovery._best_prefix``), which the
    dictionary computes once, when a draw first needs them. ``rank_bound``
    is min(T, N).
    """

    def __init__(self, pilots, dictionary: Dictionary):
        pilots = as_complex_matrix(pilots, "pilots")
        _check_length(pilots, dictionary.n_antennas, "pilot rows")
        self.pilots, self._pilot_energy, self.shift = scale_into_range(pilots, "pilots")
        if not self._pilot_energy:
            raise ValueError("pilots must not be all zero")
        self.dictionary = dictionary
        self.shape = (pilots.shape[0], dictionary.n_atoms)
        self.rank_bound = min(pilots.shape)
        self._columns = {}

    @property
    def mean_col_energy(self) -> float:
        formed = self.pilots @ self.dictionary.matrix
        return float(np.vdot(formed, formed).real) / self.shape[1]

    def energy_bracket(self) -> tuple:
        # lambda_min ||P||_F^2 / M <= E <= lambda_max ||P||_F^2 / M, padded for rounding
        lo, hi = self.dictionary.row_gram_range
        pad = _BRACKET_PAD * hi
        scale = self._pilot_energy / self.shape[1]
        return max(lo - pad, 0.0) * scale, (hi + pad) * scale

    def correlate(self, resid: np.ndarray) -> np.ndarray:
        return (np.conj(resid) @ self.pilots) @ self.dictionary.matrix

    def columns(self, idx) -> np.ndarray:
        for j in idx:
            if j not in self._columns:
                self._columns[j] = self.pilots @ self.dictionary.matrix[:, [j]]
        return np.concatenate([self._columns[j] for j in idx], axis=1)


def _as_rows(X):
    """``X`` as complex rows, and whether it was a single vector."""
    arr = np.asarray(X, dtype=np.complex128)
    if arr.ndim not in (1, 2):
        raise ValueError(f"X must be 1-D or 2-D, got shape {arr.shape}")
    if arr.ndim == 1:
        return arr[None, :], True
    return arr, False


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
    check(cfg.spacing, "spacing", half_wavelength(cfg.wavelength))
    return Dictionary(None, mu=mu, cfg=cfg)


def build_dft(cfg: ArrayConfig) -> Dictionary:
    """Plain DFT dictionary (the chirped dictionary at infinite effective distance)."""
    return build_dmu(cfg, math.inf)


def build_polar_baseline(
    cfg: ArrayConfig, n_rings: int = 6, distance_range: tuple = None
) -> Dictionary:
    """Overcomplete angle x distance dictionary used as the comparison baseline.

    Ring 0 sits at infinity (plane-wave atoms, identical to the DFT columns);
    the remaining ``n_rings - 1`` rings sample 1/r uniformly over the given
    distance range (default: ``polar_range(cfg)``). Columns are grouped
    ring-major so ``n_rings = 1`` reduces exactly to the DFT.
    """
    check(cfg.spacing, "spacing", half_wavelength(cfg.wavelength))
    n_rings = check_integer(n_rings, "n_rings", 1)
    lo, hi = polar_range(cfg) if distance_range is None else distance_range
    for end, name in ((lo, "distance_range[0]"), (hi, "distance_range[1]")):
        check(end, name, POSITIVE)
        check(end, name, finite_phase(cfg))
    check((lo, hi), "distance_range", RANGE)
    ring_radii = [math.inf]
    if n_rings > 1:
        inv = np.linspace(1.0 / hi, 1.0 / lo, n_rings - 1)
        ring_radii.extend(float(1.0 / v) for v in inv)
    grid = dft_grid(cfg.n_antennas)
    blocks = [
        _far_matrix(cfg) if math.isinf(radius) else _steering(cfg, grid, radius, "taylor")
        for radius in ring_radii
    ]
    return Dictionary(np.concatenate(blocks, axis=1))


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


def _screen_maxima(screen: np.ndarray, tails: np.ndarray) -> tuple:
    """Maxima of ``|s_i^H s_j| + t_i t_j`` over the pairs i < j of the
    columns s of ``screen``, per row i and per column j. Row blocks of at
    most ``_COHERENCE_BLOCK`` rows each meet the columns from the block's
    first row on."""
    n_cols = screen.shape[1]
    row_max = np.empty(n_cols)
    col_max = np.zeros(n_cols)
    for lo in range(0, n_cols, _COHERENCE_BLOCK):
        hi = min(lo + _COHERENCE_BLOCK, n_cols)
        left = screen[:, lo:hi].conj().T
        block = np.abs(left @ screen[:, lo:])
        block += np.multiply.outer(tails[lo:hi], tails[lo:])
        block[:, : hi - lo][np.tri(hi - lo, dtype=bool)] = 0.0  # j <= i
        row_max[lo:hi] = block.max(axis=1)
        np.maximum(col_max[lo:], block.max(axis=0), out=col_max[lo:])
    return row_max, col_max


def _exact_maximum(m: np.ndarray, norms: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> float:
    """Largest float64 ``|x_i^H x_j| / (n_i n_j)``, or nan if one is nan, over
    the pairs i != j with i in ``rows`` and j in ``cols`` (both ascending).
    Row blocks of at most ``_COHERENCE_BLOCK`` rows each meet the columns
    after the block's first row, gathered at most that many at a time."""
    best = 0.0
    for k in range(0, rows.size, _COHERENCE_BLOCK):
        chunk = rows[k : k + _COHERENCE_BLOCK]
        left = m[:, chunk].T  # a copy, conjugated in place
        np.conjugate(left, out=left)
        later = cols[np.searchsorted(cols, chunk[0], side="right") :]
        for lo in range(0, later.size, _COHERENCE_BLOCK):
            part = later[lo : lo + _COHERENCE_BLOCK]
            block = np.abs(left @ m[:, part])
            block /= np.outer(norms[chunk], norms[part])
            block[chunk[:, None] == part] = 0.0  # i == j
            best = np.maximum(best, block.max())  # propagates a nan, unlike max()
    return best


def mutual_coherence(matrix) -> float:
    """Largest normalised inner product between distinct columns, at most 1.

    For unit columns u_i, u_j split into a head of k = min(T, ``_HEAD_ROWS``)
    rows and the tail after it, Cauchy-Schwarz bounds
    ``|u_i^H u_j| <= |h_ij| + t_i t_j``, with ``h_ij`` the inner product of
    the heads and ``t_i`` the norm of u_i's tail. Two stages:

    1. Head screen: the k head rows are normalised in float64 and cast to
       complex64, and t is the tail norm over the column norm, both from one
       pass of sums of squares. Row blocks of at most ``_COHERENCE_BLOCK``
       rows sweep the upper triangle of ``|h_ij| + t_i t_j`` for its per-row
       and per-column maxima, at k M^2 / 2 complex64 multiply-adds. The
       exact float64 row of the row with the largest bound gives tau, the
       value of a real pair, so the maximum is at least tau.
    2. Exact pass: only the rows whose bound is at least
       ``tau - 2 _screen_margin(k)``, and the later columns whose bound is,
       can hold the maximum. Their pairs are computed in float64 from the
       original columns, ``|x_i^H x_j| / (n_i n_j)``, gathering at most
       ``_COHERENCE_BLOCK`` candidate columns at a time.

    On a polar sensing matrix stage 2 is a few rows and columns. On a
    low-coherence matrix the tails are near 1, stage 1 rules out nothing and
    stage 2 is the float64 sweep of the upper triangle.

    A matrix with a column sum of squares outside ``_ENERGY_RANGE`` is first
    scaled column by column by powers of two; in range it is used as it is.
    The result is capped at 1, which a quotient of near-parallel columns can
    exceed by rounding.
    """
    m = as_complex_matrix(matrix, "matrix")
    n_rows, n_cols = m.shape
    if n_cols < 2:
        raise ValueError("mutual coherence needs at least two columns")
    n_head = min(n_rows, _HEAD_ROWS)
    head_energy, tail_energy = _column_energy(m[:n_head]), _column_energy(m[n_head:])
    energy = head_energy + tail_energy
    if not np.all((energy >= _ENERGY_RANGE[0]) & (energy <= _ENERGY_RANGE[1])):
        # coherence is scale-invariant, and a power of two moves no rounded result
        m = complex_ldexp(m, unit_exponent(m, axis=0))
        head_energy, tail_energy = _column_energy(m[:n_head]), _column_energy(m[n_head:])
        energy = head_energy + tail_energy
    if np.any(energy == 0):
        raise ValueError("mutual coherence is undefined for zero columns")
    if not np.all(np.isfinite(energy)):
        raise ValueError("mutual coherence needs finite columns")
    norms = np.sqrt(energy)

    # 1. head screen: |h_ij| + t_i t_j, and tau from the row of the largest bound
    head = np.empty((n_head, n_cols), dtype=np.complex64)
    np.divide(m[:n_head], norms, out=head, casting="same_kind")
    tails = (np.sqrt(tail_energy) / norms).astype(np.float32)
    row_bound, col_bound = _screen_maxima(head, tails)
    del head
    top = row_bound.argmax()
    exact_row = np.abs(np.conj(m[:, top]) @ m) / (norms[top] * norms)
    exact_row[top] = 0.0
    threshold = exact_row.max() - 2 * _screen_margin(n_head)

    # 2. float64 pairs of the candidate rows and the later candidate columns
    rows, cols = np.flatnonzero(row_bound >= threshold), np.flatnonzero(col_bound >= threshold)
    return float(np.minimum(_exact_maximum(m, norms, rows, cols), 1.0))
