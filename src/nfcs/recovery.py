"""Pilot generation, noisy observation synthesis, and greedy block-sparse solvers."""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtri

from .coherence import _worst_case_nonzeros
from .dictionaries import SensingProduct
from .geometry import ArrayConfig, ChannelSpec, synthesize_channel
from .seeding import as_rng
from .validation import as_complex_matrix, as_complex_vector, check_decibels

RIDGE_SCALE = 1e-10
_COND_LIMIT = 1e12
PILOT_KINDS = ("gaussian", "rademacher")


@dataclass(frozen=True)
class SensingProblem:
    """One draw: the observations y = F h + n of channel h through pilots F.

    A solver senses the draw through a dictionary D with
    ``dictionary.sensing_operator(problem.pilots)``, so one draw serves
    every dictionary.
    """

    pilots: np.ndarray
    observations: np.ndarray
    noise: np.ndarray
    noise_var: float
    channel: np.ndarray


def gen_pilots(n_measurements: int, n_antennas: int, kind: str = "gaussian", seed=None) -> np.ndarray:
    """T x N pilot matrix with i.i.d. entries.

    "gaussian" draws CN(0, 1/N); "rademacher" draws +-1/sqrt(N) with equal
    probability (real valued, stored complex).
    """
    if n_measurements < 1:
        raise ValueError(f"n_measurements must be >= 1, got {n_measurements}")
    rng = as_rng(seed)
    shape = (n_measurements, n_antennas)
    if kind == "gaussian":
        # the draws go through one real buffer into the real and imaginary
        # parts (standard_normal cannot write into those strided views); the
        # values equal scale * (a + 1j * b) bit for bit. The output is
        # allocated before the buffer: the other order measured about 5 MB
        # more peak RSS over an N = 2048, T = 400 sweep
        pilots = np.empty(shape, dtype=np.complex128)
        draw = rng.standard_normal(shape)
        pilots.real = draw
        rng.standard_normal(out=draw)
        pilots.imag = draw
        pilots *= math.sqrt(1.0 / (2.0 * n_antennas))
        return pilots
    if kind == "rademacher":
        signs = rng.integers(0, 2, size=shape) * 2 - 1
        return (signs / math.sqrt(n_antennas)).astype(np.complex128)
    raise ValueError(f"unknown pilot kind {kind!r}")


def noise_variance(channel: np.ndarray, n_antennas: int, snr_db: float) -> float:
    """Per-measurement noise variance under the pilot-averaged SNR convention.

    SNR is defined as E_F |h^H f_t|^2 / sigma^2 = ||h||^2 / (N sigma^2), so
    sigma^2 = ||h||^2 / (N * 10^(SNR/10)). ``None`` and +inf give zero
    variance (a noiseless problem); -inf and nan name no noise level, and
    beyond +-300 dB the power ratio leaves the float range.
    """
    if snr_db is None or snr_db == math.inf:
        return 0.0
    check_decibels(snr_db, "snr_db")
    power = float(np.linalg.norm(channel) ** 2)
    return power / (n_antennas * 10.0 ** (snr_db / 10.0))


def make_problem(
    cfg: ArrayConfig,
    spec: ChannelSpec,
    n_measurements: int,
    snr_db: float = None,
    pilot_kind: str = "gaussian",
    seed=None,
) -> SensingProblem:
    """Draw pilots and noise for a channel spec and form the observations.

    The channel is synthesised in exact (spherical-wavefront) mode; the
    model mismatch of a dictionary's atoms then acts as extra noise.
    """
    rng = as_rng(seed)
    h = synthesize_channel(cfg, spec)
    pilots = gen_pilots(n_measurements, cfg.n_antennas, pilot_kind, rng)
    sigma2 = noise_variance(h, cfg.n_antennas, snr_db)
    if sigma2 > 0:
        noise = math.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(n_measurements) + 1j * rng.standard_normal(n_measurements)
        )
    else:
        noise = np.zeros(n_measurements, dtype=np.complex128)
    return SensingProblem(
        pilots=pilots, observations=pilots @ h + noise, noise=noise, noise_var=sigma2, channel=h
    )


def _least_squares(sub: np.ndarray, y: np.ndarray):
    """LS coefficients of y on the columns of ``sub``, and tr(G^-1).

    Both come from one eigendecomposition of the Gram G = sub^H sub. A Gram
    whose condition number is not finite or exceeds ``_COND_LIMIT`` is
    ridged by ``RIDGE_SCALE`` times its mean diagonal, which shifts every
    eigenvalue by that amount.

    The small eigenvalues carry a relative error of about eps * cond (up to
    1e-4 below the ridge limit), so the solve is refined twice with the same
    factors; each step multiplies the error by that factor. This keeps the
    residual of an exact fit at rounding level (about eps * ||y||), which
    the noiseless stopping rule relies on.
    """
    gram = np.conj(sub.T) @ sub
    w, v = np.linalg.eigh(gram)
    magnitude = np.abs(w)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = magnitude.max() / magnitude.min()
    ridge = 0.0
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        ridge = RIDGE_SCALE * float(np.trace(gram).real) / gram.shape[0]
        w = w + ridge
    v_h = np.conj(v.T)
    rhs = np.conj(sub.T) @ y
    coef = v @ ((v_h @ rhs) / w)
    for _ in range(2):
        coef = coef + v @ ((v_h @ (rhs - gram @ coef - ridge * coef)) / w)
    return coef, float(np.sum(1.0 / w))


def _column_energy(X: np.ndarray) -> np.ndarray:
    """Squared column norms, read through the real and imaginary views of X."""
    return np.einsum("ij,ij->j", X.real, X.real) + np.einsum("ij,ij->j", X.imag, X.imag)


class _FormedColumns:
    """What the greedy loop reads of a formed T x M matrix, read in place."""

    def __init__(self, X: np.ndarray, block_size: int):
        self._X = X
        self._block_energy = _column_energy(X).reshape(-1, block_size).mean(axis=1)
        self.mean_col_energy = float(self._block_energy.mean())

    def correlate(self, resid: np.ndarray) -> np.ndarray:
        # r^H X without conjugating X (|r^H X| = |X^H r|)
        return np.conj(resid) @ self._X

    def block_energy(self, block: int) -> float:
        return self._block_energy[block]

    def columns(self, idx: np.ndarray) -> np.ndarray:
        return self._X[:, idx]


class _ProductColumns:
    """What the greedy loop reads of P A, without forming the T x M product.

    Correlations are ``(r^H P) A`` (T N + N M per iteration), the mean column
    energy is ``tr(P A A^H P^H) / M`` (T N^2 once), and the columns of a
    block are formed as ``P A_block`` the first time the loop looks at it.
    """

    def __init__(self, product: SensingProduct, block_size: int):
        self._pilots = product.pilots
        self._matrix = product.matrix
        self._block_size = block_size
        self._blocks = {}
        trace = np.vdot(product.pilots, product.pilots @ product.row_gram).real
        self.mean_col_energy = float(trace) / product.shape[1]

    def correlate(self, resid: np.ndarray) -> np.ndarray:
        return (np.conj(resid) @ self._pilots) @ self._matrix

    def _block(self, block: int) -> np.ndarray:
        if block not in self._blocks:
            s = self._block_size
            self._blocks[block] = self._pilots @ self._matrix[:, block * s : (block + 1) * s]
        return self._blocks[block]

    def block_energy(self, block: int) -> float:
        return _column_energy(self._block(block)).mean()

    def columns(self, idx: np.ndarray) -> np.ndarray:
        # idx runs over whole blocks in ascending order
        s = self._block_size
        return np.concatenate([self._block(b) for b in idx[::s] // s], axis=1)


class BlockOMP:
    """Greedy block-sparse solver for y = X beta with X = (T x M).

    X is a formed matrix or a ``SensingProduct`` (see
    ``Dictionary.sensing_operator``), which is fitted without forming it.

    Each iteration selects the not-yet-chosen block whose columns carry the
    largest residual correlation energy ||X_i^H r||_2 (ties broken toward the
    lowest block index), refits least squares on all selected columns, and
    updates the residual. Three stopping controls compose:

    * ``k_max`` caps the number of selected blocks (default: 1.5 times the
      worst-case nonzero count K_bar(M, delta), converted to blocks and
      capped at T // block_size for LS solvability); the loop also ends once
      every block is selected;
    * the residual stop ends the loop once ||r||_2 falls to sqrt(T * noise_var);
    * ``stop_alpha`` stops when the best block's correlation statistic is no
      longer distinguishable from noise at family-wise level alpha (a
      chi-squared test on 2*block_size degrees of freedom).

    When ``noise_var`` is positive, the returned model is the prefix of the
    greedy path minimising an unbiased risk estimate (estimated coefficient
    error plus estimated unexplained signal), which guards against fitting
    noise at low SNR. With ``noise_var = 0`` the full greedy path is kept, so
    noiseless behaviour is plain block OMP.

    ``block_size`` must divide the M columns of X into contiguous blocks.

    Attributes after ``fit``: ``coef_``, ``support_``, ``n_iter_``,
    ``residual_norm_``, ``residual_path_``.
    """

    def __init__(
        self,
        block_size: int = 1,
        k_max: int = None,
        stop_alpha: float = 0.05,
        noise_var: float = 0.0,
        delta: float = 0.01,
    ):
        self.block_size = block_size
        self.k_max = k_max
        self.stop_alpha = stop_alpha
        self.noise_var = noise_var
        self.delta = delta

    def _default_k_max(self, n_measurements: int, n_coefficients: int, sigma2: float) -> int:
        # noiseless fits may need the full solvable support (exact
        # identification at T = M); under noise, use the worst-case nonzero
        # count for sources beyond the Fresnel distance, padded by 1.5x
        cap = max(1, n_measurements // self.block_size)
        if sigma2 <= 0:
            return cap
        budget = math.ceil(1.5 * _worst_case_nonzeros(n_coefficients, self.delta) / self.block_size)
        return max(1, min(budget, cap))

    def fit(self, X, y):
        factored = isinstance(X, SensingProduct)
        if not factored:
            X = as_complex_matrix(X, "X")
        y = as_complex_vector(y, "y")
        t, m = X.shape
        if y.shape[0] != t:
            raise ValueError(f"X has {t} rows but y has length {y.shape[0]}")
        s = self.block_size
        if s < 1 or m % s != 0:
            raise ValueError(f"block size {s} must be >= 1 and divide {m} coefficients")
        nb = m // s
        sigma2 = float(self.noise_var)
        k_max = self.k_max if self.k_max is not None else self._default_k_max(t, m, sigma2)
        if k_max < 0:
            raise ValueError(f"k_max must be >= 0, got {k_max}")
        tol = math.sqrt(t * sigma2)

        psi = (_ProductColumns if factored else _FormedColumns)(X, s)
        # the significance stop guards against fitting noise; without noise the
        # greedy loop runs to exact reconstruction or the block budget
        use_score_stop = self.stop_alpha is not None and sigma2 > 0
        if use_score_stop:
            score_threshold = chdtri(2 * s, min(self.stop_alpha / nb, 1.0))

        y_norm2 = float(np.linalg.norm(y) ** 2)
        resid = y.copy()
        selected = np.zeros(nb, dtype=bool)
        chosen = []
        residual_path = [math.sqrt(y_norm2)]
        mean_col_energy = psi.mean_col_energy
        best_risk = self._risk_estimate(y_norm2, 0, t, sigma2, None, mean_col_energy)
        best = (np.array([], dtype=int), np.zeros(0, dtype=np.complex128), math.sqrt(y_norm2))
        idx = np.array([], dtype=int)
        coef = np.zeros(0, dtype=np.complex128)
        rho = y_norm2

        for _ in range(min(k_max, nb)):
            if rho <= max(tol * tol, 1e-30 * y_norm2):
                break
            corr = psi.correlate(resid)
            scores = (np.abs(corr) ** 2).reshape(nb, s).sum(axis=1)
            scores[selected] = -np.inf
            pick = int(np.argmax(scores))
            if use_score_stop and rho > 0:
                stat = 2.0 * t * scores[pick] / (rho * psi.block_energy(pick))
                if stat < score_threshold:
                    break
            selected[pick] = True
            chosen.append(pick)
            idx = (np.sort(chosen)[:, None] * s + np.arange(s)).ravel()
            sub = psi.columns(idx)
            coef, gram_inv_trace = _least_squares(sub, y)
            resid = y - sub @ coef
            rho = float(np.linalg.norm(resid) ** 2)
            residual_path.append(math.sqrt(rho))
            risk = self._risk_estimate(rho, idx.size, t, sigma2, gram_inv_trace, mean_col_energy)
            if risk < best_risk:
                best_risk = risk
                best = (idx.copy(), coef.copy(), math.sqrt(rho))

        if sigma2 > 0:
            idx, coef, res_norm = best
        else:
            res_norm = residual_path[-1]

        beta = np.zeros(m, dtype=np.complex128)
        if idx.size:
            beta[idx] = coef
        self.coef_ = beta
        self.support_ = idx
        self.n_iter_ = len(chosen)
        self.residual_norm_ = res_norm
        self.residual_path_ = np.asarray(residual_path)
        return self

    @staticmethod
    def _risk_estimate(rho, p, t, sigma2, gram_inv_trace, mean_col_energy):
        """Estimated coefficient-error energy plus unexplained-signal energy.

        The fit term sigma^2 tr(G^-1) is the exact noise cost of the LS
        coefficients; the tail term back-projects the above-noise part of the
        residual through the average column energy, corrected for the
        fraction of signal already absorbed by the selected subspace.
        """
        if sigma2 <= 0:
            return rho
        fit_cost = sigma2 * gram_inv_trace if gram_inv_trace is not None else 0.0
        spare = max(t - p, 1)
        tail = max(0.0, rho - spare * sigma2) * t / (max(mean_col_energy, 1e-300) * spare)
        return fit_cost + tail


def ls_estimate(problem: SensingProblem) -> np.ndarray:
    """Least-squares channel estimate on BlockOMP's refit kernel; requires at
    least N measurements."""
    t, n = problem.pilots.shape
    if t < n:
        raise ValueError(
            f"least squares needs n_measurements >= n_antennas ({t} < {n})"
        )
    return _least_squares(problem.pilots, problem.observations)[0]


def nmse(h, h_hat) -> float:
    """Single-sample normalised squared error ||h - h_hat||^2 / ||h||^2."""
    h = as_complex_vector(h, "h")
    h_hat = as_complex_vector(h_hat, "h_hat")
    power = float(np.linalg.norm(h) ** 2)
    if power == 0:
        raise ValueError("nmse is undefined for a zero reference channel")
    return float(np.linalg.norm(h - h_hat) ** 2) / power
