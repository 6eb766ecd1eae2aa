"""Pilot generation, noisy observation synthesis, and greedy block-sparse solvers."""

import math
from dataclasses import dataclass

import numpy as np

from .coherence import _worst_case_nonzeros
from .dictionaries import as_sensing, complex_ldexp, scale_into_range
from .geometry import ArrayConfig, ChannelSpec, synthesize_channel
from .seeding import as_rng
from .validation import DECIBELS_OR_INF, FRACTION, FRACTION_OR_NONE, NONNEGATIVE, Rule, block_count, check
from .validation import as_complex_vector, check_integer

RIDGE_SCALE = 1e-10
_COND_LIMIT = 1e12
PILOT_KINDS = ("gaussian", "rademacher")
_DRAW_CHUNK = 12288
"""Real draws per chunk of ``gen_pilots``'s Gaussian buffer (96 KB)."""


@dataclass(frozen=True)
class SensingProblem:
    """One draw: the observations y = F h + n of channel h through pilots F.

    A solver senses the draw through a dictionary D with
    ``dictionary.sensing_operator(problem.pilots)``, the ``SensingProduct``
    it fits, so one draw serves every dictionary.
    """

    pilots: np.ndarray
    observations: np.ndarray
    noise_var: float
    channel: np.ndarray


def gen_pilots(n_measurements: int, n_antennas: int, kind: str = "gaussian", seed=None) -> np.ndarray:
    """T x N pilot matrix with i.i.d. entries.

    "gaussian" draws CN(0, 1/N); "rademacher" draws +-1/sqrt(N) with equal
    probability (real valued, stored complex).
    """
    n_measurements = check_integer(n_measurements, "n_measurements", 1)
    n_antennas = check_integer(n_antennas, "n_antennas", 2)
    rng = as_rng(seed)
    shape = (n_measurements, n_antennas)
    if kind == "gaussian":
        # all real parts are drawn, then all imaginary parts, through a
        # buffer of a few rows (standard_normal cannot write into the
        # strided real and imaginary views) and scaled on the way in; the
        # stream is sequential, so the values equal scale * (a + 1j * b) of
        # two full-size draws bit for bit and leave the generator in the
        # same state
        pilots = np.empty(shape, dtype=np.complex128)
        scale = math.sqrt(1.0 / (2.0 * n_antennas))
        rows = max(1, _DRAW_CHUNK // n_antennas)
        buf = np.empty((rows, n_antennas))
        for part in (pilots.real, pilots.imag):
            for start in range(0, n_measurements, rows):
                chunk = buf[: min(rows, n_measurements - start)]
                rng.standard_normal(out=chunk)
                np.multiply(chunk, scale, out=part[start : start + len(chunk)])
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
    check_integer(n_antennas, "n_antennas", 2)
    if snr_db is None or check(snr_db, "snr_db", DECIBELS_OR_INF) == math.inf:
        return 0.0
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
    observations = pilots @ h
    if sigma2 > 0:
        observations += math.sqrt(sigma2 / 2.0) * (
            rng.standard_normal(n_measurements) + 1j * rng.standard_normal(n_measurements)
        )
    return SensingProblem(pilots=pilots, observations=observations, noise_var=sigma2, channel=h)


def _least_squares(sub: np.ndarray, y: np.ndarray) -> np.ndarray:
    """LS coefficients of y on the columns of ``sub``, the kernel of ``ls_estimate``.

    The coefficients come from one eigendecomposition of the Gram
    G = sub^H sub. A Gram whose condition number is not finite or exceeds
    ``_COND_LIMIT`` is ridged by ``RIDGE_SCALE`` times its mean diagonal,
    which shifts every eigenvalue by that amount.

    The small eigenvalues carry a relative error of about eps * cond (up to
    1e-4 below the ridge limit), so the solve is refined twice with the same
    factors; each step multiplies the error by that factor.
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
    return coef


class _BorderedFactor:
    """The columns a fit has picked, conjugated (one row each, in pick
    order), and the inverse L^-1 of the lower Cholesky factor of their Gram
    G = X_S^H X_S, bordered as each block is added. Both are allocated once,
    not zeroed, at ``cap`` <= min(T, M, k_max s) columns (cap x T and
    cap x cap); the pages of rows never written are never touched.

    A block X_b of s columns adds its cross products [B; C] = X_S^H X_b
    (B = X_S^H X_b for the p columns before it, C = X_b^H X_b; T p s work)
    and s rows to L^-1: with W = L^-1 B, the Schur complement
    S = C - W^H W and K = chol(S)^-1, the new rows are [-K W^H L^-1, K].
    numpy has no triangular solve, so the inverse factor is kept.
    tr(G^-1) = ||L^-1||_F^2 is summed as the rows are added, tr(G) as the
    blocks are.

    ``add`` borders the factor only with a block that leaves the Gram
    certified well conditioned: S is positive definite, the columns stay
    within ``cap`` (at most the rank bound of X, past which G is singular),
    and cond G <= tr(G) tr(G^-1) is at most half of ``_COND_LIMIT``.
    Otherwise it returns False and the factor is as it was.
    """

    def __init__(self, t: int, cap: int):
        self.cols_h = np.empty((cap, t), dtype=np.complex128)
        self.linv = np.empty((cap, cap), dtype=np.complex128)
        self.size = 0
        self.gram_trace = self.inv_trace = 0.0

    def add(self, block: np.ndarray, energy: float) -> bool:
        """Border the factor with the T x s ``block``, of sum of squares
        ``energy``; return whether it did."""
        p = self.size
        q = p + block.shape[1]
        if q > len(self.cols_h):  # past the cap
            return False
        np.conjugate(block.T, out=self.cols_h[p:q])
        cross = self.cols_h[:q] @ block
        w = self.linv[:p, :p] @ cross[:p]
        w_h = np.conj(w.T)
        try:
            k = np.linalg.inv(np.linalg.cholesky(cross[p:] - w_h @ w))
        except np.linalg.LinAlgError:
            return False
        rows = self.linv[p:q, :q]
        np.matmul(-k @ w_h, self.linv[:p, :p], out=rows[:, :p])
        rows[:, p:] = k
        gram_trace = self.gram_trace + energy
        inv_trace = self.inv_trace + float(np.vdot(rows, rows).real)
        if gram_trace * inv_trace > 0.5 * _COND_LIMIT:
            return False
        self.linv[:p, p:q] = 0  # the factor is not zeroed when made
        self.size, self.gram_trace, self.inv_trace = q, gram_trace, inv_trace
        return True

    def refit(self, y: np.ndarray):
        """LS coefficients of y on the columns, in pick order, and the residual.

        The solve L^-H L^-1 X_S^H y is refined twice, each time on the
        least-squares residual: c += G^-1 X_S^H (y - X_S c), which keeps the
        residual of an exact fit at rounding level (about eps * ||y||), as
        the noiseless stopping rule needs. X_S c is conj(conj(c) X_S^H).
        """
        q = self.size
        cols_h = self.cols_h[:q]
        linv = self.linv[:q, :q]
        linv_h = np.conj(linv.T)
        coef = linv_h @ (linv @ (cols_h @ y))
        resid = y - np.conj(np.conj(coef) @ cols_h)
        for _ in range(2):
            coef += linv_h @ (linv @ (cols_h @ resid))
            resid = y - np.conj(np.conj(coef) @ cols_h)
        return coef, resid


def _columns(blocks, s: int) -> np.ndarray:
    """Column indices of ``blocks`` of ``s`` columns each, block by block."""
    return (np.asarray(blocks, dtype=int)[:, None] * s + np.arange(s)).ravel()


def _log_poisson_tail(s: int, u: float) -> float:
    """log Q(u) of the Poisson tail Q(u) = exp(-u) sum_{k<s} u^k / k!, the
    survival function of the chi-squared law on 2s degrees of freedom at 2u.

    The terms are summed from exp(-u) itself rather than as log S - u, which
    rounds log Q to an ulp of u. Past u = 700, where exp(-u) leaves the
    normal range, the sum starts from exp(-700) and the rest of the factor is
    taken in log space; the sum is rescaled by powers of two before it can
    overflow.
    """
    shift = max(0.0, u - 700.0)
    term = total = math.exp(shift - u)
    halvings = 0
    for k in range(1, s):
        term *= u / k
        total += term
        if total > 2.0**960:
            term, total = math.ldexp(term, -960), math.ldexp(total, -960)
            halvings += 960
    return math.log(total) + halvings * math.log(2.0) - shift


def _risk_estimate(rho, p, t, sigma2, gram_inv_trace, mean_col_energy):
    """Estimated coefficient-error energy plus unexplained-signal energy.

    The fit term sigma^2 tr(G^-1) is the exact noise cost of the LS
    coefficients; the tail term back-projects the above-noise part of the
    residual through the average column energy, corrected for the
    fraction of signal already absorbed by the selected subspace.
    """
    fit_cost = sigma2 * gram_inv_trace
    spare = max(t - p, 1)
    tail = max(0.0, rho - spare * sigma2) * t / (max(mean_col_energy, 1e-300) * spare)
    return fit_cost + tail


def _risks(path: list, t: int, sigma2: float, mean_col_energy: float) -> list:
    return [_risk_estimate(rho, p, t, sigma2, trace, mean_col_energy) for rho, p, trace, *_ in path]


def _first_min(values: list) -> int:
    """Index of the first strict minimum, the one a running ``v < best`` keeps."""
    return min(range(len(values)), key=values.__getitem__)


def _best_prefix(path: list, t: int, sigma2: float, psi) -> int:
    """Index of the prefix of the greedy path with the least risk estimate.

    ``path`` holds ``(rho, p, tr G^-1, ...)`` of every prefix, the empty
    one first; the first strict minimum wins. The risks are first evaluated
    at both ends of ``psi.energy_bracket()`` (T N for a product P A);
    the mean column energy E (T N M) is read only when they cannot decide.

    Why the ends can decide: the risk of a prefix is
    sigma^2 tr G^-1 + max(0, rho - (T - p) sigma^2) T / ((T - p) E), affine
    in 1/E with a slope of zero or more (the clamp of E at 1e-300 keeps it
    monotone), so the difference of two prefixes' risks is affine in 1/E
    too. A prefix that leads every other by more than a margin at both ends
    of the bracket leads it by that margin at every E in between. Each
    computed risk is off its exact value by a few ulps of the largest risk
    at most, so a lead of more than 64 ulps of the largest risk at both ends
    carries over to the computed risks at the computed E, if the bracket
    holds it. It does: ||P A||_F^2 = tr(P R P^H) sums p^H R p over the pilot
    rows p, each between lambda_min ||p||^2 and lambda_max ||p||^2 of
    R = A A^H, and the ends are moved out by 1e-6 of lambda_max. That covers
    the error of ``eigvalsh`` (of order N eps lambda_max) and of the computed
    ||P||_F^2 and ||P A||_F^2 (whose entries err by sqrt(2) gamma(2N) |P| |A|
    at most): (2 sqrt(2N) gamma(2N) + gamma(2 T M) + gamma(2 T N)) lambda_max
    ||P||_F^2 in all, with gamma(n) = n eps / 2 / (1 - n eps / 2), which is
    3.4e-11 of lambda_max ||P||_F^2 at N = 256, T = 80, M = 1536 and 2.1e-9
    at N = 2048, T = 640, M = 12288.

    Otherwise, and for a bracket of zero width (an exact E), the prefix is
    chosen from the risks at E, as without the bracket.
    """
    lo, hi = psi.energy_bracket()
    if lo < hi:
        ends = [_risks(path, t, sigma2, lo), _risks(path, t, sigma2, hi)]
        winner = _first_min(ends[0])
        if _first_min(ends[1]) == winner:
            # a nan or inf risk makes the margin or a lead nan or inf: no decision
            margin = 64 * math.ulp(max(max(ends[0]), max(ends[1])))
            leads = (r - risks[winner] for risks in ends for j, r in enumerate(risks) if j != winner)
            if all(lead > margin for lead in leads):
                return winner
    return _first_min(_risks(path, t, sigma2, psi.mean_col_energy))


class BlockOMP:
    """Greedy block-sparse solver for y = X beta with X = (T x M).

    X is the ``SensingProduct`` that ``Dictionary.sensing_operator``
    returns, or a formed matrix, read through one (``as_sensing``); a dense
    dictionary's P A is fitted without forming it.

    Each iteration selects the not-yet-chosen block whose columns carry the
    largest residual correlation energy ||X_i^H r||_2 (ties broken toward the
    lowest block index), refits least squares on all selected columns, and
    updates the residual. The picked block is read once, as a slice (a
    view of a formed X), and kept conjugated, in pick order, for the rest
    of the fit. Each refit borders the inverse Cholesky factor of the
    selected columns' Gram with the new block (``_BorderedFactor``,
    allocated once at min(T, M, k_max s) columns; T p s work for p
    selected columns). A block the factor cannot border ends the loop and
    is not selected: its Schur complement is not positive definite, it takes
    the columns past the rank bound of X, or tr(G) tr(G^-1), a bound on
    cond G, would pass half of ``_COND_LIMIT``. Four stopping controls
    compose:

    * ``k_max`` caps the number of selected blocks (default: 1.5 times the
      worst-case nonzero count K_bar(M, delta), converted to blocks and
      capped at rank(X) // block_size, with the rank bounded by min(T, N)
      for P A and min(T, M) for a formed matrix); the loop also ends once
      every block is selected;
    * the residual stop ends the loop once ||r||_2 falls to sqrt(T * noise_var);
    * ``stop_alpha`` (in (0, 1], or None for no such stop) stops when the
      best block's correlation statistic is no longer distinguishable from
      noise at family-wise level alpha (a chi-squared test on 2*block_size
      degrees of freedom).
    * the factor's certificate stops at the first dependent block.

    When ``noise_var`` is positive, the returned model is the prefix of the
    greedy path minimising an unbiased risk estimate (estimated coefficient
    error plus estimated unexplained signal), which guards against fitting
    noise at low SNR. No stopping rule reads the risk, so the prefix is
    chosen once the loop has ended, from a bracket on the mean column energy
    E where that decides it and from E otherwise; the chosen prefix is the
    one the exact E picks (see ``_best_prefix``). With ``noise_var = 0`` the
    full greedy path is kept, so noiseless behaviour is plain block OMP.

    ``block_size`` must be an integer >= 1 that divides the M columns of X
    into contiguous blocks.
    ``noise_var`` must be finite and >= 0, ``delta`` in (0, 1], ``k_max`` an
    integer >= 0 or None, X and y finite and X (or a product's pilots)
    neither empty nor all zero; ``fit`` raises ``ValueError`` otherwise. A
    zero y stops at once ("residual"). y is scaled into range by
    ``dictionaries.scale_into_range``, as X was when its reader was built;
    ``noise_var`` is read in the units of the scaled y, and ``coef_`` and
    the residuals are scaled back.

    Attributes after ``fit``: ``coef_``, ``support_``, ``n_iter_``,
    ``residual_norm_``, ``residual_path_`` and ``stop_reason_``, the rule
    that ended the greedy loop: "residual" (the residual stop, checked first),
    "exhausted" (every block selected, or none left that correlates with the
    residual, so none could lower it), "budget" (``k_max`` blocks selected),
    "significance" (the ``stop_alpha`` test) or "dependent" (the best block
    could not be bordered).
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

    def _default_k_max(self, rank_bound: int, n_coefficients: int, sigma2: float) -> int:
        # noiseless fits may need the full solvable support (exact
        # identification at T = M), but no more columns than X has rank:
        # past it every Gram is singular; under noise, use the worst-case
        # nonzero count for sources beyond the Fresnel distance, padded by 1.5x
        cap = max(1, rank_bound // self.block_size)
        if sigma2 <= 0:
            return cap
        # compared before rounding: a subnormal delta makes the budget inf
        budget = 1.5 * _worst_case_nonzeros(n_coefficients, self.delta) / self.block_size
        return cap if budget >= cap else math.ceil(budget)

    def fit(self, X, y):
        psi = as_sensing(X, "X")
        t, m = psi.shape
        y = as_complex_vector(y, "y")
        if y.shape[0] != t:
            raise ValueError(f"X has {t} rows but y has length {y.shape[0]}")
        # y, like the reader, holds 2**shift times the given values
        y, y_norm2, y_shift = scale_into_range(y, "y")
        nb = block_count(self.block_size, m)
        s = m // nb
        alpha = check(self.stop_alpha, "stop_alpha", FRACTION_OR_NONE)
        sigma2 = float(check(self.noise_var, "noise_var", NONNEGATIVE))
        check(self.delta, "delta", FRACTION)
        if self.k_max is None:
            k_max = self._default_k_max(psi.rank_bound, m, sigma2)
        else:
            k_max = check_integer(self.k_max, "k_max", 0)
        noisy = sigma2 > 0
        with np.errstate(over="ignore"):  # noise above any signal stops the fit at once
            sigma2 = float(np.ldexp(sigma2, 2 * y_shift))
        tol = math.sqrt(t * sigma2)
        floor = max(tol * tol, 1e-30 * y_norm2)

        # the significance stop guards against fitting noise; without noise the
        # greedy loop runs to exact reconstruction or the block budget. A level
        # alpha / nb >= 1 never stops a fit; the two logs are taken apart so a
        # tiny alpha / nb cannot round to log(0)
        use_score_stop = alpha is not None and noisy and alpha < nb
        if use_score_stop:
            log_level = math.log(alpha) - math.log(nb)

        resid = y.copy()
        blocks = []  # the picked blocks, in pick order
        factor = _BorderedFactor(t, min(k_max * s, m, psi.rank_bound))
        rho = y_norm2
        # (rho, p, tr G^-1, coefficients in pick order) of every prefix
        path = [(rho, 0, 0.0, np.zeros(0, dtype=np.complex128))]

        while True:
            if rho <= floor:
                stop_reason = "residual"
                break
            if len(blocks) == nb:
                stop_reason = "exhausted"
                break
            if len(blocks) >= k_max:
                stop_reason = "budget"
                break
            corr = psi.correlate(resid)
            scores = (np.abs(corr) ** 2).reshape(nb, s).sum(axis=1)
            scores[blocks] = -np.inf
            pick = int(np.argmax(scores))
            if scores[pick] == 0:  # the residual is orthogonal to every block left
                stop_reason = "exhausted"
                break
            block = psi.read(slice(pick * s, pick * s + s))
            energy = np.vdot(block, block).real
            if use_score_stop:
                # u is half the chi-squared statistic on 2s degrees of freedom,
                # against the mean column energy of the block; the fit goes on
                # only while its tail is at most the level
                u = float(t * scores[pick] / (rho * energy / s))
                if _log_poisson_tail(s, u) > log_level:
                    stop_reason = "significance"
                    break
            if not factor.add(block, energy):
                stop_reason = "dependent"
                break
            blocks.append(pick)
            coef, resid = factor.refit(y)
            rho = float(np.linalg.norm(resid) ** 2)
            path.append((rho, coef.size, factor.inv_trace, coef))

        residual_path = np.ldexp(np.sqrt([prefix[0] for prefix in path]), -y_shift)
        best = _best_prefix(path, t, sigma2, psi) if noisy else len(path) - 1
        idx, coef = _columns(blocks[: path[best][1] // s], s), path[best][3]

        beta = np.zeros(m, dtype=np.complex128)
        beta[idx] = complex_ldexp(coef, psi.shift - y_shift)
        self.coef_ = beta
        self.support_ = np.sort(idx)
        self.n_iter_ = len(blocks)
        self.residual_norm_ = float(residual_path[best])
        self.residual_path_ = residual_path
        self.stop_reason_ = stop_reason
        return self


def enough_for_ls(n_antennas: int) -> Rule:
    """The rule of measurement counts a least-squares estimate solves with: at least N."""
    return Rule(lambda t: t >= n_antennas, f"must be >= the {n_antennas} antennas for least squares (ls)")


def ls_estimate(problem: SensingProblem) -> np.ndarray:
    """Least-squares channel estimate on the eigendecomposition kernel
    ``_least_squares``; requires at least N measurements."""
    t, n = problem.pilots.shape
    check(t, "n_measurements", enough_for_ls(n))
    return _least_squares(problem.pilots, problem.observations)


def nmse(h, h_hat) -> float:
    """Single-sample normalised squared error ||h - h_hat||^2 / ||h||^2."""
    h = as_complex_vector(h, "h")
    h_hat = as_complex_vector(h_hat, "h_hat")
    if h_hat.shape != h.shape:
        raise ValueError(f"h has length {h.size} but h_hat has length {h_hat.size}")
    power = float(np.linalg.norm(h) ** 2)
    if power == 0:
        raise ValueError("nmse is undefined for a zero reference channel")
    return float(np.linalg.norm(h - h_hat) ** 2) / power
