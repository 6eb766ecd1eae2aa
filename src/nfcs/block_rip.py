"""Block-sparsity level bounds, sample-complexity formulas, and empirical probes."""

import math
from dataclasses import dataclass

import numpy as np

from .coherence import _worst_case_nonzeros, delta_floor, phase_pair, sparsity_bound
from .geometry import ArrayConfig
from .recovery import _columns
from .dictionaries import as_sensing
from .seeding import rng_from
from .validation import FRACTION, OPEN_FRACTION, POSITIVE, Rule, block_count, check, check_integer


def _require_square(n_antennas: int) -> int:
    root = math.isqrt(n_antennas)
    if root * root != n_antennas:
        raise ValueError(
            f"the canonical sqrt(N)-block partition needs a square antenna count, got {n_antennas}"
        )
    return root


def varrho_bound(cfg: ArrayConfig, delta: float, mu_pair: tuple = None) -> int:
    """Block-sparsity level ceil(K_bar / sqrt(N)) over the canonical
    sqrt(N)-blocks-of-sqrt(N) partition.

    Without ``mu_pair`` K_bar is the worst-case nonzero count K_bar(N, delta)
    of sources beyond the Fresnel distance. With ``mu_pair = (mu_0, mu)`` it
    is ``sparsity_bound`` at the quadratic phase of that effective-distance
    pair.
    """
    n = cfg.n_antennas
    root = _require_square(n)
    check(delta, "delta", FRACTION)
    check(delta, "delta", delta_floor(n))
    if mu_pair is None:
        k_bar = _worst_case_nonzeros(n, delta)
    else:
        mu_0, mu = mu_pair
        _, b = phase_pair(cfg, 0.0, 0.0, mu, mu_0)
        k_bar = sparsity_bound(cfg, delta, b)
    return max(1, math.ceil(k_bar / root))


def sample_complexity(n_antennas: int, varrho: int, xi: float, kappa: float) -> int:
    """Measurement count t_min guaranteeing the block restricted isometry with
    constant xi and probability at least 1 - exp(-kappa).

    T >= (36 / (7 xi)) (rho ln(e sqrt(N)/rho) + rho sqrt(N) ln(12/xi) + ln 2 + kappa),
    rounded up. The bound is loose at desk scale; it typically exceeds N
    itself.
    """
    check_integer(n_antennas, "n_antennas", 2)
    check_integer(varrho, "varrho", 1)
    check(xi, "xi", OPEN_FRACTION)
    check(kappa, "kappa", POSITIVE)
    root = math.sqrt(n_antennas)
    value = (36.0 / (7.0 * xi)) * (
        varrho * math.log(math.e * root / varrho)
        + varrho * root * math.log(12.0 / xi)
        + math.log(2.0)
        + kappa
    )
    return math.ceil(value)


def within_blocks(n_blocks: int) -> Rule:
    """The rule of block counts k that a partition into ``n_blocks`` blocks holds."""
    return Rule(lambda k: k <= n_blocks, f"must be at most the {n_blocks} blocks")


@dataclass(frozen=True)
class RipProbeReport:
    """Sampled block-isometry deviations; a probe, never a certificate."""

    xi_hat: float
    violation_rate: float


def empirical_rip_probe(
    psi, block_size: int, k: int, trials: int, seed, target_xi: float = 0.5
) -> RipProbeReport:
    """Sample |  ||Psi c||^2 - 1 | over random unit-norm block-k-sparse vectors.

    Each trial draws k distinct blocks uniformly and a complex Gaussian
    coefficient vector on that support, normalised to unit norm. Per-trial
    generators are derived independently from (seed, trial), so any execution
    order reproduces the same set. ``psi``, read through ``as_sensing``,
    must be finite and not all zero; ||Psi c||^2 past the float range is inf.
    """
    psi = as_sensing(psi, "psi")
    m = psi.shape[1]
    n_blocks = block_count(block_size, m)
    k = check_integer(k, "k", 1)
    check(k, "k", within_blocks(n_blocks))
    trials = check_integer(trials, "trials", 1)
    check(target_xi, "target_xi", OPEN_FRACTION)
    deviations = np.empty(trials)
    for t in range(trials):
        rng = rng_from(seed, "rip_probe", t)
        blocks = rng.choice(n_blocks, size=k, replace=False)
        idx = _columns(np.sort(blocks), block_size)
        c = rng.standard_normal(idx.size) + 1j * rng.standard_normal(idx.size)
        c /= np.linalg.norm(c)
        with np.errstate(over="ignore"):  # ||Psi c||^2 past the float range deviates by inf
            deviations[t] = abs(np.ldexp(np.linalg.norm(psi.read(idx) @ c) ** 2, -2 * psi.shift) - 1.0)
    return RipProbeReport(
        xi_hat=float(deviations.max()),
        violation_rate=float(np.mean(deviations > target_xi)),
    )
