"""Config-driven, seeded Monte Carlo experiments with machine-readable output.

Every experiment is deterministic given (config, seed): per-trial generators
are derived from a stable hash of the master seed, the experiment id, the
grid point and the trial index, so grid points can run in any order (or in
parallel) and still produce byte-identical output files.
"""

import csv
import hashlib
import io
import json
import math
import os
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import block_rip as rip_mod
from ._files import write_atomic
from .coherence import coherence_approx, coherence_exact, delta_floor, phase_pair, sparsity_bound
from .dictionaries import Dictionary, build_dft, build_dmu, build_polar_baseline, half_wavelength, mutual_coherence
from .dictionaries import polar_range
from .geometry import ArrayConfig, _draw_gains, _draw_sources, _path_power, _steering, b_vector
from .geometry import beyond_fresnel, effective_distance, field_boundaries, field_regions, finite_delay, finite_phase
from .geometry import sample_channel, source_range
from .recovery import PILOT_KINDS, BlockOMP, enough_for_ls, gen_pilots, ls_estimate, make_problem, nmse
from .seeding import plain, rng_from
from .validation import DECIBELS, DECIBELS_OR_INF, FRACTION, FRACTION_OR_NONE, OPEN_FRACTION, POSITIVE
from .validation import POSITIVE_OR_INF, RANGE, Rule, divisor_of, integer


class _Method(NamedTuple):
    build: Callable | None  # (config, cfg) -> Dictionary; None for least squares, which needs none
    blocked: bool  # BlockOMP takes recovery.block_size; otherwise single columns


def _dmu(config, cfg) -> Dictionary:
    return build_dmu(cfg, config.mu)


def _polar(config, cfg) -> Dictionary:
    return build_polar_baseline(cfg, config.polar_rings, polar_range(cfg, config.polar_r_min, config.polar_r_max))


_METHODS = {
    "dmu_block_omp": _Method(_dmu, blocked=True),
    "polar_omp": _Method(_polar, blocked=False),
    "dft_omp": _Method(lambda config, cfg: build_dft(cfg), blocked=False),
    "ls": _Method(None, blocked=False),
}

METHOD_NAMES = tuple(_METHODS)


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the offending field path."""

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


def _list_of(parse):
    return lambda text: tuple(parse(v.strip()) for v in text.split(",") if v.strip())


def _optional_float(text: str):
    return None if text.strip().lower() == "none" else float(text)


# config-only rules; every other field reads the shared rule from validation
def _one_of(names) -> Rule:
    return Rule(names.__contains__, f"must be one of {', '.join(names)}")


_TOLERANCE = Rule(lambda v: POSITIVE.predicate(v) and v > 1, "must be finite and exceed 1.0")


def _require(key: str, value, rule: Rule):
    """``validation.check`` for a config value: a ConfigError naming ``key``."""
    if not rule.predicate(value):
        raise ConfigError(key, f"{rule.requirement}, got {value!r}")


def _setting(key, parse, rule: Rule, default=MISSING):
    """Field settable from a config file by its dotted ``key``; ``parse`` reads
    the value text and ``rule`` admits the values, applied to each entry of a
    tuple field."""
    return field(default=default, metadata={"key": key, "parse": parse, "rule": rule})


@dataclass
class ExperimentConfig:
    kind: str
    seed: int = _setting("experiment.seed", int, integer())
    trials: int = _setting("experiment.trials", int, integer(1), 200)
    preset: str = "desk"
    # array
    carrier_freq: float = _setting("array.carrier_freq_hz", float, POSITIVE, 100e9)
    n_antennas: int = _setting("array.n_antennas", int, integer(2), 256)
    spacing: float = _setting("array.spacing_m", float, POSITIVE, None)
    # channel statistics
    n_paths: int = _setting("channel.n_paths", int, integer(1), 3)
    power_split_db: float = _setting("channel.power_split_db", float, DECIBELS, 13.0)
    distance_min: float = _setting("channel.distance_min_m", float, POSITIVE, None)
    distance_max: float = _setting("channel.distance_max_m", float, POSITIVE, None)
    # grids
    n_list: tuple = _setting("experiment.n_list", _list_of(int), integer(2), ())
    t_list: tuple = _setting("experiment.t_list", _list_of(int), integer(1), ())
    snr_db_list: tuple = _setting("experiment.snr_db_list", _list_of(float), DECIBELS_OR_INF, ())
    mu0_bins: tuple = _setting("experiment.mu0_bins", _list_of(float), POSITIVE, ())
    block_size_list: tuple = _setting("experiment.block_size_list", _list_of(int), integer(1), ())
    methods: tuple = _setting("experiment.methods", _list_of(str), _one_of(METHOD_NAMES), ("dmu_block_omp",))
    # fixed operating point for single-axis sweeps
    n_measurements: int = _setting("experiment.n_measurements", int, integer(1), 100)
    snr_db: float = _setting("experiment.snr_db", float, DECIBELS_OR_INF, 5.0)
    # dictionaries and solver; mu = +inf is the plane-wave (DFT) dictionary
    mu: float = _setting("dictionary.mu", float, POSITIVE_OR_INF, 20.0)
    block_size: int = _setting("recovery.block_size", int, integer(1), 4)
    k_max: int = _setting("recovery.k_max", int, integer(0), None)
    stop_alpha: float = _setting("recovery.stop_alpha", _optional_float, FRACTION_OR_NONE, 0.05)
    pilot_kind: str = _setting("recovery.pilot_kind", str, _one_of(PILOT_KINDS), "gaussian")
    polar_rings: int = _setting("dictionary.polar_rings", int, integer(1), 6)
    polar_r_min: float = _setting("dictionary.polar_r_min_m", float, POSITIVE, None)
    polar_r_max: float = _setting("dictionary.polar_r_max_m", float, POSITIVE, None)
    # analytics
    # a threshold on coefficient magnitudes of unit-norm channels
    delta: float = _setting("experiment.delta", float, FRACTION, 0.01)
    mu0_bin_tolerance: float = _setting("experiment.mu0_bin_tolerance", float, _TOLERANCE, 1.25)
    # restricted-isometry probe
    rip_block_size: int = _setting("rip.block_size", int, integer(1), 16)
    rip_k: int = _setting("rip.k", int, integer(1), 2)
    rip_target_xi: float = _setting("rip.target_xi", float, OPEN_FRACTION, 0.5)

    def array_config(self, n_antennas: int = None) -> ArrayConfig:
        return ArrayConfig(self.carrier_freq, self.n_antennas if n_antennas is None else n_antennas, self.spacing)

    @property
    def experiment_id(self) -> str:
        return f"{self.kind}:{self.preset}"

    def validate(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError("experiment.kind", f"unknown kind {self.kind!r}")
        kind = _KINDS[self.kind]
        for f in fields(self):
            if not f.metadata:
                continue
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            key = f.metadata["key"]
            if not isinstance(f.default, tuple):
                value = (value,)
            elif not isinstance(value, (tuple, list)):  # a scalar from a library caller
                raise ConfigError(key, f"must be a list, got {value!r}")
            for v in value:
                _require(key, v, f.metadata["rule"])
            repeated = [v for v in dict.fromkeys(value) if value.count(v) > 1]
            if repeated:
                raise ConfigError(key, f"lists a value more than once: {repeated}")

        # checks spanning several fields, each the library's rule under its key
        if not getattr(self, kind.grid):
            raise ConfigError(_key(kind.grid), "grid must be non-empty")
        sizes = self.n_list if kind.grid == "n_list" else (self.n_antennas,)
        for n in sizes:
            value, name, rule = field_regions(self.carrier_freq, n, self.spacing)
            _require(_key(name), value, rule)
        cfg = self.array_config(sizes[0])
        if kind.dictionaries:
            _require(_key("spacing"), cfg.spacing, half_wavelength(cfg.wavelength))
            _require(_key("mu"), self.mu, finite_phase(cfg))
        if kind.check is not None:
            kind.check(self, cfg)


# dotted config-file key -> ExperimentConfig field, derived from the declarations above
CONFIG_FIELDS = {f.metadata["key"]: f for f in fields(ExperimentConfig) if f.metadata}


def _key(name: str) -> str:
    """Config-file key of the ExperimentConfig field ``name``."""
    return next(key for key, f in CONFIG_FIELDS.items() if f.name == name)


# cross-field checks; each runs for the experiment kinds that name it in _KINDS


def _check_polar_range(config: ExperimentConfig, cfg: ArrayConfig):
    lo, hi = polar_range(cfg, config.polar_r_min, config.polar_r_max)
    _require(_key("polar_r_min"), lo, finite_phase(cfg))
    _require(_key("polar_r_max" if config.polar_r_max is not None else "polar_r_min"), (lo, hi), RANGE)


def _check_estimation(config: ExperimentConfig, cfg: ArrayConfig):
    if not config.methods:
        raise ConfigError(_key("methods"), "must be non-empty")
    points = [point for _, point in _KINDS[config.kind].points(config)]
    if any(_METHODS[m].build is None for m in config.methods):
        key = _key("t_list" if _KINDS[config.kind].grid == "t_list" else "n_measurements")
        for t, _, _ in points:
            _require(key, t, enough_for_ls(config.n_antennas))
    sweep, block_sizes = _block_sizes(config)
    for s in block_sizes:
        _require(_key("block_size_list" if sweep else "block_size"), s, divisor_of(config.n_antennas))
    lo, hi = source_range(cfg, config.distance_min, config.distance_max)
    _require(_key("distance_min"), lo, beyond_fresnel(cfg))
    _require(_key("distance_max" if config.distance_max is not None else "distance_min"), (lo, hi), RANGE)
    _require(_key("distance_max"), hi, finite_delay(cfg))
    # the sampler gives up on a bin after _MU0_DRAWS misses; reject a bin it
    # misses that often with probability above 1e-9
    for b in (b for _, _, b in points if b is not None):
        p = _mu0_hit_probability(b, config.mu0_bin_tolerance, lo, hi)
        if (1.0 - p) ** _MU0_DRAWS > 1e-9:
            raise ConfigError(
                _key("mu0_bins"),
                f"bin {b!r} is unreachable: a draw hits it with probability {p:.3g}, "
                f"too rarely for {_MU0_DRAWS} draws; widen "
                f"{_key('mu0_bin_tolerance')} or move the bin toward the distance "
                f"range ({lo!r}, {hi!r})",
            )
    if any(_METHODS[m].build is _polar for m in config.methods):
        _check_polar_range(config, cfg)


def _check_rip_blocks(config: ExperimentConfig, cfg: ArrayConfig):
    _require(_key("rip_block_size"), config.rip_block_size, divisor_of(config.n_antennas))
    _require(_key("rip_k"), config.rip_k, rip_mod.within_blocks(config.n_antennas // config.rip_block_size))


def _check_no_source_range(config: ExperimentConfig, cfg: ArrayConfig):
    unset = Rule(lambda v: v is None, f"must be unset, as {config.kind} draws its sources on [Fresnel, Rayleigh]")
    for name in ("distance_min", "distance_max"):
        _require(_key(name), getattr(config, name), unset)


def _check_sparsity_level(config: ExperimentConfig, cfg: ArrayConfig):
    _check_no_source_range(config, cfg)
    _require(_key("delta"), config.delta, delta_floor(min(config.n_list)))


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    method: str
    grid: str
    metric: str
    value: float
    trials: int
    seed: int
    config_hash: str


ROW_FIELDS = tuple(f.name for f in fields(ResultRow))


def config_hash(config: ExperimentConfig) -> str:
    """Stable 12-hex-digit digest of the full resolved configuration."""
    payload = "\n".join(
        f"{f.name}={plain(getattr(config, f.name))!r}" for f in sorted(fields(config), key=lambda f: f.name)
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _fmt_value(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def emit(rows, fmt: str, path: str) -> str:
    """Serialise result rows to CSV or JSON; never writes a partial file."""
    rows = list(rows)
    if not rows:
        raise ValueError("refusing to emit an empty result table")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(ROW_FIELDS)
        for row in rows:
            writer.writerow([_fmt_value(getattr(row, f)) for f in ROW_FIELDS])
        text = buf.getvalue()
    elif fmt == "json":
        payload = [{f: getattr(row, f) for f in ROW_FIELDS} for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    if path == "-":
        return text
    write_atomic(path, text.encode("utf-8"))
    return text


def parse_rows(text: str, fmt: str = "csv"):
    """Parse emitted output back into ResultRow objects (round-trip helper).

    A record whose fields are not exactly ``ROW_FIELDS``, or a JSON field not
    of its declared type, raises ``ValueError``.
    """
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if tuple(header) != ROW_FIELDS:
            raise ValueError(f"unexpected header {header!r}")
        records = list(reader)
        for rec in records:
            if len(rec) != len(ROW_FIELDS):
                raise ValueError(f"record {rec!r} has {len(rec)} fields, expected {len(ROW_FIELDS)}")
        # each field's declared type (str, float or int) parses its text
        return [ResultRow(*(f.type(v) for f, v in zip(fields(ResultRow), rec))) for rec in records]
    if fmt == "json":
        records = json.loads(text)
        for data in records:
            if not isinstance(data, dict) or data.keys() != set(ROW_FIELDS):
                raise ValueError(f"record {data!r} does not hold exactly the fields {ROW_FIELDS}")
            for f in fields(ResultRow):
                # JSON numbers of a float field may be written as integers; no bool is a number
                v = data[f.name]
                if isinstance(v, bool) or not isinstance(v, (int, float) if f.type is float else f.type):
                    raise ValueError(f"record field {f.name!r} must be a JSON {f.type.__name__}, got {v!r}")
        return [ResultRow(**data) for data in records]
    raise ValueError(f"unknown output format {fmt!r}")


# ---------------------------------------------------------------------------
# channel and solver plumbing shared by the estimation experiments


_MU0_DRAWS = 100_000  # rejection-sampling budget per trial and mu0 bin


def _mu0_hit_probability(bin_center, tolerance, lo, hi):
    """Probability that one draw of ``_sample_trial_channel`` lands in the bin.

    A draw takes sin0 ~ U(-1, 1) and r0 ~ U(lo, hi) and hits when
    mu0 = r0 / u, with u = 1 - sin0^2, lies in [c / tol, c * tol]. Given r0
    that is u in [r0 / (c tol), r0 tol / c]; as |sin0| ~ U(0, 1), u >= x has
    probability sqrt(1 - x) for x <= 1, whose integral over r0 is closed form.
    """
    a, b = bin_center / tolerance, bin_center * tolerance

    def tail(r, k):  # P(u >= r / k)
        return math.sqrt(1.0 - min(r / k, 1.0))

    if hi <= lo:
        return tail(lo, b) - tail(lo, a)

    def integral(k):  # integral of tail(r, k) over r in [lo, hi]
        return 2.0 * k / 3.0 * (tail(lo, k) ** 3 - tail(hi, k) ** 3)

    return max(0.0, integral(b) - integral(a)) / (hi - lo)


def _sample_trial_channel(config, cfg, dist_range, bin_center, data_key, trial):
    """One trial's channel; given a ``bin_center``, one whose LOS effective
    distance falls in a bin around it.

    Only the LOS angle/distance pair is rejection-sampled per bin; gains and
    the non-LOS paths come from a bin-independent stream so they are shared
    across bins (common random numbers).
    """
    base = sample_channel(cfg, config.n_paths, rng_from(*data_key, "chan", trial), config.power_split_db, dist_range)
    if bin_center is None:
        return base
    log_tol = math.log(config.mu0_bin_tolerance)
    for attempt in range(_MU0_DRAWS):
        sin0, r0 = _draw_sources(rng_from(*data_key, "los", bin_center, trial, attempt), *dist_range)
        mu0 = effective_distance(sin0, r0)
        if abs(math.log(mu0 / bin_center)) <= log_tol:
            return replace(base, thetas=(math.asin(sin0),) + base.thetas[1:], distances=(r0,) + base.distances[1:])
    raise ConfigError(
        _key("mu0_bins"),
        f"could not hit the bin {bin_center!r} within the sampling budget; "
        f"widen {_key('mu0_bin_tolerance')}",
    )


def _draw(config, cfg, dist_range, point, trial):
    """One trial's channel, pilot and noise draw at the grid point (T, SNR, mu0 bin).

    The draw is seeded from these coordinates and the trial index only, so
    every method and block size at the point faces the same data.
    """
    t, snr_db, mu0_bin = point
    data_key = (config.seed, config.experiment_id, f"T={t}", f"snr={_fmt_value(float(snr_db))}")
    return make_problem(
        cfg,
        _sample_trial_channel(config, cfg, dist_range, mu0_bin, data_key, trial),
        n_measurements=t,
        snr_db=snr_db,
        pilot_kind=config.pilot_kind,
        seed=rng_from(*data_key, "obs", trial),
    )


def _trial_nmse(config, draw, methods, dictionaries, block_sizes):
    """NMSE of one draw solved by every method at every block size.

    Returns a (block size, method) array. Each method senses the draw once,
    through its unformed operator for the polar baseline; a method that is
    not blocked, and ls, is solved once and its value spans every block size.
    The methods are solved in config order. The last one senses in the
    draw's own pilot buffer, after every other reader of the pilots has
    finished: when it is chirped, a draw holds one T x N array, not two.
    """
    values = np.empty((len(block_sizes), len(methods)))
    for i, (method, dictionary) in enumerate(zip(methods, dictionaries)):
        if dictionary is None:
            values[:, i] = nmse(draw.channel, ls_estimate(draw))
            continue
        operator = dictionary.sensing_operator(draw.pilots, overwrite=i == len(methods) - 1)
        fits = []
        for s in block_sizes if method.blocked else (1,):
            est = BlockOMP(
                s, k_max=config.k_max, stop_alpha=config.stop_alpha, noise_var=draw.noise_var, delta=config.delta
            )
            est.fit(operator, draw.observations)
            fits.append(nmse(draw.channel, dictionary.inverse_transform(est.coef_)))
        values[:, i] = fits
    return values


def _block_sizes(config):
    """Whether the run sweeps the block size, and the block sizes it solves at."""
    sweep = _KINDS[config.kind].grid == "block_size_list"
    return sweep, config.block_size_list if sweep else (config.block_size,)


# Peak RSS was measured within 10% of one worker's at two workers: each
# worker holds one draw (16 T N bytes, 13 MB at N = 2048, T = 400), and on
# nmse-xl-n2048 four workers raised it from 81 MB to 110 MB.
_MAX_WORKERS = 2


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _nmse_rows(config):
    """Runner of every NMSE sweep (rows block-size-major, then grid
    point, then method).

    The kind's ``points`` lists the grid as (label, (T, SNR, mu0 bin)). Each
    trial is drawn once and shared by all methods and block sizes at its grid
    point, so differences isolate the estimator. The dictionaries do not
    depend on the grid point, so each is built once per run. A (grid point,
    trial) task depends on nothing but its own coordinates, so the tasks run
    on one pool of min(usable CPUs, tasks, ``_MAX_WORKERS``) threads, one
    thread included, in any order; their values are stored by index and
    reduced in one order, which keeps the tables byte-identical for every
    worker count. The first error in task order propagates, as from a loop:
    the tasks not yet started are cancelled, and every worker has ended when
    it reaches the caller.
    """
    from concurrent.futures import ThreadPoolExecutor  # imported here: `import nfcs` and the analytics never load it

    cfg = config.array_config()
    dist_range = source_range(cfg, config.distance_min, config.distance_max)
    methods = [_METHODS[m] for m in config.methods]
    dictionaries = [None if m.build is None else m.build(config, cfg) for m in methods]
    points = _KINDS[config.kind].points(config)
    sweep, block_sizes = _block_sizes(config)
    tasks = [(p, trial) for p in range(len(points)) for trial in range(config.trials)]
    if any(snr_db != math.inf for _, (_, snr_db, _) in points):
        for dictionary in dictionaries:
            if dictionary is not None and not dictionary.chirped:
                # a dense dictionary's noisy fits read this bound for their
                # energy bracket; its build allocates an N x M transient, which
                # a worker's own malloc heap would keep after the build
                dictionary.row_gram_range

    def solve(task):
        p, trial = task
        draw = _draw(config, cfg, dist_range, points[p][1], trial)
        return _trial_nmse(config, draw, methods, dictionaries, block_sizes)

    values = np.empty((len(block_sizes), len(points), len(methods), config.trials))
    with ThreadPoolExecutor(min(_usable_cpus(), len(tasks), _MAX_WORKERS)) as pool:
        for (p, trial), v in zip(tasks, pool.map(solve, tasks)):
            values[:, p, :, trial] = v
    for s, by_point in zip(block_sizes, values):
        for (label, _), by_method in zip(points, by_point):
            label = f"s={s},{label}" if sweep else label
            for method, v in zip(config.methods, by_method):
                stderr = float(v.std(ddof=1) / math.sqrt(len(v))) if len(v) > 1 else 0.0
                yield method, label, "nmse_mean", float(v.mean())
                yield method, label, "nmse_stderr", stderr


def _snr_points(config):
    # the block-size sweep holds experiment.snr_db when it is given no SNR list
    return [
        (f"snr_db={_fmt_value(float(snr))}", (config.n_measurements, snr, None))
        for snr in config.snr_db_list or (config.snr_db,)
    ]


def _mu0_points(config):
    return [(f"mu0={_fmt_value(float(b))}", (config.n_measurements, config.snr_db, b)) for b in config.mu0_bins]


# ---------------------------------------------------------------------------
# experiment implementations


def _run_coherence_error(config: ExperimentConfig):
    for n in config.n_list:
        cfg = config.array_config(n)
        fresnel, rayleigh = field_boundaries(cfg)
        rng = rng_from(config.seed, config.experiment_id, f"N={n}")
        sines, dists = _draw_sources(rng, fresnel, rayleigh, (config.trials, 2))
        mus = effective_distance(sines, dists)
        a, b = phase_pair(cfg, sines[:, 0], sines[:, 1], mus[:, 0], mus[:, 1])
        err = np.abs(coherence_approx(a, b, n) - coherence_exact(a, b, n))
        yield "coherence_approx", f"N={n}", "mean_abs_error", float(err.mean())
        yield "coherence_approx", f"N={n}", "max_abs_error", float(err.max())


def _fast_analysis_fractions(dft, chirps, channels, delta):
    """Fraction of dictionary coefficients above delta, batched over draws.

    Exploits D_mu^H h = D^H (conj(chirp) * h), so one DFT dictionary analyses
    the draws of every mu in one batched transform.
    """
    alphas = dft.transform((np.conj(chirps) * channels).T)
    counts = (np.abs(alphas) >= delta).sum(axis=1)
    return counts / dft.n_antennas


def _run_sparsity_level(config: ExperimentConfig):
    trials = config.trials
    for n in config.n_list:
        cfg = config.array_config(n)
        fresnel, rayleigh = field_boundaries(cfg)
        rng = rng_from(config.seed, config.experiment_id, f"N={n}")
        # dictionary effective distances drawn as the effective distance of a
        # random in-range source
        sin_mu, r_mu = _draw_sources(rng, fresnel, rayleigh, trials)
        mu = effective_distance(sin_mu, r_mu)
        chirps = b_vector(cfg, mu)

        dft = build_dft(cfg)
        sin_0, r_0 = _draw_sources(rng, fresnel, rayleigh, trials)
        mu_0 = effective_distance(sin_0, r_0)
        los = _steering(cfg, sin_0, r_0, "exact")  # one column per draw
        frac_los = _fast_analysis_fractions(dft, chirps, los, config.delta)

        # multipath channels: unit total power, fixed LOS/NLOS power split
        g = _draw_gains(rng, (config.n_paths, trials), config.power_split_db)
        g /= np.sqrt(_path_power(g))
        multi = g[0] * los
        for path in range(1, config.n_paths):
            multi = multi + g[path] * _steering(cfg, *_draw_sources(rng, fresnel, rayleigh, trials), "exact")
        frac_multi = _fast_analysis_fractions(dft, chirps, multi, config.delta)

        _, b = phase_pair(cfg, 0.0, 0.0, mu, mu_0)
        bounds = sparsity_bound(cfg, config.delta, b) / n
        label = f"N={n}"
        yield "los", label, "mean_fraction", float(frac_los.mean())
        yield "multipath", label, "mean_fraction", float(frac_multi.mean())
        yield "theory", label, "mean_bound_fraction", float(bounds.mean())
        yield "los", label, "within_bound_rate", float(np.mean(frac_los < bounds))
        yield "multipath", label, "within_bound_rate", float(np.mean(frac_multi < bounds))


def _run_mutual_coherence(config: ExperimentConfig):
    cfg = config.array_config()
    dictionaries = {"dmu": _dmu(config, cfg), "polar": _polar(config, cfg)}
    for t in config.t_list:
        label = f"T={t}"
        values = {method: np.empty(config.trials) for method in dictionaries}
        for trial in range(config.trials):
            rng = rng_from(config.seed, config.experiment_id, label, trial)
            pilots = gen_pilots(t, cfg.n_antennas, config.pilot_kind, rng)
            for method, dictionary in dictionaries.items():
                values[method][trial] = mutual_coherence(dictionary.sense(pilots))
        for method, row in values.items():
            yield method, label, "median_mutual_coherence", float(np.median(row))
            yield method, label, "mean_mutual_coherence", float(row.mean())


def _run_rip_probe(config: ExperimentConfig):
    cfg = config.array_config()
    dmu = _dmu(config, cfg)
    for t in config.t_list:
        label = f"T={t}"
        pilots = gen_pilots(
            t, cfg.n_antennas, config.pilot_kind, rng_from(config.seed, config.experiment_id, label, "pilots")
        )
        report = rip_mod.empirical_rip_probe(
            dmu.sense(pilots),
            config.rip_block_size,
            config.rip_k,
            config.trials,
            seed=(config.seed, config.experiment_id, label),
            target_xi=config.rip_target_xi,
        )
        yield "dmu_sensing", label, "xi_hat", report.xi_hat
        yield "dmu_sensing", label, "violation_rate", report.violation_rate


class _Kind(NamedTuple):
    run: Callable  # config -> (method, grid, metric, value) tuples
    grid: str  # the ExperimentConfig field it sweeps; must be non-empty
    check: Callable = None  # (config, array config) -> None; raises ConfigError
    points: Callable = None  # NMSE sweeps: config -> [(label, (T, SNR, mu0 bin))]
    dictionaries: bool = True  # builds dictionaries, which need half-wavelength spacing


_KINDS = {
    "coherence_error": _Kind(_run_coherence_error, "n_list", _check_no_source_range, dictionaries=False),
    "sparsity_level": _Kind(_run_sparsity_level, "n_list", _check_sparsity_level),
    "mutual_coherence": _Kind(_run_mutual_coherence, "t_list", _check_polar_range),
    "block_size_sweep": _Kind(_nmse_rows, "block_size_list", _check_estimation, _snr_points),
    "nmse_vs_T": _Kind(
        _nmse_rows, "t_list", _check_estimation, lambda c: [(f"T={t}", (t, c.snr_db, None)) for t in c.t_list]
    ),
    "nmse_vs_snr": _Kind(_nmse_rows, "snr_db_list", _check_estimation, _snr_points),
    "nmse_vs_mu0": _Kind(_nmse_rows, "mu0_bins", _check_estimation, _mu0_points),
    "rip_probe": _Kind(_run_rip_probe, "t_list", _check_rip_blocks),
}

EXPERIMENT_KINDS = tuple(_KINDS)


def run(config: ExperimentConfig):
    """Run one experiment and return its result rows (no partial results).

    The NMSE sweeps run their (grid point, trial) tasks on a small thread
    pool (see ``_nmse_rows``); the rows do not depend on it. The other kinds
    run serially. Runners yield ``(method, grid, metric, value)``; every row
    is stamped here with the experiment id, trial count, seed and config hash.
    """
    config.validate()
    chash = config_hash(config)
    # plain ints in the rows: json cannot write a NumPy integer
    return [
        ResultRow(config.experiment_id, method, grid, metric, value, int(config.trials), int(config.seed), chash)
        for method, grid, metric, value in _KINDS[config.kind].run(config)
    ]


# ---------------------------------------------------------------------------
# presets


_DESK_GRIDS = {
    "coherence_error": dict(n_list=(256, 1024), trials=1000),
    "sparsity_level": dict(n_list=(256, 512, 1024), trials=1000),
    "mutual_coherence": dict(t_list=(100,), trials=100),
    "block_size_sweep": dict(
        block_size_list=(4, 8, 32), snr_db_list=(5.0,), n_measurements=100, trials=200
    ),
    "nmse_vs_T": dict(t_list=(40, 80, 120), snr_db=5.0, trials=200,
                      methods=("dmu_block_omp", "polar_omp")),
    "nmse_vs_snr": dict(snr_db_list=(0.0, 5.0, 10.0), n_measurements=80, trials=200,
                        methods=("dmu_block_omp", "polar_omp")),
    # the effective-distance sweep runs at 12 dB: under the pilot-averaged SNR
    # convention that is where the dictionary-mismatch cost dominates the
    # trial noise (at 5 dB the second-order model error of short-range
    # sources swamps the bin differences)
    "nmse_vs_mu0": dict(mu0_bins=(6.0, 20.0, 50.0, 80.0), n_measurements=100,
                        snr_db=12.0, mu0_bin_tolerance=1.1, trials=100),
    "rip_probe": dict(t_list=(32, 64), n_antennas=64, rip_block_size=8, rip_k=2, trials=1000),
}

_PAPER_GRIDS = {
    "coherence_error": dict(n_list=(256, 512, 1024, 2560), trials=1000),
    "sparsity_level": dict(n_list=(256, 512, 1024, 2048), trials=1000),
    "mutual_coherence": dict(t_list=(100, 200), trials=1000),
    "block_size_sweep": dict(
        block_size_list=(2, 4, 8, 16, 32),
        snr_db_list=(-5.0, 0.0, 5.0, 10.0, 15.0, 20.0),
        n_measurements=100,
        trials=1000,
    ),
    "nmse_vs_T": dict(t_list=(40, 60, 80, 100, 120, 160, 200, 240), snr_db=5.0, trials=1000,
                      methods=("dmu_block_omp", "polar_omp", "dft_omp")),
    "nmse_vs_snr": dict(snr_db_list=(-5.0, 0.0, 1.0, 5.0, 10.0, 15.0, 20.0),
                        n_measurements=80, trials=1000,
                        methods=("dmu_block_omp", "polar_omp", "dft_omp")),
    "nmse_vs_mu0": dict(mu0_bins=(6.0, 20.0, 50.0, 80.0), n_measurements=100,
                        snr_db=12.0, mu0_bin_tolerance=1.1, trials=1000),
    "rip_probe": dict(t_list=(32, 64, 128), n_antennas=64, rip_block_size=8, rip_k=2,
                      trials=10_000),
}

# preset name -> per-kind grids
PRESETS = {"desk": _DESK_GRIDS, "paper": _PAPER_GRIDS}


def preset_config(kind: str, preset: str, seed: int) -> ExperimentConfig:
    """Default configuration for an experiment kind under a preset scale."""
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError("experiment.kind", f"unknown kind {kind!r}")
    table = PRESETS.get(preset)
    if table is None:
        raise ConfigError("experiment.preset", f"unknown preset {preset!r}")
    return ExperimentConfig(kind=kind, seed=seed, preset=preset, **table[kind])
