"""Config-driven, seeded Monte Carlo experiments with machine-readable output.

Every experiment is deterministic given (config, seed): per-trial generators
are derived from a stable hash of the master seed, the experiment id, the
grid point and the trial index, so grid points can run in any order (or in
parallel) and still produce byte-identical output files.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import numbers
import os
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from . import block_rip as rip_mod
from .coherence import _approx_magnitudes, _exact_magnitudes, sparsity_bound
from .dictionaries import Dictionary, build_dft, build_dmu, build_polar_baseline, mutual_coherence
from .geometry import (
    ArrayConfig,
    ChannelSpec,
    PathParams,
    _scale_gains,
    _steering,
    b_vector,
    field_boundaries,
    sample_channel,
)
from .recovery import PILOT_KINDS, BlockOMP, gen_pilots, ls_estimate, make_problem, nmse
from .seeding import rng_from
from .validation import DECIBEL_LIMIT

EXPERIMENT_KINDS = (
    "coherence_error",
    "sparsity_level",
    "mutual_coherence",
    "block_size_sweep",
    "nmse_vs_T",
    "nmse_vs_snr",
    "nmse_vs_mu0",
    "rip_probe",
)

METHOD_NAMES = ("dmu_block_omp", "polar_omp", "dft_omp", "ls")


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the offending field path."""

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


def _list_of(parse):
    return lambda text: tuple(parse(v.strip()) for v in text.split(",") if v.strip())


def _optional_float(text: str):
    return None if text.strip().lower() == "none" else float(text)


# admissible values: (predicate, requirement)
def _integer(lo):
    return lambda v: isinstance(v, numbers.Integral) and v >= lo, f"must be an integer >= {lo}"


def _one_of(names):
    return names.__contains__, f"must be one of {', '.join(names)}"


_POSITIVE = (lambda v: math.isfinite(v) and v > 0, "must be positive and finite")
_DECIBELS = (lambda v: -DECIBEL_LIMIT <= v <= DECIBEL_LIMIT, "must lie in [-300, 300] dB")
# +inf is the noiseless sentinel; -inf and nan name no noise level
_SNR = (lambda v: v == math.inf or _DECIBELS[0](v), "must lie in [-300, 300] dB or be inf")


def _setting(key, parse, rule, default=MISSING):
    """Field settable from a config file by its dotted ``key``; ``parse`` reads
    the value text and ``rule`` is the (predicate, requirement) pair of the
    admissible values, applied to each entry of a tuple field."""
    predicate, requirement = rule
    return field(
        default=default,
        metadata={"key": key, "parse": parse, "rule": predicate, "requirement": requirement},
    )


@dataclass
class ExperimentConfig:
    kind: str
    seed: int = _setting("experiment.seed", int, (lambda v: isinstance(v, numbers.Integral), "must be an integer"))
    trials: int = _setting("experiment.trials", int, _integer(1), 200)
    preset: str = "desk"
    # array
    carrier_freq: float = _setting("array.carrier_freq_hz", float, _POSITIVE, 100e9)
    n_antennas: int = _setting("array.n_antennas", int, _integer(2), 256)
    spacing: float = _setting("array.spacing_m", float, _POSITIVE, None)
    # channel statistics
    n_paths: int = _setting("channel.n_paths", int, _integer(1), 3)
    power_split_db: float = _setting("channel.power_split_db", float, _DECIBELS, 13.0)
    distance_min: float = _setting("channel.distance_min_m", float, _POSITIVE, None)
    distance_max: float = _setting("channel.distance_max_m", float, _POSITIVE, None)
    # grids
    n_list: tuple = _setting("experiment.n_list", _list_of(int), _integer(2), ())
    t_list: tuple = _setting("experiment.t_list", _list_of(int), _integer(1), ())
    snr_db_list: tuple = _setting("experiment.snr_db_list", _list_of(float), _SNR, ())
    mu0_bins: tuple = _setting("experiment.mu0_bins", _list_of(float), _POSITIVE, ())
    block_size_list: tuple = _setting("experiment.block_size_list", _list_of(int), _integer(1), ())
    methods: tuple = _setting("experiment.methods", _list_of(str), _one_of(METHOD_NAMES), ("dmu_block_omp",))
    # fixed operating point for single-axis sweeps
    n_measurements: int = _setting("experiment.n_measurements", int, _integer(1), 100)
    snr_db: float = _setting("experiment.snr_db", float, _SNR, 5.0)
    # dictionaries and solver; mu = +inf is the plane-wave (DFT) dictionary
    mu: float = _setting("dictionary.mu", float, (lambda v: v > 0, "must be positive or inf"), 20.0)
    block_size: int = _setting("recovery.block_size", int, _integer(1), 4)
    k_max: int = _setting("recovery.k_max", int, _integer(0), None)
    stop_alpha: float = _setting(
        "recovery.stop_alpha",
        _optional_float,
        (lambda v: v is None or 0 < v <= 1, "must lie in (0, 1] or be none"),
        0.05,
    )
    pilot_kind: str = _setting("recovery.pilot_kind", str, _one_of(PILOT_KINDS), "gaussian")
    polar_rings: int = _setting("dictionary.polar_rings", int, _integer(1), 6)
    polar_r_min: float = _setting("dictionary.polar_r_min_m", float, _POSITIVE, None)
    polar_r_max: float = _setting("dictionary.polar_r_max_m", float, _POSITIVE, None)
    # analytics
    # a threshold on coefficient magnitudes of unit-norm channels
    delta: float = _setting("experiment.delta", float, (lambda v: 0 < v <= 1, "must lie in (0, 1]"), 0.01)
    mu0_bin_tolerance: float = _setting(
        "experiment.mu0_bin_tolerance",
        float,
        (lambda v: math.isfinite(v) and v > 1, "must be finite and exceed 1.0"),
        1.25,
    )
    # restricted-isometry probe
    rip_block_size: int = _setting("rip.block_size", int, _integer(1), 16)
    rip_k: int = _setting("rip.k", int, _integer(1), 2)
    rip_target_xi: float = _setting("rip.target_xi", float, (lambda v: 0 < v < 1, "must lie in (0, 1)"), 0.5)

    def array_config(self, n_antennas: int = None) -> ArrayConfig:
        return ArrayConfig(
            carrier_freq=self.carrier_freq,
            n_antennas=self.n_antennas if n_antennas is None else n_antennas,
            spacing=self.spacing,
        )

    @property
    def experiment_id(self) -> str:
        return f"{self.kind}:{self.preset}"

    def validate(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError("experiment.kind", f"unknown kind {self.kind!r}")
        for f in fields(self):
            if not f.metadata:
                continue
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            for v in value if isinstance(f.default, tuple) else (value,):
                try:
                    ok = f.metadata["rule"](v)
                except TypeError:  # a value of the wrong type from a library caller
                    ok = False
                if not ok:
                    raise ConfigError(f.metadata["key"], f"{f.metadata['requirement']}, got {v!r}")

        # checks spanning several fields
        grid_field = {
            "coherence_error": "n_list",
            "sparsity_level": "n_list",
            "mutual_coherence": "t_list",
            "block_size_sweep": "block_size_list",
            "nmse_vs_T": "t_list",
            "nmse_vs_snr": "snr_db_list",
            "nmse_vs_mu0": "mu0_bins",
            "rip_probe": "t_list",
        }[self.kind]
        if not getattr(self, grid_field):
            raise ConfigError(_key(grid_field), "grid must be non-empty")
        # each array field can be admissible on its own while the wavelength
        # or the field boundaries derived from them overflow or underflow
        for n in self.n_list if grid_field == "n_list" else (self.n_antennas,):
            sized = self.array_config(n)
            try:
                fresnel, rayleigh = field_boundaries(sized)
            except OverflowError:
                fresnel = rayleigh = math.inf
            if not (math.isfinite(sized.wavelength) and 0 < fresnel <= rayleigh < math.inf):
                raise ConfigError(
                    _key("spacing" if self.spacing is not None else "carrier_freq"),
                    f"at N = {n} the wavelength is {sized.wavelength!r} and the Fresnel and "
                    f"Rayleigh distances are {fresnel!r} and {rayleigh!r}; they must be finite "
                    "with 0 < Fresnel <= Rayleigh",
                )
        cfg = self.array_config()
        if self.kind != "coherence_error" and not cfg.is_half_wavelength:
            raise ConfigError(
                _key("spacing"),
                f"the dictionaries need half-wavelength spacing {cfg.wavelength / 2!r}, "
                f"got {self.spacing!r}",
            )
        estimation = self.kind in ("block_size_sweep", "nmse_vs_T", "nmse_vs_snr", "nmse_vs_mu0")
        if estimation:
            if not self.methods:
                raise ConfigError(_key("methods"), "must be non-empty")
            repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
            if repeated:
                raise ConfigError(_key("methods"), f"names a method more than once: {repeated}")
            t_values = self.t_list if self.kind == "nmse_vs_T" else (self.n_measurements,)
            if "ls" in self.methods:
                bad = [t for t in t_values if t < self.n_antennas]
                if bad:
                    raise ConfigError(
                        _key("methods"),
                        f"method 'ls' needs n_measurements >= n_antennas; offending T values: {bad}",
                    )
            sweep = self.kind == "block_size_sweep"
            for s in self.block_size_list if sweep else (self.block_size,):
                if self.n_antennas % s != 0:
                    raise ConfigError(
                        _key("block_size_list" if sweep else "block_size"),
                        f"block size {s} does not divide n_antennas {self.n_antennas}",
                    )
            fresnel, _ = field_boundaries(cfg)
            lo, hi = _distance_range(self, cfg)
            if lo < fresnel * (1 - 1e-9):
                raise ConfigError(
                    _key("distance_min"),
                    f"must be at or beyond the Fresnel distance {fresnel!r}, got {lo!r}",
                )
            if lo > hi:
                raise ConfigError(
                    _key("distance_max" if self.distance_max is not None else "distance_min"),
                    f"the distance range ({lo!r}, {hi!r}) is inverted",
                )
            if not math.isfinite(hi * hi):
                # the exact spherical-wavefront delay squares the distance
                raise ConfigError(_key("distance_max"), f"{hi!r} m is too large to square")
            if self.kind == "nmse_vs_mu0":
                # the sampler gives up on a bin after _MU0_DRAWS misses; reject
                # a bin it misses that often with probability above 1e-9
                for b in self.mu0_bins:
                    p = _mu0_hit_probability(b, self.mu0_bin_tolerance, lo, hi)
                    if (1.0 - p) ** _MU0_DRAWS > 1e-9:
                        raise ConfigError(
                            _key("mu0_bins"),
                            f"bin {b!r} is unreachable: a draw hits it with probability {p:.3g}, "
                            f"too rarely for {_MU0_DRAWS} draws; widen "
                            f"{_key('mu0_bin_tolerance')} or move the bin toward the distance "
                            f"range ({lo!r}, {hi!r})",
                        )
        if self.kind == "mutual_coherence" or (estimation and "polar_omp" in self.methods):
            lo, hi = _polar_range(self, cfg)
            if lo > hi:
                raise ConfigError(
                    _key("polar_r_max" if self.polar_r_max is not None else "polar_r_min"),
                    f"the polar distance range ({lo!r}, {hi!r}) is inverted",
                )
        if self.kind == "rip_probe":
            if self.n_antennas % self.rip_block_size != 0:
                raise ConfigError(
                    _key("rip_block_size"),
                    f"{self.rip_block_size} does not divide n_antennas {self.n_antennas}",
                )
            n_blocks = self.n_antennas // self.rip_block_size
            if self.rip_k > n_blocks:
                raise ConfigError(_key("rip_k"), f"{self.rip_k} exceeds the number of blocks {n_blocks}")
        if self.kind == "sparsity_level":
            floor = max(1.0 / n for n in self.n_list)
            if self.delta <= floor:
                raise ConfigError(
                    _key("delta"),
                    f"must exceed the validity floor 1/N = {floor:.3e} "
                    f"for the smallest antenna count in {_key('n_list')}",
                )


# dotted config-file key -> ExperimentConfig field, derived from the declarations above
CONFIG_FIELDS = {f.metadata["key"]: f for f in fields(ExperimentConfig) if f.metadata}


def _key(name: str) -> str:
    """Config-file key of the ExperimentConfig field ``name``."""
    return next(key for key, f in CONFIG_FIELDS.items() if f.name == name)


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
        f"{f.name}={getattr(config, f.name)!r}" for f in sorted(fields(config), key=lambda f: f.name)
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _fmt_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


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
        payload = [
            {f: getattr(row, f) for f in ROW_FIELDS}
            for row in rows
        ]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    if path == "-":
        return text
    # write a sibling file and rename it over the target, so readers see
    # either the old file or the complete new one
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return text


def parse_rows(text: str, fmt: str = "csv"):
    """Parse emitted output back into ResultRow objects (round-trip helper)."""
    rows = []
    if fmt == "csv":
        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if tuple(header) != ROW_FIELDS:
            raise ValueError(f"unexpected header {header!r}")
        for rec in reader:
            data = dict(zip(ROW_FIELDS, rec))
            rows.append(
                ResultRow(
                    experiment=data["experiment"],
                    method=data["method"],
                    grid=data["grid"],
                    metric=data["metric"],
                    value=float(data["value"]),
                    trials=int(data["trials"]),
                    seed=int(data["seed"]),
                    config_hash=data["config_hash"],
                )
            )
    elif fmt == "json":
        for data in json.loads(text):
            rows.append(ResultRow(**data))
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    return rows


# ---------------------------------------------------------------------------
# channel and solver plumbing shared by the estimation experiments


def _distance_range(config: ExperimentConfig, cfg: ArrayConfig) -> tuple:
    fresnel, rayleigh = field_boundaries(cfg)
    lo = config.distance_min if config.distance_min is not None else fresnel
    hi = config.distance_max if config.distance_max is not None else 1.2 * rayleigh
    return lo, hi


def _polar_range(config: ExperimentConfig, cfg: ArrayConfig) -> tuple:
    fresnel, rayleigh = field_boundaries(cfg)
    lo = config.polar_r_min if config.polar_r_min is not None else fresnel
    hi = config.polar_r_max if config.polar_r_max is not None else rayleigh
    return lo, hi


def _build_method_dictionary(config, cfg, method: str) -> Dictionary | None:
    if method == "dmu_block_omp":
        return build_dmu(cfg, config.mu)
    if method == "dft_omp":
        return build_dft(cfg)
    if method == "polar_omp":
        return build_polar_baseline(cfg, config.polar_rings, _polar_range(config, cfg))
    return None  # ls estimates the channel without a dictionary


_MU0_DRAWS = 100_000  # rejection-sampling budget per trial and mu0 bin


def _mu0_hit_probability(bin_center, tolerance, lo, hi):
    """Probability that one draw of ``_sample_mu0_binned`` lands in the bin.

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


def _sample_mu0_binned(config, cfg, dist_range, bin_center, data_key, trial):
    """Channel whose LOS effective distance falls in a bin around ``bin_center``.

    Only the LOS angle/distance pair is rejection-sampled per bin; gains and
    the non-LOS paths come from a bin-independent stream so they are shared
    across bins (common random numbers).
    """
    base = sample_channel(
        cfg,
        config.n_paths,
        rng_from(*data_key, "chan", trial),
        power_split_db=config.power_split_db,
        distance_range=dist_range,
    )
    log_tol = math.log(config.mu0_bin_tolerance)
    lo, hi = dist_range
    for attempt in range(_MU0_DRAWS):
        rng = rng_from(*data_key, "los", bin_center, trial, attempt)
        sin0 = rng.uniform(-1.0, 1.0)
        r0 = rng.uniform(lo, hi)
        mu0 = r0 / (1.0 - sin0**2)
        if abs(math.log(mu0 / bin_center)) <= log_tol:
            los = base.paths[0]
            paths = (
                PathParams(los.gain, math.asin(sin0), r0, is_los=True),
            ) + base.paths[1:]
            return ChannelSpec(paths=paths)
    raise ConfigError(
        _key("mu0_bins"),
        f"could not hit the bin {bin_center!r} within the sampling budget; "
        f"widen {_key('mu0_bin_tolerance')}",
    )


def _trial_nmse(config, cfg, dist_range, point, data_key, trial, dictionaries):
    """One estimation trial: one channel, pilot and noise draw, solved by every method.

    Returns the NMSE of each of ``config.methods`` in order. The draw lives
    only for this call, and each method's sensing operator only for its
    solve; the polar baseline's is its unformed pilots-times-matrix product.
    """
    t, snr_db, _, mu0_bin = point
    if mu0_bin is None:
        spec = sample_channel(
            cfg,
            config.n_paths,
            rng_from(*data_key, "chan", trial),
            power_split_db=config.power_split_db,
            distance_range=dist_range,
        )
    else:
        spec = _sample_mu0_binned(config, cfg, dist_range, mu0_bin, data_key, trial)
    draw = make_problem(
        cfg,
        spec,
        n_measurements=t,
        snr_db=snr_db,
        pilot_kind=config.pilot_kind,
        seed=rng_from(*data_key, "obs", trial),
    )
    values = []
    for method, dictionary in zip(config.methods, dictionaries):
        if method == "ls":
            h_hat = ls_estimate(draw)
        else:
            block_size = config.block_size if method == "dmu_block_omp" else 1
            est = BlockOMP(
                block_size=block_size,
                k_max=config.k_max,
                stop_alpha=config.stop_alpha,
                noise_var=draw.noise_var,
                delta=config.delta,
            )
            est.fit(dictionary.sensing_operator(draw.pilots), draw.observations)
            h_hat = dictionary.inverse_transform(est.coef_)
        values.append(nmse(draw.channel, h_hat))
    return values


def _nmse_rows(config, grid_points, grid_label):
    """Shared driver for the NMSE sweeps (rows grid-major, method-minor).

    Channel and observation draws are seeded from the grid coordinates the
    data actually depends on (T, SNR, and the mu0 bin), so methods at one
    grid point and block sizes across the sweep face identical channels,
    pilots and noise; differences then isolate the estimator. Each trial is
    drawn once and shared by all methods at its grid point. The dictionaries
    do not depend on the grid point, so each is built once per run.
    """
    cfg = config.array_config()
    dist_range = _distance_range(config, cfg)
    dictionaries = [_build_method_dictionary(config, cfg, method) for method in config.methods]
    for point in grid_points:
        label = grid_label(point)
        t, snr_db, s, _ = point
        point_config = config if s is None else replace(config, block_size=s)
        data_key = (config.seed, config.experiment_id, f"T={t}", f"snr={_fmt_value(float(snr_db))}")
        values = np.empty((len(config.methods), config.trials))
        for trial in range(config.trials):
            values[:, trial] = _trial_nmse(
                point_config, cfg, dist_range, point, data_key, trial, dictionaries
            )
        for method, v in zip(config.methods, values):
            stderr = float(v.std(ddof=1) / math.sqrt(len(v))) if len(v) > 1 else 0.0
            yield method, label, "nmse_mean", float(v.mean())
            yield method, label, "nmse_stderr", stderr


# ---------------------------------------------------------------------------
# experiment implementations


def _run_coherence_error(config: ExperimentConfig):
    for n in config.n_list:
        cfg = config.array_config(n)
        fresnel, rayleigh = field_boundaries(cfg)
        rng = rng_from(config.seed, config.experiment_id, f"N={n}")
        sines = rng.uniform(-1.0, 1.0, (config.trials, 2))
        dists = rng.uniform(fresnel, rayleigh, (config.trials, 2))
        mus = dists / (1.0 - sines**2)
        a = (2 * np.pi * cfg.spacing / cfg.wavelength) * (sines[:, 0] - sines[:, 1])
        b = (np.pi * cfg.spacing**2 / cfg.wavelength) * (1.0 / mus[:, 1] - 1.0 / mus[:, 0])
        err = np.abs(_approx_magnitudes(a, b, n) - _exact_magnitudes(a, b, n))
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
        sin_mu = rng.uniform(-1.0, 1.0, trials)
        r_mu = rng.uniform(fresnel, rayleigh, trials)
        mu = r_mu / (1.0 - sin_mu**2)
        chirps = b_vector(cfg, mu)

        dft = build_dft(cfg)
        sin_0 = rng.uniform(-1.0, 1.0, trials)
        r_0 = rng.uniform(fresnel, rayleigh, trials)
        mu_0 = r_0 / (1.0 - sin_0**2)
        los = _steering(cfg, sin_0, r_0, "exact")  # one column per draw
        frac_los = _fast_analysis_fractions(dft, chirps, los, config.delta)

        # multipath channels: unit total power, fixed LOS/NLOS power split
        g = (rng.standard_normal((config.n_paths, trials)) + 1j * rng.standard_normal((config.n_paths, trials))) / math.sqrt(2)
        for i in range(trials):
            _scale_gains(g[:, i], config.power_split_db, normalize=True)
        multi = g[0] * los
        for path in range(1, config.n_paths):
            sin_l = rng.uniform(-1.0, 1.0, trials)
            r_l = rng.uniform(fresnel, rayleigh, trials)
            multi = multi + g[path] * _steering(cfg, sin_l, r_l, "exact")
        frac_multi = _fast_analysis_fractions(dft, chirps, multi, config.delta)

        bounds = np.array(
            [
                sparsity_bound(
                    cfg,
                    config.delta,
                    (math.pi * cfg.spacing**2 / cfg.wavelength) * (1.0 / mu_0[i] - 1.0 / mu[i]),
                ).k_bar
                / n
                for i in range(trials)
            ]
        )
        label = f"N={n}"
        yield "los", label, "mean_fraction", float(frac_los.mean())
        yield "multipath", label, "mean_fraction", float(frac_multi.mean())
        yield "theory", label, "mean_bound_fraction", float(bounds.mean())
        yield "los", label, "within_bound_rate", float(np.mean(frac_los < bounds))
        yield "multipath", label, "within_bound_rate", float(np.mean(frac_multi < bounds))


def _run_mutual_coherence(config: ExperimentConfig):
    cfg = config.array_config()
    dictionaries = {
        "dmu": build_dmu(cfg, config.mu),
        "polar": build_polar_baseline(cfg, config.polar_rings, _polar_range(config, cfg)),
    }
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


def _run_block_size_sweep(config: ExperimentConfig):
    points = [
        (config.n_measurements, snr, s, None)
        for s in config.block_size_list
        for snr in (config.snr_db_list or (config.snr_db,))
    ]

    def label(point):
        return f"s={point[2]},snr_db={_fmt_value(float(point[1]))}"

    return _nmse_rows(config, points, label)


def _run_nmse_vs_t(config: ExperimentConfig):
    points = [(t, config.snr_db, None, None) for t in config.t_list]
    return _nmse_rows(config, points, lambda p: f"T={p[0]}")


def _run_nmse_vs_snr(config: ExperimentConfig):
    points = [(config.n_measurements, snr, None, None) for snr in config.snr_db_list]
    return _nmse_rows(config, points, lambda p: f"snr_db={_fmt_value(float(p[1]))}")


def _run_nmse_vs_mu0(config: ExperimentConfig):
    points = [(config.n_measurements, config.snr_db, None, b) for b in config.mu0_bins]
    return _nmse_rows(config, points, lambda p: f"mu0={_fmt_value(float(p[3]))}")


def _run_rip_probe(config: ExperimentConfig):
    cfg = config.array_config()
    dmu = build_dmu(cfg, config.mu)
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


_RUNNERS = {
    "coherence_error": _run_coherence_error,
    "sparsity_level": _run_sparsity_level,
    "mutual_coherence": _run_mutual_coherence,
    "block_size_sweep": _run_block_size_sweep,
    "nmse_vs_T": _run_nmse_vs_t,
    "nmse_vs_snr": _run_nmse_vs_snr,
    "nmse_vs_mu0": _run_nmse_vs_mu0,
    "rip_probe": _run_rip_probe,
}


def run(config: ExperimentConfig):
    """Run one experiment and return its result rows (no partial results).

    Runners yield ``(method, grid, metric, value)``; every row is stamped here
    with the experiment id, trial count, seed and config hash.
    """
    config.validate()
    chash = config_hash(config)
    return [
        ResultRow(config.experiment_id, method, grid, metric, value, config.trials, config.seed, chash)
        for method, grid, metric, value in _RUNNERS[config.kind](config)
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


def preset_config(kind: str, preset: str, seed: int) -> ExperimentConfig:
    """Default configuration for an experiment kind under a preset scale."""
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError("experiment.kind", f"unknown kind {kind!r}")
    table = {"desk": _DESK_GRIDS, "paper": _PAPER_GRIDS}.get(preset)
    if table is None:
        raise ConfigError("experiment.preset", f"unknown preset {preset!r}")
    return ExperimentConfig(kind=kind, seed=seed, preset=preset, **table[kind])
