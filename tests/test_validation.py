"""Argument rules: one definition in ``nfcs.validation``, read by the library
entry points and by the experiment config alike."""

import math
import re
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from nfcs import (
    ArrayConfig,
    BlockOMP,
    ChannelSpec,
    b_vector,
    build_dft,
    build_dmu,
    build_polar_baseline,
    coherence_approx,
    coherence_exact,
    empirical_rip_probe,
    field_boundaries,
    gen_pilots,
    ls_estimate,
    make_problem,
    mutual_coherence,
    near_steering,
    noise_variance,
    phase_pair,
    predicted_support,
    sample_channel,
    sample_complexity,
    synthesize_channel,
    thresholds,
    varrho_bound,
)
from nfcs.dictionaries import polar_range
from nfcs.geometry import finite_delay, finite_phase, source_range
from nfcs.harness import ConfigError, ExperimentConfig, preset_config
from nfcs.validation import (
    DECIBELS,
    DECIBELS_OR_INF,
    FRACTION,
    FRACTION_OR_NONE,
    OPEN_FRACTION,
    POSITIVE,
    POSITIVE_OR_INF,
    integer,
)

CFG = ArrayConfig(carrier_freq=100e9, n_antennas=16)


def _fit(**settings):
    rng = np.random.default_rng(20)
    X = rng.standard_normal((20, 16)) + 1j * rng.standard_normal((20, 16))
    return BlockOMP(**{"block_size": 4, "noise_var": 1e-2, **settings}).fit(X, X[:, 3])


# the bad values of each kind of rule
BAD = {
    "integer": (2.5, True),
    "finite": (True, math.nan, math.inf),  # a real that must be finite
    "real": (True, math.nan),  # a real that may be inf, or lies in (0, 1] or (0, 1)
    "angle": (True, math.nan, 3.0),  # a real in (-pi/2, pi/2)
    # the chirp takes an array of distances, where True reads as the distance 1.0
    "array": (math.nan,),
    "matrix": (np.zeros((0, 4)), np.ones((3, 0))),  # empty
}

_EYE = np.eye(16, dtype=complex)

# entry point -> (argument name, kind of rule, call with that argument set to a value)
LIBRARY = {
    "ArrayConfig.n_antennas": ("n_antennas", "integer", lambda v: ArrayConfig(100e9, v)),
    "ArrayConfig.carrier_freq": ("carrier_freq", "finite", lambda v: ArrayConfig(v, 4)),
    "ArrayConfig.spacing": ("spacing", "finite", lambda v: ArrayConfig(100e9, 4, v)),
    "ChannelSpec.distances": ("distance", "finite", lambda v: ChannelSpec((1.0,), (0.0,), (v,))),
    "ChannelSpec.thetas": ("theta", "angle", lambda v: ChannelSpec((1.0,), (v,), (10.0,))),
    "near_steering.r": ("r", "finite", lambda v: near_steering(CFG, 0.0, v)),
    "b_vector.mu": ("mu", "array", lambda v: b_vector(CFG, v)),
    "sample_channel.n_paths": ("n_paths", "integer", lambda v: sample_channel(CFG, v, 1)),
    "sample_channel.power_split_db": (
        "power_split_db",
        "finite",
        lambda v: sample_channel(CFG, 2, 1, power_split_db=v),
    ),
    "build_polar_baseline.n_rings": ("n_rings", "integer", lambda v: build_polar_baseline(CFG, n_rings=v)),
    "gen_pilots.n_measurements": ("n_measurements", "integer", lambda v: gen_pilots(v, 16, seed=1)),
    "gen_pilots.n_antennas": ("n_antennas", "integer", lambda v: gen_pilots(4, v, seed=1)),
    "noise_variance.n_antennas": ("n_antennas", "integer", lambda v: noise_variance(np.ones(4), v, 5.0)),
    "noise_variance.snr_db": ("snr_db", "real", lambda v: noise_variance(np.ones(4), 4, v)),
    "BlockOMP.block_size": ("block_size", "integer", lambda v: _fit(block_size=v)),
    "BlockOMP.k_max": ("k_max", "integer", lambda v: _fit(k_max=v)),
    "BlockOMP.stop_alpha": ("stop_alpha", "real", lambda v: _fit(stop_alpha=v)),
    "BlockOMP.noise_var": ("noise_var", "finite", lambda v: _fit(noise_var=v)),
    "BlockOMP.delta": ("delta", "real", lambda v: _fit(delta=v)),
    "phase_pair.mu": ("mu", "real", lambda v: phase_pair(CFG, 0.0, 0.0, v, 20.0)),
    "phase_pair.mu_0": ("mu_0", "real", lambda v: phase_pair(CFG, 0.0, 0.0, 20.0, v)),
    "coherence_exact.n_antennas": ("n_antennas", "integer", lambda v: coherence_exact(0.1, 0.0, v)),
    "coherence_exact.a": ("a", "finite", lambda v: coherence_exact(v, 0.0, 8)),
    "coherence_exact.b": ("b", "finite", lambda v: coherence_exact(0.1, v, 8)),
    "coherence_approx.a": ("a", "finite", lambda v: coherence_approx(v, 1e-3, 8)),
    "coherence_approx.b": ("b", "finite", lambda v: coherence_approx(1.0, v, 8)),
    "thresholds.n_antennas": ("n_antennas", "integer", lambda v: thresholds(v, 0.5)),
    "thresholds.delta": ("delta", "real", lambda v: thresholds(16, v)),
    "thresholds.b_abs": ("b_abs", "finite", lambda v: thresholds(16, 0.5, v)),
    "predicted_support.theta_0": ("theta_0", "angle", lambda v: predicted_support(CFG, v, 20.0, 20.0, 0.5)),
    "varrho_bound.delta": ("delta", "real", lambda v: varrho_bound(CFG, v)),
    "varrho_bound.mu_0": ("mu_0", "real", lambda v: varrho_bound(CFG, 0.5, mu_pair=(v, 20.0))),
    "sample_complexity.n_antennas": ("n_antennas", "integer", lambda v: sample_complexity(v, 7, 0.5, 1.0)),
    "sample_complexity.varrho": ("varrho", "integer", lambda v: sample_complexity(256, v, 0.5, 1.0)),
    "sample_complexity.xi": ("xi", "real", lambda v: sample_complexity(256, 7, v, 1.0)),
    "sample_complexity.kappa": ("kappa", "finite", lambda v: sample_complexity(256, 7, 0.5, v)),
    "empirical_rip_probe.block_size": ("block_size", "integer", lambda v: empirical_rip_probe(_EYE, v, 1, 10, 3)),
    "empirical_rip_probe.k": ("k", "integer", lambda v: empirical_rip_probe(_EYE, 4, v, 10, 3)),
    "empirical_rip_probe.trials": ("trials", "integer", lambda v: empirical_rip_probe(_EYE, 4, 1, v, 3)),
    "empirical_rip_probe.target_xi": (
        "target_xi",
        "real",
        lambda v: empirical_rip_probe(_EYE, 4, 1, 10, 3, target_xi=v),
    ),
    "empirical_rip_probe.psi": ("psi", "matrix", lambda v: empirical_rip_probe(v, 1, 1, 10, 3)),
    "BlockOMP.X": ("X", "matrix", lambda v: BlockOMP().fit(v, np.ones(v.shape[0]))),
    "sensing_operator.pilots": ("pilots", "matrix", lambda v: build_polar_baseline(CFG, 2).sensing_operator(v)),
    "mutual_coherence.matrix": ("matrix", "matrix", mutual_coherence),
}


@pytest.mark.parametrize(
    "entry, value",
    [(entry, v) for entry, (_, kind, _) in LIBRARY.items() for v in BAD[kind]],
    ids=lambda v: f"shape{v.shape}" if isinstance(v, np.ndarray) else None,
)
def test_library_rejects_a_bad_argument_by_name(entry, value):
    name, _, call = LIBRARY[entry]
    with pytest.raises(ValueError) as excinfo:
        call(value)
    assert str(excinfo.value).startswith(f"{name} "), str(excinfo.value)


@pytest.mark.parametrize(
    "entry, value",
    [
        ("gen_pilots.n_measurements", np.int64(4)),  # integer >= 1
        ("ArrayConfig.n_antennas", np.int32(4)),  # integer >= 2
        ("BlockOMP.k_max", np.int64(1)),  # integer >= 0
        ("BlockOMP.block_size", np.int16(4)),  # block partition
        ("empirical_rip_probe.block_size", np.int64(4)),
    ],
)
def test_library_admits_numpy_integers(entry, value):
    LIBRARY[entry][2](value)


def _small_config(**overrides):
    small = dict(snr_db_list=(5.0,), trials=2, n_antennas=64, n_measurements=32)
    return replace(preset_config("nmse_vs_snr", "desk", seed=11), **{**small, **overrides})


# the shared rule each numeric config field reads
SHARED = {
    "seed": integer(),
    "trials": integer(1),
    "carrier_freq": POSITIVE,
    "n_antennas": integer(2),
    "spacing": POSITIVE,
    "n_paths": integer(1),
    "power_split_db": DECIBELS,
    "distance_min": POSITIVE,
    "distance_max": POSITIVE,
    "n_list": integer(2),
    "t_list": integer(1),
    "snr_db_list": DECIBELS_OR_INF,
    "mu0_bins": POSITIVE,
    "block_size_list": integer(1),
    "n_measurements": integer(1),
    "snr_db": DECIBELS_OR_INF,
    "mu": POSITIVE_OR_INF,
    "block_size": integer(1),
    "k_max": integer(0),
    "stop_alpha": FRACTION_OR_NONE,
    "polar_rings": integer(1),
    "polar_r_min": POSITIVE,
    "polar_r_max": POSITIVE,
    "delta": FRACTION,
    "rip_block_size": integer(1),
    "rip_k": integer(1),
    "rip_target_xi": OPEN_FRACTION,
}
# fields whose rule only the config has
CONFIG_ONLY = {"methods", "pilot_kind", "mu0_bin_tolerance"}


def test_every_numeric_config_field_reads_its_shared_rule():
    settable = {f.name: f for f in fields(ExperimentConfig) if f.metadata}
    assert set(settable) == set(SHARED) | CONFIG_ONLY
    for name, rule in SHARED.items():
        metadata = settable[name].metadata
        assert metadata["rule"] is rule, name


def _config_cases():
    cases = []
    for name, rule in SHARED.items():
        bad = [2.5, True] if rule.requirement.startswith("must be an integer") else [True, math.nan]
        if rule in (POSITIVE, DECIBELS):
            bad.append(math.inf)
        is_list = isinstance(ExperimentConfig.__dataclass_fields__[name].default, tuple)
        cases += [(name, (v,) if is_list else v) for v in bad]
    return cases


@pytest.mark.parametrize("name, value", _config_cases())
def test_config_rejects_a_bad_value_by_key(name, value):
    key = ExperimentConfig.__dataclass_fields__[name].metadata["key"]
    with pytest.raises(ConfigError, match=f"^{key}: ") as excinfo:
        _small_config(**{name: value}).validate()
    assert excinfo.value.field_path == key


def test_config_admits_numpy_integers():
    _small_config(
        seed=np.int64(3), trials=np.int64(2), n_antennas=np.int64(64), block_size=np.int32(4), k_max=np.int64(3)
    ).validate()


# cross-argument rules: each is decided once in the library, and the config
# reports the same requirement under its key
CFG256 = ArrayConfig(carrier_freq=100e9, n_antennas=256)
FRESNEL, RAYLEIGH = field_boundaries(CFG256)


def _ls(t):
    return ls_estimate(make_problem(CFG256, sample_channel(CFG256, 2, 1), t, 5.0, seed=1))


# rule -> (argument name, library call, config kind, config overrides, config key)
AGREEMENT = {
    "geometry-tiny-carrier": (
        "carrier_freq", lambda: ArrayConfig(1e-300, 256), "nmse_vs_snr", dict(carrier_freq=1e-300),
        "array.carrier_freq_hz",
    ),
    "geometry-huge-carrier": (
        "carrier_freq", lambda: ArrayConfig(1e300, 256), "sparsity_level", dict(carrier_freq=1e300),
        "array.carrier_freq_hz",
    ),
    "geometry-huge-spacing": (
        "spacing", lambda: ArrayConfig(100e9, 256, 1e150), "coherence_error", dict(spacing=1e150, n_list=(256,)),
        "array.spacing_m",
    ),
    "geometry-tiny-spacing": (
        "spacing", lambda: ArrayConfig(100e9, 256, 1e-300), "coherence_error", dict(spacing=1e-300, n_list=(256,)),
        "array.spacing_m",
    ),
    "half-wavelength-dmu": (
        "spacing", lambda: build_dmu(ArrayConfig(100e9, 256, 0.01), 20.0), "mutual_coherence", dict(spacing=0.01),
        "array.spacing_m",
    ),
    "half-wavelength-dft": (
        "spacing", lambda: build_dft(ArrayConfig(100e9, 256, 0.01)), "nmse_vs_snr",
        dict(spacing=0.01, methods=("dft_omp",)), "array.spacing_m",
    ),
    "source-default-range": (
        "distance_range", lambda: sample_channel(CFG256, 3, 0, distance_range=(500.0, source_range(CFG256)[1])),
        "nmse_vs_snr", dict(distance_min=500.0), "channel.distance_min_m",
    ),
    "source-before-fresnel": (
        "distance_range[0]", lambda: sample_channel(CFG256, 3, 0, distance_range=(0.1, 1.2 * RAYLEIGH)),
        "nmse_vs_snr", dict(distance_min=0.1), "channel.distance_min_m",
    ),
    "source-inverted": (
        "distance_range", lambda: sample_channel(CFG256, 3, 0, distance_range=(FRESNEL, 1.0)),
        "nmse_vs_snr", dict(distance_max=1.0), "channel.distance_max_m",
    ),
    "source-not-squarable": (
        "distance_range[1]", lambda: sample_channel(CFG256, 3, 0, distance_range=(FRESNEL, 1e155)),
        "nmse_vs_snr", dict(distance_max=1e155), "channel.distance_max_m",
    ),
    "polar-default-range": (
        "distance_range", lambda: build_polar_baseline(CFG256, 6, (1000.0, polar_range(CFG256)[1])),
        "mutual_coherence", dict(polar_r_min=1000.0), "dictionary.polar_r_min_m",
    ),
    "chirp-tiny-mu": ("mu", lambda: build_dmu(CFG256, 1e-306), "nmse_vs_snr", dict(mu=1e-306), "dictionary.mu"),
    "chirp-subnormal-mu": (
        "mu", lambda: b_vector(CFG256, 1e-310), "mutual_coherence", dict(mu=1e-310), "dictionary.mu",
    ),
    "polar-tiny-ring": (
        "distance_range[0]", lambda: build_polar_baseline(CFG256, 6, (1e-310, 97.0)),
        "mutual_coherence", dict(polar_r_min=1e-310), "dictionary.polar_r_min_m",
    ),
    "polar-tiny-ring-nmse": (
        "distance_range[0]", lambda: build_polar_baseline(CFG256, 6, (1e-306, RAYLEIGH)),
        "nmse_vs_snr", dict(polar_r_min=1e-306), "dictionary.polar_r_min_m",
    ),
    "polar-inverted": (
        "distance_range", lambda: build_polar_baseline(CFG256, 6, (FRESNEL, 1.0)),
        "mutual_coherence", dict(polar_r_max=1.0), "dictionary.polar_r_max_m",
    ),
    "polar-not-positive": (
        "distance_range[0]", lambda: build_polar_baseline(CFG256, 6, (-1.0, RAYLEIGH)),
        "mutual_coherence", dict(polar_r_min=-1.0), "dictionary.polar_r_min_m",
    ),
    "polar-infinite": (
        "distance_range[1]", lambda: build_polar_baseline(CFG256, 6, (FRESNEL, math.inf)),
        "mutual_coherence", dict(polar_r_max=math.inf), "dictionary.polar_r_max_m",
    ),
    "ls-measurements": (
        "n_measurements", lambda: _ls(80), "nmse_vs_snr", dict(methods=("ls",), n_measurements=80),
        "experiment.n_measurements",
    ),
    "ls-t-list": ("n_measurements", lambda: _ls(40), "nmse_vs_T", dict(methods=("ls",)), "experiment.t_list"),
    "block-partition-fit": (
        "block size", lambda: BlockOMP(3, noise_var=1e-2).fit(np.eye(256, dtype=complex), np.ones(256)),
        "nmse_vs_snr", dict(block_size=3), "recovery.block_size",
    ),
    "block-partition-rip": (
        "block size", lambda: empirical_rip_probe(np.eye(64, dtype=complex), 3, 1, 10, 3), "rip_probe",
        dict(rip_block_size=3), "rip.block_size",
    ),
    "rip-k": (
        "k", lambda: empirical_rip_probe(np.eye(64, dtype=complex), 8, 100, 10, 3), "rip_probe", dict(rip_k=100),
        "rip.k",
    ),
    "delta-floor-thresholds": (
        "delta", lambda: thresholds(256, 0.0039), "sparsity_level", dict(n_list=(256, 1024), delta=0.0039),
        "experiment.delta",
    ),
    "delta-floor-varrho": (
        "delta", lambda: varrho_bound(CFG256, 0.0039), "sparsity_level", dict(n_list=(256, 1024), delta=0.0039),
        "experiment.delta",
    ),
}


@pytest.mark.parametrize("rule", AGREEMENT)
def test_library_and_config_state_a_rule_alike(rule):
    name, call, kind, overrides, key = AGREEMENT[rule]
    with pytest.raises(ValueError) as library:
        call()
    with pytest.raises(ConfigError) as config:
        replace(preset_config(kind, "desk", seed=1), **overrides).validate()
    assert str(library.value).startswith(f"{name} "), str(library.value)
    assert config.value.field_path == key
    assert str(library.value)[len(name) + 1 :] == str(config.value)[len(key) + 2 :]


def _sources_up_to(hi, rng):
    return sample_channel(CFG256, 3, rng, distance_range=(FRESNEL, hi))


# inputs the library once accepted, or failed on inside NumPy or the math module
ONCE_ACCEPTED = {
    "tiny-carrier": ("carrier_freq", lambda rng: ArrayConfig(1e-300, 256)),
    "huge-carrier": ("carrier_freq", lambda rng: ArrayConfig(1e300, 256)),
    "infinite-source": ("distance_range[1]", lambda rng: _sources_up_to(math.inf, rng)),
    "1e200-source": ("distance_range[1]", lambda rng: _sources_up_to(1e200, rng)),
    "1e155-source": ("distance_range[1]", lambda rng: _sources_up_to(1e155, rng)),
    "none-source-start": ("distance_range[0]", lambda rng: sample_channel(CFG256, 3, rng, distance_range=(None, 50.0))),
    "text-source-end": ("distance_range", lambda rng: _sources_up_to("50", rng)),
    "infinite-polar-ring": ("distance_range[1]", lambda rng: build_polar_baseline(CFG256, 6, (50.0, math.inf))),
    "1e-306-chirp": ("mu", lambda rng: b_vector(CFG256, 1e-306)),
    "1e-310-chirp": ("mu", lambda rng: build_dmu(CFG256, 1e-310)),
    "1e-310-chirp-in-an-array": ("mu", lambda rng: b_vector(CFG256, [20.0, 1e-310])),
    "1e-310-polar-ring": ("distance_range[0]", lambda rng: build_polar_baseline(CFG256, 6, (1e-310, 97.0))),
    "1e200-steering": ("r", lambda rng: near_steering(CFG256, 0.0, 1e200)),
    "1e200-path": ("r", lambda rng: synthesize_channel(CFG256, ChannelSpec((1.0,), (0.0,), (1e200,)))),
    # r^2 underflows to zero (1e-300, 1e-170) or (D / r)^2 overflows (1e-160)
    **{
        f"{r!r}-{what}": ("r", call)
        for r in (1e-300, 1e-170, 1e-160)
        for what, call in (
            ("steering", lambda rng, r=r: near_steering(ArrayConfig(100e9, 16), 0.1, r)),
            ("path", lambda rng, r=r: synthesize_channel(ArrayConfig(100e9, 16), ChannelSpec((1.0,), (0.1,), (r,)))),
        )
    },
}


@pytest.mark.parametrize("case", ONCE_ACCEPTED)
def test_a_once_accepted_input_fails_by_name_before_any_draw(case):
    name, call = ONCE_ACCEPTED[case]
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(name)} ") as excinfo:
            call(rng)
    assert not isinstance(excinfo.value, ArithmeticError)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("n_antennas", [2, 256, 4096])
def test_the_nearest_admitted_distance_builds_finite_dictionaries(n_antennas):
    cfg = ArrayConfig(100e9, n_antennas)
    rule = finite_phase(cfg)
    # bisect on the log scale for the edge of the rule
    far_off, nearest = 5e-324, 1.0
    for _ in range(100):
        mid = math.sqrt(far_off) * math.sqrt(nearest)
        far_off, nearest = (far_off, mid) if rule.predicate(mid) else (mid, nearest)
    assert nearest <= far_off * (1 + 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(b_vector(cfg, nearest)))
        assert np.all(np.isfinite(build_dmu(cfg, nearest).matrix))
        assert np.all(np.isfinite(build_polar_baseline(cfg, 3, (nearest, 1.0)).matrix))


def test_the_largest_squarable_source_distance_synthesizes():
    spec = sample_channel(CFG256, 3, 1, distance_range=(FRESNEL, 1.3e154))
    assert np.all(np.isfinite(synthesize_channel(CFG256, spec)))


@pytest.mark.parametrize("n_antennas", [2, 16, 4096])
def test_the_nearest_admitted_source_distance_steers_finitely(n_antennas):
    cfg = ArrayConfig(100e9, n_antennas)
    rule = finite_delay(cfg)
    far_off, nearest = 5e-324, 1.0
    for _ in range(100):
        mid = math.sqrt(far_off) * math.sqrt(nearest)
        far_off, nearest = (far_off, mid) if rule.predicate(mid) else (mid, nearest)
    assert nearest <= far_off * (1 + 1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in (-1.5, 0.0, 1.5):
            assert np.all(np.isfinite(near_steering(cfg, theta, nearest)))
