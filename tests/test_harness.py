import ast
import importlib.util
import math
import re
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nfcs.geometry import effective_distance, field_boundaries
from nfcs.harness import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    ROW_FIELDS,
    config_hash,
    emit,
    parse_rows,
    preset_config,
    _distance_range,
    _mu0_hit_probability,
    _sample_trial_channel,
    run,
)
from nfcs.recovery import gen_pilots, make_problem


def tiny_config(**overrides):
    base = preset_config("nmse_vs_snr", "desk", seed=11)
    defaults = dict(snr_db_list=(5.0,), trials=4, n_antennas=64, n_measurements=32)
    defaults.update(overrides)
    return replace(base, **defaults)


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="experiment.kind"):
            ExperimentConfig(kind="bogus", seed=1, n_list=(256,)).validate()

    def test_empty_grid(self):
        with pytest.raises(ConfigError, match="experiment.snr_db_list"):
            ExperimentConfig(kind="nmse_vs_snr", seed=1).validate()

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="experiment.methods"):
            tiny_config(methods=("gradient_descent",)).validate()

    def test_repeated_method(self):
        with pytest.raises(ConfigError, match="experiment.methods: names a method more than once"):
            tiny_config(methods=("dmu_block_omp", "polar_omp", "dmu_block_omp")).validate()

    def test_ls_needs_enough_measurements(self):
        with pytest.raises(ConfigError, match="ls"):
            tiny_config(methods=("ls",), n_measurements=32).validate()
        tiny_config(methods=("ls",), n_measurements=64).validate()

    def test_block_size_must_divide(self):
        with pytest.raises(ConfigError, match="recovery.block_size"):
            tiny_config(block_size=5).validate()

    def test_sparsity_delta_floor(self):
        with pytest.raises(ConfigError, match="experiment.delta"):
            ExperimentConfig(
                kind="sparsity_level", seed=1, n_list=(64,), delta=0.01
            ).validate()

    def test_trials_positive(self):
        with pytest.raises(ConfigError, match="experiment.trials"):
            tiny_config(trials=0).validate()

    def test_wrong_type_is_a_config_error(self):
        with pytest.raises(ConfigError, match="dictionary.mu"):
            tiny_config(mu=None).validate()
        with pytest.raises(ConfigError, match="experiment.seed"):
            tiny_config(seed=None).validate()

    def test_unreachable_mu0_bin_fails_validation(self):
        # no effective distance lies below the minimum distance (the Fresnel
        # distance, 2.68 m at N=256), so the bin fails before any sampling
        with pytest.raises(ConfigError, match="experiment.mu0_bins: bin 0.5 is unreachable"):
            ExperimentConfig(kind="nmse_vs_mu0", seed=1, mu0_bins=(6.0, 0.5)).validate()

    def test_mu0_sampling_budget_is_a_config_error(self):
        # the bin is reachable in principle (bin * tolerance just above the
        # Fresnel distance) but no draw within the budget hits it
        config = ExperimentConfig(kind="nmse_vs_mu0", seed=1, mu0_bins=(6.0,), trials=1)
        cfg = config.array_config()
        fresnel, rayleigh = field_boundaries(cfg)
        bin_center = fresnel * (1 + 1e-13) / config.mu0_bin_tolerance
        with pytest.raises(ConfigError, match="experiment.mu0_bins"):
            _sample_trial_channel(config, cfg, (fresnel, rayleigh), bin_center, (1,), 0)

    def test_rarely_hit_mu0_bin_fails_validation_at_once(self):
        # the bin of test_mu0_sampling_budget_is_a_config_error: reachable in
        # principle, hit by a draw with probability about 5e-22
        config = ExperimentConfig(kind="nmse_vs_mu0", seed=1, mu0_bins=(6.0,), trials=1)
        fresnel, _ = field_boundaries(config.array_config())
        bin_center = fresnel * (1 + 1e-13) / config.mu0_bin_tolerance
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="experiment.mu0_bins: bin .* is unreachable"):
            replace(config, mu0_bins=(bin_center,)).validate()
        assert time.perf_counter() - start < 0.1

    def test_binned_draw_moves_only_the_los_path(self):
        # common random numbers: every bin keeps the unbinned draw's gains
        # and its paths 1.., and redraws only the LOS angle and distance
        config = preset_config("nmse_vs_mu0", "desk", seed=5)
        cfg = config.array_config()
        dist_range = _distance_range(config, cfg)
        for trial in range(4):
            base = _sample_trial_channel(config, cfg, dist_range, None, (5, "key"), trial)
            assert len(base.gains) == config.n_paths > 1
            for bin_center in config.mu0_bins:
                binned = _sample_trial_channel(config, cfg, dist_range, bin_center, (5, "key"), trial)
                assert binned.gains == base.gains
                assert binned.thetas[1:] == base.thetas[1:]
                assert binned.distances[1:] == base.distances[1:]
                assert binned.thetas[0] != base.thetas[0]
                assert binned.distances[0] != base.distances[0]
                mu0 = effective_distance(math.sin(binned.thetas[0]), binned.distances[0])
                assert abs(math.log(mu0 / bin_center)) <= math.log(config.mu0_bin_tolerance) + 1e-12

    @pytest.mark.parametrize(
        "bin_center, tolerance, lo, hi",
        [(6.0, 1.25, 2.676, 116.97), (80.0, 1.25, 2.676, 116.97), (3.0, 1.25, 2.676, 116.97),
         (50.0, 2.0, 10.0, 20.0), (12.0, 1.1, 10.0, 10.0)],
    )
    def test_mu0_hit_probability_matches_the_sampler_draws(self, bin_center, tolerance, lo, hi):
        rng = np.random.default_rng(4)
        sin0 = rng.uniform(-1.0, 1.0, 400_000)
        r0 = rng.uniform(lo, hi, 400_000)
        hits = np.abs(np.log(r0 / (1.0 - sin0**2) / bin_center)) <= math.log(tolerance)
        p = _mu0_hit_probability(bin_center, tolerance, lo, hi)
        assert p == pytest.approx(hits.mean(), abs=4 * math.sqrt(p * (1 - p) / hits.size))

    def test_presets_are_valid(self):
        from nfcs.harness import EXPERIMENT_KINDS

        for kind in EXPERIMENT_KINDS:
            for preset in ("desk", "paper"):
                preset_config(kind, preset, seed=3).validate()


class TestDeterminism:
    def test_identical_rows_across_runs(self):
        config = tiny_config()
        rows_a = run(config)
        rows_b = run(config)
        assert rows_a == rows_b

    def test_seed_changes_results(self):
        rows_a = run(tiny_config())
        rows_b = run(replace(tiny_config(), seed=12))
        values_a = [r.value for r in rows_a if r.metric == "nmse_mean"]
        values_b = [r.value for r in rows_b if r.metric == "nmse_mean"]
        assert values_a != values_b

    def test_byte_identical_files(self, tmp_path):
        config = tiny_config()
        rows = run(config)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(rows, "csv", p1)
        emit(run(config), "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_config_hash_stability(self):
        assert config_hash(tiny_config()) == config_hash(tiny_config())
        assert config_hash(tiny_config()) != config_hash(tiny_config(trials=5))

    def test_rows_embed_seed_and_hash(self):
        config = tiny_config()
        for row in run(config):
            assert row.seed == config.seed
            assert row.config_hash == config_hash(config)
            assert row.experiment == "nmse_vs_snr:desk"


class TestEmit:
    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError):
            emit([], "csv", path)
        assert not path.exists()

    def test_csv_header(self, tmp_path):
        rows = run(tiny_config())
        text = emit(rows, "csv", "-")
        header = text.splitlines()[0]
        assert header == ",".join(ROW_FIELDS)
        assert header == "experiment,method,grid,metric,value,trials,seed,config_hash"

    def test_csv_round_trip(self):
        rows = run(tiny_config())
        text = emit(rows, "csv", "-")
        assert parse_rows(text, "csv") == rows

    def test_json_round_trip(self):
        rows = run(tiny_config())
        text = emit(rows, "json", "-")
        assert parse_rows(text, "json") == rows

    def test_rejects_unknown_format(self):
        rows = [ResultRow("e", "m", "g", "x", 1.0, 1, 1, "h")]
        with pytest.raises(ValueError):
            emit(rows, "yaml", "-")


class TestExperiments:
    def test_noiseless_identifiable_nmse(self):
        # full-rank noiseless sanity point: T = N and infinite SNR
        config = tiny_config(
            snr_db_list=(math.inf,), trials=1, n_antennas=64, n_measurements=64
        )
        rows = run(config)
        mean = next(r for r in rows if r.metric == "nmse_mean")
        assert mean.value < 1e-10

    def test_row_order_grid_major(self):
        config = tiny_config(
            snr_db_list=(0.0, 5.0), methods=("dmu_block_omp", "polar_omp"), trials=2
        )
        rows = run(config)
        labels = [(r.grid, r.method, r.metric) for r in rows]
        expected = [
            (f"snr_db={snr!r}", method, metric)
            for snr in (0.0, 5.0)
            for method in ("dmu_block_omp", "polar_omp")
            for metric in ("nmse_mean", "nmse_stderr")
        ]
        assert labels == expected

    def test_methods_share_draws_as_if_run_alone(self):
        # each trial is drawn once and solved by every method; a method's
        # rows must equal those of a config that runs it alone
        methods = ("dmu_block_omp", "polar_omp")
        config = tiny_config(snr_db_list=(0.0, 10.0), methods=methods, trials=3)
        joint = [(r.grid, r.method, r.metric, r.value) for r in run(config)]
        alone = {
            m: [(r.grid, r.method, r.metric, r.value) for r in run(replace(config, methods=(m,)))]
            for m in methods
        }
        expected = [
            row for snr in range(2) for m in methods for row in alone[m][2 * snr : 2 * snr + 2]
        ]
        assert joint == expected

    def test_block_size_sweep_draws_once_per_snr_and_trial(self, monkeypatch):
        drawn = []

        def counting(*args, **kwargs):
            drawn.append(kwargs["snr_db"])
            return make_problem(*args, **kwargs)

        monkeypatch.setattr("nfcs.harness.make_problem", counting)
        config = tiny_config(
            kind="block_size_sweep", block_size_list=(2, 4, 8), snr_db_list=(0.0, 10.0), trials=3
        )
        rows = run(config)
        assert drawn == [0.0, 0.0, 0.0, 10.0, 10.0, 10.0]
        assert list(dict.fromkeys(r.grid for r in rows)) == [
            f"s={s},snr_db={snr!r}" for s in (2, 4, 8) for snr in (0.0, 10.0)
        ]

    def test_block_sizes_share_draws_as_if_run_alone(self):
        # each trial is drawn once and solved at every block size; a block
        # size's rows must equal those of a sweep over it alone
        config = tiny_config(
            kind="block_size_sweep",
            block_size_list=(2, 8),
            snr_db_list=(0.0, 10.0),
            methods=("dmu_block_omp", "polar_omp"),
            trials=3,
        )
        joint = [(r.grid, r.method, r.metric, r.value) for r in run(config)]
        alone = [
            (r.grid, r.method, r.metric, r.value)
            for s in config.block_size_list
            for r in run(replace(config, block_size_list=(s,)))
        ]
        assert joint == alone

    def test_polar_baseline_never_forms_its_sensing_matrix(self, monkeypatch):
        def formed(*args):
            raise AssertionError("the polar sensing matrix was formed")

        monkeypatch.setattr("nfcs.dictionaries.Dictionary.sense", formed)
        rows = run(tiny_config(methods=("polar_omp",), trials=2))
        assert all(math.isfinite(r.value) for r in rows)

    def test_ls_builds_no_dictionary(self, monkeypatch):
        def built(*args):
            raise AssertionError("a dictionary was built for ls")

        for name in ("build_dmu", "build_dft", "build_polar_baseline"):
            monkeypatch.setattr(f"nfcs.harness.{name}", built)
        rows = run(tiny_config(methods=("ls",), n_measurements=64, trials=2))
        assert [r.method for r in rows] == ["ls", "ls"]
        assert all(math.isfinite(r.value) for r in rows)

    def test_sparsity_rows(self):
        config = replace(
            preset_config("sparsity_level", "desk", seed=5), n_list=(256,), trials=40
        )
        rows = run(config)
        by_key = {(r.method, r.metric): r.value for r in rows}
        assert 0.0 < by_key[("los", "mean_fraction")] < 1.0
        assert by_key[("multipath", "mean_fraction")] >= by_key[("los", "mean_fraction")] * 0.8
        assert by_key[("los", "within_bound_rate")] >= 0.95
        assert by_key[("theory", "mean_bound_fraction")] > by_key[("los", "mean_fraction")]

    def test_mutual_coherence_rows(self):
        config = replace(
            preset_config("mutual_coherence", "desk", seed=6),
            t_list=(48,),
            trials=5,
            n_antennas=64,
        )
        rows = run(config)
        medians = {r.method: r.value for r in rows if r.metric == "median_mutual_coherence"}
        assert medians["dmu"] < medians["polar"]

    def test_mutual_coherence_draws_each_pilot_block_once(self, monkeypatch):
        drawn = []

        def counting(n_measurements, *args):
            drawn.append(n_measurements)
            return gen_pilots(n_measurements, *args)

        monkeypatch.setattr("nfcs.harness.gen_pilots", counting)
        config = replace(
            preset_config("mutual_coherence", "desk", seed=6),
            t_list=(32, 48),
            trials=3,
            n_antennas=64,
        )
        rows = run(config)
        assert drawn == [32, 32, 32, 48, 48, 48]
        assert [(r.method, r.grid, r.metric) for r in rows] == [
            (method, grid, metric)
            for grid in ("T=32", "T=48")
            for method in ("dmu", "polar")
            for metric in ("median_mutual_coherence", "mean_mutual_coherence")
        ]

    def test_mu0_bins_hit_target(self):
        config = tiny_config()
        config = replace(
            preset_config("nmse_vs_mu0", "desk", seed=7),
            mu0_bins=(20.0,),
            trials=3,
            n_antennas=64,
            n_measurements=32,
        )
        rows = run(config)
        assert any(r.grid == "mu0=20.0" for r in rows)

    def test_rip_probe_rows(self):
        config = replace(
            preset_config("rip_probe", "desk", seed=8), t_list=(32,), trials=60
        )
        rows = run(config)
        metrics = {r.metric for r in rows}
        assert metrics == {"xi_hat", "violation_rate"}


class TestCoherenceErrorExperiment:
    def test_error_magnitude_and_trend(self):
        config = replace(
            preset_config("coherence_error", "desk", seed=9),
            n_list=(256, 1024),
            trials=200,
        )
        rows = run(config)
        means = {r.grid: r.value for r in rows if r.metric == "mean_abs_error"}
        assert means["N=256"] < 1e-2
        assert means["N=1024"] < means["N=256"]


def test_every_benchmark_trace_target_resolves():
    # the benchmark traces the library by module and qualified name; a target
    # that no longer resolves silently reads zero there
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{name}: {module}.{qualname}"
        for name, (module, qualname) in tracing.TARGETS.items()
        if tracing._resolve(module, qualname) is None
    ]
    assert not missing, f"unresolved trace targets: {missing}"


def _uses_outside_definition(tree, name):
    """Whether ``tree`` reads ``name`` anywhere but inside its own def or class."""

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return False
        if isinstance(node, ast.Name) and node.id == name:
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        return any(visit(child) for child in ast.iter_child_nodes(node))

    return visit(tree)


def test_every_export_is_used_or_documented():
    # library surface that only the tests read is removed unless the README
    # documents it: each name the package exports is read by the package
    # itself (outside its own definition), by the benchmark, or named in README
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "nfcs"
    init = ast.parse((package / "__init__.py").read_text())
    exported = [a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names]
    trees = [ast.parse(p.read_text()) for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    texts = [p.read_text() for p in sorted((root / "perfbench").glob("*.py"))]
    texts.append((root / "README.md").read_text())
    unused = [
        name
        for name in exported
        if not any(_uses_outside_definition(tree, name) for tree in trees)
        and not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)
    ]
    assert not unused, f"exported but used nowhere outside the tests: {unused}"
