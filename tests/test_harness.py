import ast
import concurrent.futures
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nfcs
from nfcs import dictionaries, harness
from nfcs.geometry import effective_distance, field_boundaries, source_range
from nfcs.harness import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    ROW_FIELDS,
    config_hash,
    emit,
    parse_rows,
    preset_config,
    _mu0_hit_probability,
    _sample_trial_channel,
    run,
)
from nfcs.dictionaries import Dictionary
from nfcs.cli import parse_config_file
from nfcs.recovery import BlockOMP, gen_pilots, make_problem
from nfcs.seeding import plain


def tiny_config(**overrides):
    base = preset_config("nmse_vs_snr", "desk", seed=11)
    defaults = dict(snr_db_list=(5.0,), trials=4, n_antennas=64, n_measurements=32)
    defaults.update(overrides)
    return replace(base, **defaults)


def _fail_whole_polar_products(monkeypatch):
    """Make every polar dictionary the harness builds fail a matrix product
    that has all M of its columns, such as a formed T x M sensing matrix P A,
    or that sums over all M of them, such as a synthesis from every column.
    The row Gram reads every column by design, so its range is built first."""
    build = harness.build_polar_baseline

    class Atoms(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            plain = [x.view(np.ndarray) if isinstance(x, Atoms) else x for x in inputs]
            result = getattr(ufunc, method)(*plain, **kwargs)
            if ufunc is np.matmul and np.ndim(result) == 2 and result.shape[1] == Atoms.n_atoms:
                raise AssertionError(f"a {result.shape[0]} x {result.shape[1]} polar product was formed")
            if ufunc is np.matmul and np.shape(inputs[0])[-1:] == (Atoms.n_atoms,):
                raise AssertionError(f"a product summed over all {Atoms.n_atoms} polar columns")
            return result

    def polar(*args):
        dictionary = build(*args)
        Atoms.n_atoms = dictionary.n_atoms
        dictionary.row_gram_range
        dictionary._matrix = dictionary.matrix.view(Atoms)
        return dictionary

    monkeypatch.setattr(harness, "build_polar_baseline", polar)


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
        with pytest.raises(ConfigError, match=r"experiment.methods: lists a value more than once: \['dmu_block_omp'\]"):
            tiny_config(methods=("dmu_block_omp", "polar_omp", "dmu_block_omp")).validate()

    def test_ls_needs_enough_measurements(self):
        with pytest.raises(ConfigError, match="ls"):
            tiny_config(methods=("ls",), n_measurements=32).validate()
        tiny_config(methods=("ls",), n_measurements=64).validate()

    def test_block_size_must_divide(self):
        with pytest.raises(ConfigError, match="recovery.block_size"):
            tiny_config(block_size=5).validate()

    @pytest.mark.parametrize("method", ["polar_omp", "dft_omp"])
    def test_a_fixed_block_method_ignores_the_block_size(self, method):
        # the run's block size, 4, does not divide 250 columns, but no method reads it
        config = tiny_config(methods=(method,), n_antennas=250, trials=2)
        config.validate()
        rows = run(config)
        assert {row.method for row in rows} == {method}
        assert all(math.isfinite(row.value) for row in rows)
        with pytest.raises(ConfigError, match=r"^recovery.block_size: .* divide the 250 columns, got 4$"):
            replace(config, methods=(method, "dmu_block_omp")).validate()

    def test_a_block_wider_than_the_fewest_measurements_is_rejected(self):
        # such a block has rank <= T < s, so every BlockOMP estimate would be zero
        with pytest.raises(ConfigError, match=r"^recovery.block_size: must be <= 32, .* got 64$"):
            tiny_config(block_size=64).validate()
        tiny_config(block_size=32).validate()
        # only a blocked method reads the block size
        tiny_config(block_size=64, methods=("polar_omp",)).validate()
        t_sweep = replace(preset_config("nmse_vs_T", "desk", seed=11), t_list=(40, 8))
        with pytest.raises(ConfigError, match=r"^recovery.block_size: must be <= 8, .* got 16$"):
            replace(t_sweep, block_size=16).validate()
        sweep = replace(preset_config("block_size_sweep", "desk", seed=11), n_measurements=16)
        with pytest.raises(ConfigError, match=r"^experiment.block_size_list: must be <= 16, .* got 32$"):
            sweep.validate()

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

    @pytest.mark.parametrize(
        "name", ["n_list", "t_list", "snr_db_list", "mu0_bins", "block_size_list", "methods"]
    )
    def test_a_scalar_in_a_list_field_is_a_config_error(self, name):
        key = ExperimentConfig.__dataclass_fields__[name].metadata["key"]
        value = "dmu_block_omp" if name == "methods" else 5.0
        with pytest.raises(ConfigError, match=f"^{key}: must be a list, got"):
            tiny_config(**{name: value}).validate()

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
        dist_range = source_range(cfg, config.distance_min, config.distance_max)
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

    def test_config_hash_reads_each_value_as_a_config_file_gives_it(self, tmp_path):
        # run() draws, labels and values these spellings alike; so is their hash
        base = dict(kind="nmse_vs_snr", seed=1, trials=2, n_antennas=64)
        spellings = [
            dict(snr_db_list=(5.0,), methods=("dmu_block_omp",)),
            dict(snr_db_list=[5.0], methods=["dmu_block_omp"]),
            dict(snr_db_list=(5,)),
        ]
        cfg = tmp_path / "same.cfg"
        cfg.write_text(
            "experiment.seed = 1\nexperiment.trials = 2\narray.n_antennas = 64\n"
            "experiment.snr_db_list = 5\nexperiment.methods = dmu_block_omp\n"
        )
        read = ExperimentConfig(kind="nmse_vs_snr", **parse_config_file(cfg))
        hashes = [config_hash(ExperimentConfig(**base, **s)) for s in spellings]
        assert hashes == [config_hash(read)] * 3

    def test_plain_keeps_python_values_and_reads_numpy_scalars(self):
        # the encoding of the draws and of the config hash: a Python value keeps its repr
        for v in (3, -7, 0.1, 1e300, math.inf, "s", True, None, (1, 2.5), (20.0,), [1, "a"], ()):
            assert repr(plain(v)) == repr(v)
        assert repr(plain((np.float64(0.1), np.int64(3), np.float32(0.5)))) == repr((0.1, 3, 0.5))
        assert type(plain(np.int32(3))) is int and type(plain(np.float64(2.0))) is float

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_numpy_integer_seed_round_trips(self, fmt):
        rows = run(tiny_config(seed=np.int64(3), trials=np.int64(2)))
        assert rows[0].seed == 3
        assert parse_rows(emit(rows, fmt, "-"), fmt) == rows

    @pytest.mark.parametrize(
        "kind, overrides",
        [
            ("nmse_vs_snr", dict(seed=np.int64(3))),
            ("nmse_vs_mu0", dict(mu0_bins=(np.float64(20.0),), mu0_bin_tolerance=np.float64(1.1))),
        ],
        ids=["int64-seed", "float64-bins"],
    )
    def test_numpy_scalars_emit_the_rows_of_python_numbers(self, kind, overrides):
        # the draws and the config hash read a NumPy scalar as the Python number of equal value
        config = replace(preset_config(kind, "desk", seed=3), trials=2, n_antennas=64, n_measurements=32,
                         snr_db_list=(5.0,), mu0_bins=(20.0,))
        plain = run(config)
        typed = run(replace(config, **overrides))
        for a, b in zip(typed, plain, strict=True):
            assert {f: getattr(a, f) for f in ROW_FIELDS} == {f: getattr(b, f) for f in ROW_FIELDS}

    def test_a_bool_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="experiment.seed: must be an integer, got True"):
            run(tiny_config(seed=True))

    def test_rejects_unknown_format(self):
        rows = [ResultRow("e", "m", "g", "x", 1.0, 1, 1, "h")]
        with pytest.raises(ValueError):
            emit(rows, "yaml", "-")

    @pytest.mark.parametrize("record", [",9", ""], ids=["extra-field", "short"])
    def test_csv_rejects_a_record_of_the_wrong_length(self, record):
        text = emit([ResultRow("e", "m", "g", "x", 1.0, 1, 1, "h")], "csv", "-")
        lines = text.splitlines()
        bad = lines[1] + record if record else lines[1].rsplit(",", 1)[0]
        with pytest.raises(ValueError, match="record .* has (9|7) fields, expected 8"):
            parse_rows("\n".join([lines[0], bad]) + "\n", "csv")

    @pytest.mark.parametrize("change", ["extra", "missing"])
    def test_json_rejects_a_record_with_other_keys(self, change):
        row = {f: v for f, v in zip(ROW_FIELDS, ("e", "m", "g", "x", 1.0, 1, 1, "h"))}
        if change == "extra":
            row["unit"] = "dB"
        else:
            del row["seed"]
        with pytest.raises(ValueError, match="record .* does not hold exactly the fields"):
            parse_rows(json.dumps([row]), "json")


    @pytest.mark.parametrize(
        "name, value",
        [("experiment", 1), ("method", None), ("grid", 5.0), ("metric", True), ("config_hash", ["h"]),
         ("value", "oops"), ("value", True), ("value", None),
         ("trials", 1.5), ("trials", True), ("trials", "1"),
         ("seed", None), ("seed", False), ("seed", 3.0)],
    )
    def test_json_rejects_a_field_of_the_wrong_type(self, name, value):
        row = {f: v for f, v in zip(ROW_FIELDS, ("e", "m", "g", "x", 1.0, 1, 1, "h"))}
        parse_rows(json.dumps([row]), "json")
        row[name] = value
        with pytest.raises(ValueError, match=f"record field '{name}' must be a JSON"):
            parse_rows(json.dumps([row]), "json")


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
        # the workers may draw in any order
        assert sorted(drawn) == [0.0, 0.0, 0.0, 10.0, 10.0, 10.0]
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

    def test_each_method_solves_a_draw_at_its_own_block_sizes(self, monkeypatch):
        # dmu_block_omp fits at each of the three swept sizes, polar_omp once
        # at its fixed 1; ls is solved once a draw
        fits, ls_draws = [], []
        fit, estimate = BlockOMP.fit, harness.ls_estimate
        monkeypatch.setattr(BlockOMP, "fit", lambda est, *args: fits.append(est.block_size) or fit(est, *args))
        monkeypatch.setattr(harness, "ls_estimate", lambda draw: ls_draws.append(draw) or estimate(draw))
        config = tiny_config(
            kind="block_size_sweep", block_size_list=(2, 4, 8), methods=("dmu_block_omp", "polar_omp"), trials=3
        )
        run(config)
        assert sorted(fits) == sorted([2, 4, 8, 1] * 3)
        fits.clear()
        run(replace(config, methods=("ls",), n_measurements=64))
        assert fits == [] and len(ls_draws) == 3

    def test_a_fixed_block_size_spans_every_swept_size(self):
        # a record with a fixed block of 2 gives, at every swept size, the
        # bytes of dmu_block_omp at block 2 on the same draw
        config = tiny_config(kind="block_size_sweep", block_size_list=(2, 4, 8))
        cfg = config.array_config()
        dictionary = harness._dmu(config, cfg)

        def solved(method, block_sizes):
            # the last method senses in the draw's pilot buffer: a fresh draw each
            draw = harness._draw(config, cfg, source_range(cfg), harness._snr_points(config)[0][1], 0)
            return harness._trial_nmse(config, draw, [method], [dictionary], block_sizes)

        fixed = solved(harness._Method(harness._dmu, 2, harness._block_omp), (2, 4, 8))
        at_two = solved(harness._METHODS["dmu_block_omp"], (2,))
        assert fixed.tobytes() == np.repeat(at_two, 3, axis=0).tobytes()

    def test_polar_baseline_never_forms_its_sensing_matrix(self, monkeypatch):
        _fail_whole_polar_products(monkeypatch)
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

    def test_mutual_coherence_never_forms_the_polar_sensing_matrix(self, monkeypatch):
        # N = 256, T = 48: a block of the 48 x 1536 product holds 1365 columns
        _fail_whole_polar_products(monkeypatch)
        config = replace(preset_config("mutual_coherence", "desk", seed=6), t_list=(48,), trials=2)
        assert config.n_antennas * config.polar_rings * 48 > dictionaries._BLOCK_ENTRIES
        assert all(math.isfinite(r.value) for r in run(config))

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


# one small config per NMSE kind; nmse_vs_T runs ls at N = T = 256, where
# the least-squares Gram's last bits move with the BLAS thread count
ENGINE_CONFIGS = {
    "block_size_sweep": dict(
        n_antennas=64, n_measurements=32, block_size_list=(2, 4, 8), snr_db_list=(5.0,), trials=6,
        methods=("dmu_block_omp", "polar_omp"),
    ),
    "nmse_vs_T": dict(n_antennas=256, t_list=(256,), trials=4, methods=("dmu_block_omp", "polar_omp", "ls")),
    "nmse_vs_snr": dict(
        n_antennas=64, n_measurements=32, snr_db_list=(0.0, 10.0), trials=6,
        methods=("dmu_block_omp", "polar_omp", "dft_omp"),
    ),
    "nmse_vs_mu0": dict(n_antennas=64, n_measurements=32, mu0_bins=(1.0, 3.0), trials=4),
}


class _PoolSpy(concurrent.futures.ThreadPoolExecutor):
    """A ThreadPoolExecutor that records the worker count of every pool."""

    sizes = []

    def __init__(self, max_workers=None, *args, **kwargs):
        type(self).sizes.append(max_workers)
        super().__init__(max_workers, *args, **kwargs)


@pytest.fixture
def pool_spy(monkeypatch):
    monkeypatch.setattr(_PoolSpy, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _PoolSpy)
    return _PoolSpy.sizes


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set the CPU count the pool reads: ``usable_cpus(k)``."""
    return lambda k: monkeypatch.setattr(harness, "_usable_cpus", lambda: k)


class TestTrialEngine:
    @pytest.mark.parametrize("threads", [None, "1"], ids=["blas-threads-unset", "one-blas-thread"])
    def test_tables_do_not_depend_on_the_worker_count(self, threads):
        # run in a fresh interpreter, as BLAS reads its thread count at load;
        # the usable CPUs read 1 and then 2, so the pool runs on any machine
        code = (
            "from nfcs import harness\n"
            "for kind, fields in CONFIGS.items():\n"
            "    config = harness.preset_config(kind, 'desk', seed=3)\n"
            "    for key, value in fields.items(): setattr(config, key, value)\n"
            "    tables = []\n"
            "    for cpus in (1, 2):\n"
            "        harness._usable_cpus = lambda: cpus\n"
            "        tables.append(harness.emit(harness.run(config), 'csv', '-'))\n"
            "    print(kind, tables[0] == tables[1], len(tables[0]))\n"
        ).replace("CONFIGS", repr(ENGINE_CONFIGS))
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(nfcs.__file__).resolve().parents[1])
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        lines = [line.split() for line in proc.stdout.splitlines()]
        assert [kind for kind, _, _ in lines] == list(ENGINE_CONFIGS)
        assert all(same == "True" and int(size) > 100 for _, same, size in lines), proc.stdout

    def test_pool_size_is_the_least_of_usable_cpus_tasks_and_the_cap(self, monkeypatch, pool_spy, usable_cpus):
        # one CPU runs a pool of one worker: there is no serial path
        two_tasks = tiny_config(trials=2, n_measurements=16, n_antennas=16)
        five_tasks = replace(two_tasks, trials=5)
        usable_cpus(1)
        run(five_tasks)
        usable_cpus(3)
        run(five_tasks)
        monkeypatch.setattr(harness, "_MAX_WORKERS", 4)
        run(two_tasks)
        run(five_tasks)
        assert pool_spy == [1, 2, 2, 3]

    def test_analytics_run_serially(self, pool_spy, usable_cpus):
        usable_cpus(2)
        run(ExperimentConfig(kind="mutual_coherence", seed=1, t_list=(20,), trials=2, n_antennas=16))
        assert pool_spy == []

    def test_a_worker_error_is_the_serial_error_and_leaves_no_thread(self, monkeypatch, pool_spy, usable_cpus):
        # an unreachable bin that validation admits: the trials of bin 0.1
        # exhaust the sampling budget, in a worker; one worker and two raise
        # the error of the first failing task and leave no thread behind
        monkeypatch.setattr(harness, "_MU0_DRAWS", 20)
        monkeypatch.setattr(harness, "_mu0_hit_probability", lambda *args: 1.0)
        config = replace(preset_config("nmse_vs_mu0", "desk", seed=2), **ENGINE_CONFIGS["nmse_vs_mu0"])
        config = replace(config, mu0_bins=(3.0, 0.1), trials=3)
        before = threading.active_count()
        errors = []
        for cpus in (1, 2):
            usable_cpus(cpus)
            with pytest.raises(ConfigError) as info:
                run(config)
            errors.append(info.value)
            assert threading.active_count() == before
        assert pool_spy == [1, 2]
        assert str(errors[0]) == str(errors[1])
        assert errors[1].field_path == "experiment.mu0_bins"

    @pytest.mark.parametrize(
        "cpus, snr_db_list, builds", [(2, (math.inf, 5.0), 1), (2, (math.inf,), 0), (1, (5.0,), 1)]
    )
    def test_the_row_gram_range_is_read_before_the_pool_only_for_noisy_pooled_runs(
        self, monkeypatch, pool_spy, usable_cpus, cpus, snr_db_list, builds
    ):
        # every run is pooled, one worker included; a noiseless run never
        # reads the bound
        calls, reads = [], []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        monkeypatch.setattr(_PoolSpy, "__enter__", lambda pool: reads.append(len(calls)) or pool)
        usable_cpus(cpus)
        run(tiny_config(n_antennas=16, n_measurements=16, methods=("polar_omp",), snr_db_list=snr_db_list))
        assert reads == [builds]

    @pytest.mark.parametrize(
        "methods",
        [
            ("dmu_block_omp", "ls", "polar_omp", "dft_omp"),
            ("dft_omp", "dmu_block_omp", "ls", "polar_omp"),
            ("polar_omp", "dft_omp", "dmu_block_omp", "ls"),
        ],
        ids=["chirped-last", "polar-last", "ls-last"],
    )
    def test_the_last_method_alone_senses_in_place(self, monkeypatch, usable_cpus, methods):
        # methods are solved in config order; the last one senses in the
        # draw's pilot buffer, after ls and the polar product have read it
        config = tiny_config(n_measurements=64, methods=methods, trials=2)
        alone = {}
        for m in methods:
            alone.update({(r.method, r.metric): r.value for r in run(replace(config, methods=(m,)))})
        senses = []
        operator = Dictionary.sensing_operator

        def recorded(self, pilots, overwrite=False):
            senses.append((self.mu, overwrite))
            return operator(self, pilots, overwrite)

        monkeypatch.setattr(Dictionary, "sensing_operator", recorded)
        usable_cpus(1)
        joint = {(r.method, r.metric): r.value for r in run(config)}
        assert joint == alone
        mus = {"dmu_block_omp": config.mu, "dft_omp": math.inf, "polar_omp": None}
        solved = [mus[m] for m in methods if m != "ls"]
        in_place = [i == len(methods) - 1 for i, m in enumerate(methods) if m != "ls"]
        assert senses == list(zip(solved, in_place)) * 2


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


@pytest.mark.parametrize("kind", ["sparsity_level", "coherence_error"])
class TestAnalyticsInBlocks:
    # a budget of one entry puts one draw or row in a block; 4095 entries put
    # 15, 7 and 3 draws of N = 256, 512 and 1024 in one
    @pytest.mark.parametrize("budget", [1, 4095])
    def test_the_block_width_moves_no_byte_of_the_desk_table(self, kind, budget, monkeypatch):
        config = preset_config(kind, "desk", seed=3)
        default = emit(run(config), "csv", "-")
        monkeypatch.setattr(dictionaries, "_BLOCK_ENTRIES", budget)
        assert emit(run(config), "csv", "-") == default

    def test_memory_does_not_grow_with_the_trials(self, kind):
        # at N = 1024 the channels of 1000 draws would be 16 MB; only the
        # per-draw parameters and results, 8 bytes each, grow
        peaks = []
        for trials in (200, 1000):
            config = replace(preset_config(kind, "desk", seed=3), n_list=(1024,), trials=trials)
            tracemalloc.start()
            try:
                run(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1e6


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


def test_every_benchmark_workload_config_validates():
    # a validation change that rejects a benchmark workload fails here, not
    # in a benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.NAMES:
        for settings in workloads.configs(name, 0):
            ExperimentConfig(**settings).validate()


def _uses_outside_definition(tree, name):
    """Whether ``tree`` reads ``name`` anywhere but inside its own def or class."""

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return False
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            return True
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        return any(visit(child) for child in ast.iter_child_nodes(node))

    return visit(tree)


def _public_definitions(tree):
    """Names of the public module-level defs, classes and constants of ``tree``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_every_export_is_used_or_documented():
    # library surface that only the tests read is removed unless the README
    # documents it: each name the package exports, and each public module-level
    # def, class and constant, is read by the package itself (outside its own
    # definition), by the benchmark, or named in README
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "nfcs"
    init = ast.parse((package / "__init__.py").read_text())
    exported = [a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names]
    trees = [ast.parse(p.read_text()) for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    defined = [name for tree in trees for name in _public_definitions(tree) if not name.startswith("_")]
    texts = [p.read_text() for p in sorted((root / "perfbench").glob("*.py"))]
    texts.append((root / "README.md").read_text())
    unused = [
        name
        for name in dict.fromkeys(exported + defined)
        if not any(_uses_outside_definition(tree, name) for tree in trees)
        and not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)
    ]
    assert not unused, f"public but used nowhere outside the tests: {unused}"
