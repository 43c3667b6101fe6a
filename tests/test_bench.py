import json
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from util import flag_device_zero

from fedmar import allocator, bench, cli
from fedmar.bench import (
    CSV_HEADER,
    ConfigError,
    ExperimentSpec,
    cell_params,
    load_config,
    parse_config_text,
    rows_to_csv,
    rows_to_json,
    run_experiment,
    spec_from_values,
    summarize,
)
from fedmar.model import dbm_to_watts
from fedmar.pairing import PairingScheme, TopologyConfig


def tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(
        topology=TopologyConfig(user_count=4, channel_count=2),
        params=bench.SystemParams(channel_count=2),
        sweep_variable="p_max_dbm",
        sweep_values=(10.0, 12.0),
        weights=((0.5, 0.5, 0.1),),
        seeds=(1, 2),
        algorithms=("proposed", "random"),
        pairing="nearest",
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestConfigParsing:
    def test_empty_text_gives_defaults(self):
        spec = spec_from_values(parse_config_text(""))
        p = spec.params
        assert p.total_bandwidth_hz == 20e6
        assert p.channel_count == 25
        assert spec.topology.user_count == 50
        assert p.noise_psd_w_per_hz == pytest.approx(dbm_to_watts(-174.0))
        assert p.p_min_w == pytest.approx(dbm_to_watts(0.0))
        assert p.p_max_w == pytest.approx(dbm_to_watts(12.0))
        assert p.f_max_hz == 2e9
        assert p.f_min_hz == 1e6
        assert p.local_iterations == 10.0
        assert p.resolution_set_px == (160.0, 320.0, 640.0)
        assert p.std_resolution_px == 100.0
        assert spec.topology.upload_bits == pytest.approx(28.1e3)
        assert spec.topology.sample_count == 500.0
        assert spec.sweep_values == (6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0)

    def test_overrides_are_honored(self):
        spec = spec_from_values(parse_config_text("p_max_dbm = 10\nchannels = 2\nusers = 4\n"))
        assert spec.params.p_max_w == pytest.approx(dbm_to_watts(10.0))
        assert spec.params.channel_count == 2
        assert spec.topology.user_count == 4

    def test_malformed_numeric_names_the_key(self):
        with pytest.raises(ConfigError, match="p_max_dbm"):
            parse_config_text("p_max_dbm = eleven")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="no_such_key"):
            parse_config_text("no_such_key = 1")

    def test_repeated_key_rejected_naming_both_lines(self):
        # comment lines count, as the file's own line numbers do
        with pytest.raises(ConfigError, match="key 'seeds' is set twice, on lines 1 and 4"):
            parse_config_text("seeds = 1\nsweep_values = 12\n# seeds = 3\nseeds = 2\n")

    def test_comments_and_blanks_ignored(self):
        values = parse_config_text("# a comment\n\nchannels = 3  # trailing\n")
        assert values == {"channels": 3}

    def test_weights_triples(self):
        values = parse_config_text("weights = 0.9,0.1,1.0 0.5,0.5,0.0")
        assert values["weights"] == ((0.9, 0.1, 1.0), (0.5, 0.5, 0.0))
        with pytest.raises(ConfigError, match="weights"):
            parse_config_text("weights = 0.9,0.1")

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("users = 4\nchannels = 2\nseeds = 5 6\nsweep = gamma\nsweep_values = 0 0.5 1\n")
        spec = load_config(path)
        assert spec.seeds == (5, 6)
        assert spec.sweep_variable == "gamma"
        assert spec.sweep_values == (0.0, 0.5, 1.0)


class TestSpecValidation:
    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(sweep_values=())

    def test_non_increasing_sweep_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(sweep_values=(2.0, 1.0))

    def test_no_seeds_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(seeds=())

    def test_zero_energy_weight_names_the_key(self):
        with pytest.raises(ConfigError, match="'weights'"):
            spec_from_values(parse_config_text("weights = 0,1,1"))

    @pytest.mark.parametrize("weights", ["1,0,1", "0.5,0.5,0"])
    def test_zero_time_or_accuracy_weight_yields_every_row(self, weights):
        rows = run_experiment(spec_from_values(parse_config_text(f"weights = {weights}")))
        assert len(rows) == 42  # 7 sweep values x 3 algorithms, plus their means

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(algorithms=("proposed", "magic"))

    def test_channel_count_mismatch_names_the_key(self):
        # the cost model would price 25 paired channels at 4 MHz each
        with pytest.raises(ConfigError, match="'channels'"):
            ExperimentSpec(params=bench.SystemParams(channel_count=5))


class TestCellParams:
    def test_p_max_sweep_sets_power_ceiling(self):
        spec = tiny_spec()
        params = cell_params(spec, 10.0, (0.5, 0.5, 0.1))
        assert params.p_max_w == pytest.approx(dbm_to_watts(10.0))

    def test_f_max_sweep_sets_frequency_ceiling(self):
        spec = tiny_spec(sweep_variable="f_max_ghz", sweep_values=(1.0, 1.5))
        params = cell_params(spec, 1.5, (0.5, 0.5, 0.1))
        assert params.f_max_hz == pytest.approx(1.5e9)

    def test_gamma_sweep_overrides_triple(self):
        spec = tiny_spec(sweep_variable="gamma", sweep_values=(0.0, 0.7))
        params = cell_params(spec, 0.7, (0.5, 0.5, 99.0))
        assert params.weight_accuracy == 0.7
        assert params.weight_energy == 0.5


class TestRunExperiment:
    def test_row_counts_and_order(self):
        spec = tiny_spec()
        rows = run_experiment(spec)
        detail = [r for r in rows if r.seed != "mean"]
        summary = [r for r in rows if r.seed == "mean"]
        assert len(detail) == 2 * 1 * 2 * 2  # values x weights x seeds x algorithms
        assert len(summary) == 2 * 1 * 2  # values x weights x algorithms
        expected_order = [
            (value, seed, algo)
            for value in spec.sweep_values
            for seed in spec.seeds
            for algo in spec.algorithms
        ]
        assert [(r.sweep_value, r.seed, r.algorithm) for r in detail] == expected_order
        assert all(r.resolutions for r in detail)
        assert all(not r.flag for r in detail)

    def test_summary_means(self):
        spec = tiny_spec()
        rows = run_experiment(spec)
        detail = [r for r in rows if r.seed != "mean"]
        summary = [r for r in rows if r.seed == "mean"]
        for s in summary:
            members = [
                r
                for r in detail
                if (r.sweep_value, r.algorithm) == (s.sweep_value, s.algorithm)
            ]
            assert s.energy_j == pytest.approx(np.mean([r.energy_j for r in members]))
            assert s.objective == pytest.approx(np.mean([r.objective for r in members]))

    def test_deterministic_csv_bytes(self, tmp_path):
        spec = tiny_spec()
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run_experiment(spec, out_path=first, fmt="csv")
        run_experiment(spec, out_path=second, fmt="csv")
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("fmt,render", [("csv", rows_to_csv), ("json", rows_to_json)])
    def test_file_holds_exactly_the_returned_rows(self, tmp_path, fmt, render):
        out = tmp_path / f"rows.{fmt}"
        out.write_text("stale\n" * 1000)  # replaced, not appended to
        rows = run_experiment(tiny_spec(), out_path=out, fmt=fmt)
        assert out.read_text() == render(rows)

    def test_unknown_format_rejected_before_any_cell(self, tmp_path, monkeypatch):
        cells = []
        monkeypatch.setattr(bench, "run_cell", lambda *cell: cells.append(cell) or [])
        out = tmp_path / "rows.xml"
        with pytest.raises(ConfigError, match="'xml'"):
            run_experiment(tiny_spec(), out_path=out, fmt="xml")
        assert cells == [] and not out.exists()


class TestSeedReuse:
    """Cells run seed by seed, and each seed's devices, gains and pairings
    serve all of its cells."""

    def best_sweep(self) -> ExperimentSpec:
        return tiny_spec(seeds=(1, 2), algorithms=bench.ALGORITHMS, pairing="best")

    def test_run_cell_and_allocate_keep_their_call_contract(self, monkeypatch):
        # callers such as perfbench wrap bench.run_cell as wrapper(spec,
        # sweep_value, weights, seed) to time cells, and allocator.allocate and
        # both baselines to check each report; so the sweep calls them all
        # through their module globals, run_cell with exactly these four
        # positional arguments
        run_cell = bench.run_cell
        cells, solves = [], []

        def recording_cell(*args, **kwargs):
            cells.append((args, kwargs))
            solves.append(Counter())
            return run_cell(*args, **kwargs)

        def recording(name):
            solve = getattr(allocator, name)

            def wrapper(*args, **kwargs):
                solves[-1][name] += 1
                return solve(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(bench, "run_cell", recording_cell)
        for name in ("allocate", "random_baseline", "greedy_baseline"):
            monkeypatch.setattr(allocator, name, recording(name))
        spec = self.best_sweep()
        run_experiment(spec)
        assert all(len(args) == 4 and not kwargs for args, kwargs in cells)
        assert sorted((args[1], args[3]) for args, _ in cells) == [
            (10.0, 1), (10.0, 2), (12.0, 1), (12.0, 2)
        ]
        assert solves == [{"allocate": 3, "random_baseline": 1, "greedy_baseline": 1}] * 4

    def test_each_seed_is_sampled_once_and_paired_once_per_scheme(self, monkeypatch):
        sample, pair = bench.sample_topology, bench.pair_users
        sampled, paired = [], []

        def recording_sample(config):
            sampled.append(config.rng_seed)
            return sample(config)

        def recording_pair(params, devices, gains, scheme, rng_seed):
            paired.append((rng_seed, scheme))
            return pair(params, devices, gains, scheme, rng_seed=rng_seed)

        monkeypatch.setattr(bench, "sample_topology", recording_sample)
        monkeypatch.setattr(bench, "pair_users", recording_pair)
        run_experiment(self.best_sweep())
        assert sampled == [1, 2]
        assert sorted(paired, key=str) == sorted(
            ((seed, scheme) for seed in (1, 2) for scheme in PairingScheme), key=str
        )
        # every sweep draws its seeds afresh, also one that starts on the
        # seed the last one ended on
        sampled.clear()
        run_experiment(self.best_sweep())
        run_experiment(replace(self.best_sweep(), seeds=(2,)))
        assert sampled == [1, 2, 2]

    @staticmethod
    def cells_match_cold_runs(order):
        """Direct ``run_cell`` calls in ``order``, one after another, give
        the rows each gives on cold caches; returns those rows."""

        def cell(spec, seed):
            return rows_to_csv(bench.run_cell(spec, 12.0, spec.weights[0], seed))

        def cold(spec, seed):
            bench._sampled.cache_clear()
            bench._paired.cache_clear()
            return cell(spec, seed)

        fresh = [cold(spec, seed) for spec, seed in order]
        bench._sampled.cache_clear()
        bench._paired.cache_clear()
        assert [cell(spec, seed) for spec, seed in order] == fresh
        return fresh

    def test_direct_cells_give_the_rows_of_a_fresh_cache(self):
        small = tiny_spec(algorithms=bench.ALGORITHMS, pairing="best")
        large = tiny_spec(
            topology=TopologyConfig(user_count=6, channel_count=3),
            params=bench.SystemParams(channel_count=3),
            algorithms=bench.ALGORITHMS,
            pairing="best",
        )
        order = [(small, 2), (small, 1), (small, 2), (large, 2), (small, 2)]
        fresh = self.cells_match_cold_runs(order)
        assert fresh[0] != fresh[1] and fresh[0] != fresh[3]

    def test_the_caches_key_on_the_workload_fields(self):
        # same placement, shadowing and seed: only the sampled workloads differ
        light = tiny_spec(algorithms=bench.ALGORITHMS, pairing="best")
        heavy = tiny_spec(
            topology=TopologyConfig(user_count=4, channel_count=2, cycles_high=6e4),
            algorithms=bench.ALGORITHMS,
            pairing="best",
        )
        fresh = self.cells_match_cold_runs([(light, 1), (heavy, 1), (light, 1), (heavy, 1)])
        assert fresh[0] != fresh[1]


class TestEmission:
    def test_csv_header_fixed_order(self):
        assert CSV_HEADER.split(",") == [
            "seed",
            "sweep_variable",
            "sweep_value",
            "algorithm",
            "pairing",
            "alpha",
            "beta",
            "gamma",
            "energy_j",
            "time_s",
            "accuracy",
            "weighted_energy_time",
            "objective",
            "resolutions",
            "converged",
            "flag",
        ]

    def test_zero_rows_yields_header_only(self):
        assert rows_to_csv([]) == CSV_HEADER + "\n"

    def test_json_round_trip(self):
        rows = run_experiment(tiny_spec())
        payload = json.loads(rows_to_json(rows))
        assert payload["schema"] == bench.JSON_SCHEMA
        assert len(payload["rows"]) == len(rows)
        for entry, row in zip(payload["rows"], rows):
            assert list(entry) == [f.name for f in fields(row)]
            for name, value in entry.items():
                if name in bench._NUMERIC_FIELDS:
                    assert f"{value:.9g}" == f"{getattr(row, name):.9g}"
                else:
                    assert value == getattr(row, name)

    def test_nine_significant_digits(self):
        rows = run_experiment(tiny_spec())
        line = rows_to_csv(rows).splitlines()[1]
        energy_field = line.split(",")[8]
        assert len(energy_field.replace(".", "").replace("-", "").lstrip("0")) <= 10

    def test_wall_time_never_emitted(self):
        rows = run_experiment(tiny_spec())
        assert "wall" not in rows_to_csv(rows)
        assert "wall" not in rows_to_json(rows)


# the keys that set how many CPU cycles a device round takes
FEWEST_CYCLES_KEYS = (
    "cycles_low", "samples", "local_iterations", "std_resolution_px", "resolutions_px"
)
MOST_CYCLES_KEYS = ("cycles_high",) + FEWEST_CYCLES_KEYS[1:]


class TestCli:
    def _write_config(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "users = 4\nchannels = 2\nseeds = 1\n"
            "sweep_values = 10 12\nweights = 0.5,0.5,0.1\n"
            "algorithms = proposed random\npairing = nearest\njobs = 1\n"
        )
        return path

    def test_solve_succeeds(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "solve.json"
        code = cli.main(
            ["solve", "--config", str(cfg), "--seed", "2", "--pairing", "best",
             "--out", str(out), "--format", "json"]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "objective" in captured
        payload = json.loads(out.read_text())
        assert payload["rows"][0]["algorithm"] == "proposed"

    def test_sweep_writes_csv(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "rows.csv"
        code = cli.main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) > 1

    def test_baselines_runs(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        code = cli.main(["baselines", "--config", str(cfg), "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "random" in out and "greedy" in out

    def test_baselines_rows_match_the_sweep_cell(self, tmp_path):
        # without a proposed run to pick it, the default best pairing runs
        # the baselines on the nearest pairing, and the rows say so
        out = tmp_path / "b.csv"
        assert cli.main(["baselines", "--seed", "7", "--out", str(out)]) == 0
        spec = ExperimentSpec(algorithms=("random", "greedy"))
        rows = bench.run_cell(spec, spec.sweep_values[0], spec.weights[0], 7)
        assert [r.pairing for r in rows] == ["nearest", "nearest"]
        assert out.read_text() == rows_to_csv(rows)

    def test_zero_energy_weight_exits_without_writing(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("weights = 0,1,1\n")
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert "'weights'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text,key",
        [
            ("weights = 0.5,0.5,1 0.3,0.3,1\n", "weights"),
            ("weights = 0.5,0.6,1\n", "weights"),
            ("sweep_values = -3 6 12\n", "sweep_values"),
            ("sweep = f_max_ghz\nsweep_values = 0.0005 1 2\n", "sweep_values"),
            ("sweep = gamma\nsweep_values = -1 0 1\n", "sweep_values"),
            ("samples = 0\n", "samples"),
            ("upload_kbits = 0\n", "upload_kbits"),
            ("cycles_low = -5\n", "cycles_low"),
            (
                "users = 50\nshadow_sigma_db = 2000\nsweep_values = 12\nseeds = 1 2 3\n",
                "shadow_sigma_db",
            ),
            ("sweep = bogus\n", "sweep"),
            ("sweep_values =\n", "sweep_values"),
            ("sweep_values = 12 6\n", "sweep_values"),
            ("seeds =\n", "seeds"),
            ("weights =\n", "weights"),
            ("algorithms = proposed magic\n", "algorithms"),
            ("algorithms =\n", "algorithms"),
            ("pairing = bogus\n", "pairing"),
            ("resolutions_px = 160 320\n", "resolutions_px"),
            ("resolutions_px = 160 320 640 1280\n", "resolutions_px"),
            ("std_resolution_px = 1e-200\n", "std_resolution_px"),
            ("bandwidth_mhz = nan\n", "bandwidth_mhz"),
            ("bandwidth_mhz = inf\n", "bandwidth_mhz"),
            ("noise_dbm_per_hz = nan\n", "noise_dbm_per_hz"),
            ("weights = 0.5,0.5,nan\n", "weights"),
            ("weights = 0.5,0.5,inf\n", "weights"),
            ("sweep = gamma\nsweep_values = nan\n", "sweep_values"),
            ("sweep_values = 6 inf\n", "sweep_values"),
            ("p_max_dbm = 4000\n", "p_max_dbm"),
            ("noise_dbm_per_hz = 4000\n", "noise_dbm_per_hz"),
            ("sweep_values = 4000\n", "sweep_values"),
            ("f_max_ghz = 1e100\n", "f_max_ghz"),
            ("sweep = f_max_ghz\nsweep_values = 1 1e100\n", "sweep_values"),
            ("sweep = gamma\nsweep_values = 0 1e308\n", "sweep_values"),
            ("weights = 0.5,0.5,1e308\n", "weights"),
            ("weights = 0.5,0.5,1e155\n", "weights"),
            ("sweep = gamma\nsweep_values = 0 1e155\n", "sweep_values"),
            ("cycles_high = 1e200\n", "cycles_high"),
            ("f_min_ghz = 6e-318\n", "f_min_ghz"),
            ("sweep_values = 3080\n", "sweep_values"),
            ("sweep = gamma\nsweep_values = 1\np_max_dbm = 3080\n", "p_max_dbm"),
            ("shadow_sigma_db = -0\n", "shadow_sigma_db"),
            ("shadow_sigma_db = inf\n", "shadow_sigma_db"),
            ("shadow_sigma_db = nan\n", "shadow_sigma_db"),
        ],
        ids=[
            "later-triple",
            "first-triple",
            "p_max-below-p_min",
            "f_max-below-f_min",
            "negative-gamma",
            "zero-samples",
            "zero-upload",
            "negative-cycles",
            "huge-shadow-sigma",
            "unknown-sweep",
            "empty-sweep-values",
            "decreasing-sweep-values",
            "no-seeds",
            "no-weights",
            "unknown-algorithm",
            "no-algorithms",
            "unknown-pairing",
            "two-resolutions",
            "four-resolutions",
            "tiny-std-resolution",
            "nan-bandwidth",
            "infinite-bandwidth",
            "nan-noise",
            "nan-gamma",
            "infinite-gamma",
            "nan-gamma-sweep",
            "infinite-p_max-sweep",
            "p_max-watts-overflow",
            "noise-watts-overflow",
            "p_max-sweep-watts-overflow",
            "f_max-cube-overflow",
            "f_max-sweep-cube-overflow",
            "gamma-sweep-accuracy-overflow",
            "gamma-accuracy-overflow",
            "gamma-dual-curvature-overflow",
            "gamma-sweep-dual-curvature-overflow",
            "cycles_high-dual-coefficient-overflow",
            "subnormal-f_min-round-time-overflow",
            "p_max-sweep-rate-overflow",
            "p_max-rate-overflow-in-gamma-sweep",
            "negative-zero-shadow-sigma",
            "infinite-shadow-sigma",
            "nan-shadow-sigma",
        ],
    )
    def test_unsolvable_cell_exits_without_writing(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"key '{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text,keys",
        [
            ("p_max_dbm = -5\n", ("p_max_dbm",)),
            ("users = 10\nchannels = 4\n", ("users", "channels")),
            # the topology's own checks come before its workload's
            ("users = 10\nchannels = 4\nsamples = 0\n", ("users", "channels")),
            ("outer_tolerance = 1e-4\n", ("outer_tolerance",)),
            ("max_outer_iterations = 50\n", ("max_outer_iterations",)),
            ("cycles_low = 5e4\n", ("cycles_low", "cycles_high")),
            ("users = 4\nchannels = 2\nlocal_iterations = 1e-310\n", FEWEST_CYCLES_KEYS),
            ("users = 4\nchannels = 2\nsamples = 2.225e-309\n", FEWEST_CYCLES_KEYS),
            ("cycles_low = 1e-310\ncycles_high = 1e-310\n", FEWEST_CYCLES_KEYS),
            ("resolutions_px = 1e-3 2e-3 3e-3\n", FEWEST_CYCLES_KEYS),
            ("std_resolution_px = 1e200\n", FEWEST_CYCLES_KEYS),
            ("local_iterations = nan\n", FEWEST_CYCLES_KEYS),
            ("local_iterations = inf\n", MOST_CYCLES_KEYS),
            ("samples = 1e300\ncycles_high = 1e300\n", MOST_CYCLES_KEYS),
            ("kappa = 1e300\n", ("kappa",)),
            ("kappa = 1e-320\n", ("kappa",)),
            ("kappa = 1e-305\nweights = 0.5,0.5,1 0.001,0.999,1\n", ("kappa", "weights")),
            ("weights = 1e-300,1,1\n", ("kappa", "weights")),
            ("kappa = 1e260\nsweep = f_max_ghz\nsweep_values = 1 1e20\n", ("kappa",)),
            ("seeds = 1 -1\n", ("seeds",)),
            ("p_max_dbm = inf\nsweep = f_max_ghz\n", ("p_min_dbm", "p_max_dbm")),
            ("f_max_ghz = inf\n", ("f_min_ghz", "f_max_ghz")),
            (
                "min_distance_km = 1e-300\nshadow_sigma_db = 0\n",
                ("min_distance_km", "cell_radius_km"),
            ),
            ("seeds = 1 2 1\n", ("seeds",)),
            ("weights = 0.5,0.5,1 0.5,0.5,1\n", ("weights",)),
            ("algorithms = greedy proposed greedy\n", ("algorithms",)),
            ("sweep = gamma\nsweep_values = 1\nweights = 0.5,0.5,1 0.5,0.5,2\n", ("weights",)),
            ("seeds = 1\nseeds = 2\nsweep_values = 12\nalgorithms = random\n", ("seeds",)),
            ("jobs = 1\njobs = 1\n", ("jobs",)),
            ("bandwidth_mhz = 5e-315\n", ("bandwidth_mhz", "noise_dbm_per_hz", "channels")),
            # each key alone loads; together the least rate's upload overflows
            ("bandwidth_mhz = 1e-117\nupload_kbits = 2.8e266\n", ("upload_kbits", "bandwidth_mhz")),
        ],
        ids=[
            "p_max-below-base-p_min",
            "users-not-twice-channels",
            "users-not-twice-channels-and-zero-samples",
            "unknown-key-outer_tolerance",
            "unknown-key-max_outer_iterations",
            "cycles-low-above-high",
            "tiny-local-iterations",
            "tiny-samples",
            "tiny-cycles",
            "tiny-resolutions",
            "huge-std-resolution",
            "nan-local-iterations",
            "infinite-local-iterations",
            "round-cycles-overflow",
            "huge-kappa",
            "subnormal-kappa",
            "subnormal-alpha-times-kappa",
            "subnormal-alpha-times-default-kappa",
            "round-energy-overflow-at-swept-f_max",
            "negative-seed",
            "infinite-base-p_max",
            "infinite-f_max",
            "unshadowed-gain-overflow",
            "repeated-seed",
            "repeated-weight-triple",
            "repeated-algorithm",
            "gamma-sweep-triples-differing-only-in-gamma",
            "repeated-key-seeds",
            "repeated-key-jobs",
            "subnormal-subchannel-noise",
            "least-rate-upload-overflow",
        ],
    )
    def test_invalid_base_parameter_exits_naming_the_key(self, tmp_path, capsys, text, keys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert all(f"'{key}'" in err for key in keys)
        assert not out.exists()

    @pytest.mark.parametrize("kappa", ["nan", "inf", "-inf"])
    def test_non_finite_kappa_exits_naming_kappa_alone(self, tmp_path, capsys, kappa):
        # the float-range checks on alpha * kappa name the weights as well;
        # a non-finite kappa is rejected before them, naming kappa only
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"kappa = {kappa}\n")
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "rows.csv")]) == 1
        err = capsys.readouterr().err
        assert "key 'kappa': switched capacitance must be positive and finite" in err
        assert "'weights'" not in err

    def test_negative_seed_flag_exits_naming_the_key(self, capsys):
        assert cli.main(["solve", "--seed", "-5"]) == 1
        assert "key 'seeds'" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1", "4"])
    def test_jobs_below_one_exits_naming_the_key(self, tmp_path, capsys, jobs):
        cfg = self._write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("jobs = 1\n", f"jobs = {jobs}\n"))
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert "key 'jobs'" in capsys.readouterr().err
        assert not out.exists()

    def test_solve_flags_an_unreachable_cell(self, tmp_path, capsys):
        cfg = tmp_path / "far.cfg"
        cfg.write_text(UNREACHABLE)
        out = tmp_path / "solve.csv"
        assert cli.main(["solve", "--config", str(cfg), "--seed", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "pairing best  flag unreachable" in captured.out
        assert re.fullmatch(
            r"device \d+ has zero uplink rate but 28100 bits to send\n", captured.err
        )
        assert out.read_text().splitlines()[1:] == [
            "2,p_max_dbm,6,proposed,best,0.5,0.5,1,nan,nan,nan,nan,nan,,no,unreachable"
        ]

    def test_missing_config_is_error(self, tmp_path):
        assert cli.main(["sweep", "--config", str(tmp_path / "nope.cfg")]) == 1

    @pytest.mark.parametrize("command", ["solve", "sweep", "baselines"])
    def test_directory_as_out_exits_with_an_error(self, tmp_path, capsys, monkeypatch, command):
        # a directory or a missing parent stops every command before any cell
        cfg = self._write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        cells = []
        monkeypatch.setattr(bench, "proposed_row", lambda *cell: cells.append(cell))
        monkeypatch.setattr(bench, "run_cell", lambda *cell: cells.append(cell))
        for path in (out, tmp_path / "missing" / "rows.csv"):
            assert cli.main([command, "--config", str(cfg), "--out", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ")
            assert captured.out == ""
        assert cells == []
        assert not any(out.iterdir())

    def test_directory_as_config_exits_with_an_error(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", str(tmp_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


# every gain at 900 km and beyond leaves a zero uplink rate
UNREACHABLE = "cell_radius_km = 1e6\nmin_distance_km = 9e5\n"


@pytest.mark.parametrize(
    "extra,labels",
    [
        ("", {"proposed": "best", "random": "nearest", "greedy": "nearest"}),
        (
            "pairing = nearest\nalgorithms = random greedy\n",
            {"random": "nearest", "greedy": "nearest"},
        ),
    ],
    ids=["best", "nearest-baselines"],
)
def test_unreachable_cell_yields_flagged_rows(tmp_path, extra, labels):
    # a failed proposed row keeps the configured pairing; the baselines fall
    # back to the pairing they ran on
    cfg = tmp_path / "far.cfg"
    cfg.write_text(UNREACHABLE + extra)
    spec = load_config(cfg)
    rows = bench.run_cell(spec, spec.sweep_values[0], spec.weights[0], 1)
    assert [(r.algorithm, r.pairing) for r in rows] == list(labels.items())
    for row in rows:
        assert all(np.isnan(getattr(row, name)) for name in bench._MEAN_FIELDS)
        assert (row.flag, row.converged) == ("unreachable", "no")
    out = tmp_path / "rows.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    summary = [line.split(",") for line in out.read_text().splitlines() if line.startswith("mean,")]
    assert len(summary) == len(spec.sweep_values) * len(labels)
    assert all(s[4] == labels[s[3]] and s[-1] == "flagged=1" for s in summary)


@pytest.mark.parametrize("fmt,render", [("csv", rows_to_csv), ("json", rows_to_json)])
@pytest.mark.parametrize(
    "config,seed,pairing",
    [("", 7, "best"), ("", 7, "nearest"), (UNREACHABLE, 2, "best")],
    ids=["best", "nearest", "unreachable"],
)
def test_solve_writes_the_sweep_cells_proposed_row(
    tmp_path, capsys, config, seed, pairing, fmt, render
):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config)
    out = tmp_path / f"solve.{fmt}"
    argv = ["solve", "--config", str(cfg), "--seed", str(seed), "--pairing", pairing]
    code = cli.main([*argv, "--out", str(out), "--format", fmt])
    err = capsys.readouterr().err
    spec = replace(load_config(cfg), pairing=pairing, algorithms=("proposed",))
    rows = bench.run_cell(spec, spec.sweep_values[0], spec.weights[0], seed)
    assert out.read_text() == render(rows)
    if config:
        assert (code, rows[0].flag) == (2, "unreachable")
        assert re.fullmatch(r"device \d+ has zero uplink rate but 28100 bits to send\n", err)
    else:
        assert (code, err) == (0, "")


@pytest.mark.parametrize("seeds", [(1, 2), (1, 2, 3)])
def test_mean_rows_name_every_pairing_their_seeds_ran(seeds):
    # best pairing picks random for seeds 1 and 3 and nearest for seed 2; the
    # random baseline runs on the pairing its seed's proposed run picked
    rows = run_experiment(tiny_spec(seeds=seeds, pairing="best"))
    picked = {1: "random", 2: "nearest", 3: "random"}
    assert all(r.pairing == picked[r.seed] for r in rows if r.seed != "mean")
    summary = [r for r in rows if r.seed == "mean"]
    assert len(summary) == 4
    assert all(r.pairing == "random|nearest" for r in summary)


@pytest.mark.parametrize("weights", ["0.5,0.5,1", "1,0,1"])
def test_zero_power_floor_gives_unflagged_greedy_rows(weights):
    spec = spec_from_values(
        parse_config_text(f"p_min_dbm = -inf\nsweep_values = 6 12\nweights = {weights}\n")
    )
    greedy = [r for r in run_experiment(spec) if r.algorithm == "greedy"]
    assert len(greedy) == 4  # two sweep points, each with its seed mean
    assert all(r.flag == "" for r in greedy)
    assert all(np.isfinite(r.objective) for r in greedy)


def test_upload_below_computation_roundoff_gives_unflagged_row():
    # a 1e-17-bit upload takes less than half an ulp of the 1.27 s
    # computation, so the completion time rounds onto the computation time
    spec = spec_from_values(
        parse_config_text("users = 4\nchannels = 2\nupload_kbits = 1e-20\nsweep_values = 12\n")
    )
    rows = bench.run_cell(spec, 12.0, spec.weights[0], 1)
    assert [(r.algorithm, r.flag) for r in rows] == [
        ("proposed", ""), ("random", ""), ("greedy", "")
    ]
    assert all(np.isfinite(r.objective) for r in rows)


def _rejected_naming_a_key_or_rows_without_warning(text):
    try:
        spec = spec_from_values(parse_config_text(text))
    except ConfigError as exc:
        assert "key" in str(exc)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = run_experiment(spec)
    assert rows and all(r.flag or np.isfinite(r.objective) for r in rows)


@pytest.mark.xfail(
    raises=RuntimeWarning,
    strict=True,
    reason="accepted at load; a long slack underflows sp2.required_power's 2**x - 1 to 0 "
    "and sp2.solve_ratio_stage divides by it",
)
def test_zero_power_floor_with_long_rounds_is_rejected_or_runs_warning_free():
    _rejected_naming_a_key_or_rows_without_warning(
        "p_min_dbm = -inf\nlocal_iterations = 1e40\nsweep_values = 12\n"
    )


@pytest.mark.xfail(
    raises=ValueError,
    strict=True,
    reason="accepted at load; sp2 then refuses a minimum rate that is not positive and finite",
)
def test_tiny_upload_with_long_rounds_is_rejected_or_runs_warning_free():
    _rejected_naming_a_key_or_rows_without_warning(
        "users = 6\nchannels = 3\np_min_dbm = -inf\nupload_kbits = 2e-294\n"
        "local_iterations = 5.9e57\nseeds = 29\nsweep_values = 12\n"
    )


def _log_uniform(low_exp, high_exp):
    return st.floats(low_exp, high_exp).map(lambda e: 10.0**e)


_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# a device round's CPU cycles: plausible counts, or ones log-uniform below
# one, down to the smallest subnormal, or non-positive
_WORKLOAD = (st.floats(1.0, 1e4), st.one_of(_log_uniform(-323.3, 0.0), st.floats(-10.0, 0.0)))

# positive floats below the smallest normal one, log-uniform
_SUBNORMAL = _log_uniform(-323.3, -307.66)

# keys a draw may break: a strategy of plausible values the config accepts,
# then one of the values that may break it (kappa over the whole float range)
_BREAKABLE = {
    "bandwidth_mhz": (st.floats(1e-3, 100.0), st.one_of(_NON_FINITE, _SUBNORMAL)),
    "gamma": (st.floats(0.0, 50.0), st.one_of(_NON_FINITE, st.just(1e308))),
    "p_max_dbm": (
        st.floats(1.0, 30.0),
        st.one_of(_NON_FINITE, st.just(4000.0), st.floats(30.0, 3100.0)),
    ),
    "f_min_ghz": (st.floats(1e-3, 1.0), _SUBNORMAL),
    "f_max_factor": (st.floats(1.0, 50.0, exclude_min=True), st.just(1e100)),
    "upload_kbits": (st.floats(1e-3, 1e3), st.floats(-10.0, 0.0)),
    "samples": _WORKLOAD,
    "cycles_low": _WORKLOAD,
    "local_iterations": _WORKLOAD,
    "kappa": (_log_uniform(-30.0, -26.0), _log_uniform(-320.0, 300.0)),
    "seed": (st.integers(0, 1000), st.integers(-1000, -1)),
}


@st.composite
def _breakable_values(draw):
    """A value for every key of ``_BREAKABLE``, at most one of them from
    the values that may break it; two draws in three break none."""
    broken = draw(st.sampled_from([None] * 2 * len(_BREAKABLE) + list(_BREAKABLE)))
    event(f"may break {broken}")
    return {key: draw(kinds[key == broken]) for key, kinds in _BREAKABLE.items()}


@settings(max_examples=60, deadline=None)
@given(
    channels=st.integers(1, 10),
    alpha=st.floats(1e-6, 1.0),
    cycles_factor=st.floats(1.0, 100.0),
    drawn=_breakable_values(),
)
def test_accepted_configs_yield_rows_and_rejected_ones_name_a_key(
    channels, alpha, cycles_factor, drawn
):
    # runs under the suite's RuntimeWarning-as-error filter, with a 0 W power floor
    values = {
        "channels": channels,
        "users": 2 * channels,
        "bandwidth_mhz": drawn["bandwidth_mhz"],
        "p_min_dbm": float("-inf"),
        "f_min_ghz": drawn["f_min_ghz"],
        "f_max_ghz": drawn["f_min_ghz"] * drawn["f_max_factor"],
        "weights": ((alpha, 1.0 - alpha, drawn["gamma"]),),
        "sweep_values": (drawn["p_max_dbm"],),
        "samples": drawn["samples"],
        "upload_kbits": drawn["upload_kbits"],
        "cycles_low": drawn["cycles_low"],
        "cycles_high": drawn["cycles_low"] * cycles_factor,
        "local_iterations": drawn["local_iterations"],
        "kappa": drawn["kappa"],
        "seeds": (drawn["seed"],),
    }
    try:
        spec = spec_from_values(values)
    except ConfigError as exc:
        assert "key" in str(exc)
        event("rejected " + str(exc).split(":")[0])  # the keys it names
        return
    event("accepted")
    rows = [r for r in run_experiment(spec) if r.seed != "mean"]
    assert [r.algorithm for r in rows] == list(spec.algorithms)
    for row in rows:
        assert row.flag or np.isfinite(row.objective)


def test_readme_table_lists_exactly_the_configuration_keys():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("### Configuration keys", 1)[1].split("\n### ", 1)[0]
    rows = [line.split("|")[1] for line in table.splitlines() if line.startswith("| `")]
    documented = [key for cell in rows for key in re.findall(r"`([^`]+)`", cell)]
    assert sorted(documented) == sorted(bench._KEYS)


def test_default_sweep_matches_golden_csv(tmp_path):
    # tests/data/default_sweep.csv is `fedmar sweep --out ...` with no config;
    # a change that moves any emitted digit must regenerate it on purpose
    out = tmp_path / "default.csv"
    assert cli.main(["sweep", "--out", str(out)]) == 0
    golden = Path(__file__).parent / "data" / "default_sweep.csv"
    assert out.read_bytes() == golden.read_bytes()


def test_default_sweep_matches_golden_csv_with_simd_dispatch_off(tmp_path):
    # numpy's AVX-512 and AVX2 kernels switched off, so a layout that reaches
    # another SIMD path cannot move an emitted digit unnoticed
    out = tmp_path / "default.csv"
    paths = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4 X86_V3",
        PYTHONPATH=os.pathsep.join(filter(None, paths)),
    )
    command = [sys.executable, "-m", "fedmar.cli", "sweep", "--out", str(out)]
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    golden = Path(__file__).parent / "data" / "default_sweep.csv"
    assert out.read_bytes() == golden.read_bytes()


def test_gamma_sweep_resolutions_non_decreasing_per_user():
    spec = tiny_spec(
        sweep_variable="gamma",
        sweep_values=tuple(0.25 * i for i in range(9)),
        weights=((0.5, 0.5, 0.0),),
        seeds=(15,),
        algorithms=("proposed",),
    )
    rows = [r for r in run_experiment(spec) if r.seed != "mean"]
    per_user = np.array([[float(x) for x in r.resolutions.split("|")] for r in rows])
    assert per_user.shape == (9, 4)
    assert np.all(np.diff(per_user, axis=0) >= 0)


def test_summarize_counts_flagged_rows():
    rows = run_experiment(tiny_spec())
    detail = [r for r in rows if r.seed != "mean"]
    detail[0].flag = "rate-infeasible"
    summary = summarize(detail)
    flagged = [s for s in summary if s.flag]
    assert flagged and flagged[0].flag == "flagged=1"


def test_rate_infeasible_flag_reaches_the_row_and_the_exit_code(tmp_path, monkeypatch):
    # every power solve flags device 0; the cell takes one pass, so its last
    # pass carries the flag into the report, the row, the summary and the exit
    flag_device_zero(monkeypatch)
    reports = []
    allocate = allocator.allocate

    def kept(*args):
        reports.append(allocate(*args))
        return reports[-1]

    monkeypatch.setattr(allocator, "allocate", kept)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "users = 4\nchannels = 2\nseeds = 1\nsweep_values = 12\nweights = 0.5,0.5,1\n"
        "algorithms = proposed random\npairing = nearest\n"
    )
    spec = load_config(cfg)
    rows = bench.run_cell(spec, spec.sweep_values[0], spec.weights[0], 1)
    assert [len(r.passes) for r in reports] == [1]
    assert not reports[0].feasible
    assert [(r.algorithm, r.converged, r.flag) for r in rows] == [
        ("proposed", "yes", "rate-infeasible"),
        ("random", "yes", ""),
    ]
    out = tmp_path / "rows.csv"
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    summary = [line.split(",") for line in out.read_text().splitlines() if line.startswith("mean,")]
    assert [(s[3], s[-1]) for s in summary] == [("proposed", "flagged=1"), ("random", "")]
