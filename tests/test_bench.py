import json
from pathlib import Path

import numpy as np
import pytest

from fedmar import bench, cli
from fedmar.bench import (
    CSV_HEADER,
    ConfigError,
    ExperimentSpec,
    cell_params,
    load_config,
    parse_config_text,
    rows_from_json,
    rows_to_csv,
    rows_to_json,
    run_experiment,
    spec_from_values,
    summarize,
)
from fedmar.model import dbm_to_watts
from fedmar.pairing import TopologyConfig


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
        assert spec.ranges.upload_bits == pytest.approx(28.1e3)
        assert spec.ranges.sample_count == 500.0
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

    def test_threaded_run_matches_sequential(self, tmp_path):
        seq = run_experiment(tiny_spec(jobs=1))
        par = run_experiment(tiny_spec(jobs=4))
        assert rows_to_csv(seq) == rows_to_csv(par)


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
        text = rows_to_json(rows)
        payload = json.loads(text)
        assert payload["schema"] == bench.JSON_SCHEMA
        back = rows_from_json(text)
        assert rows_to_json(back) == text

    def test_nine_significant_digits(self):
        rows = run_experiment(tiny_spec())
        line = rows_to_csv(rows).splitlines()[1]
        energy_field = line.split(",")[8]
        assert len(energy_field.replace(".", "").replace("-", "").lstrip("0")) <= 10

    def test_wall_time_never_emitted(self):
        rows = run_experiment(tiny_spec())
        assert all(r.wall_time_s >= 0.0 for r in rows)
        assert "wall" not in rows_to_csv(rows)
        assert "wall" not in rows_to_json(rows)


class TestCli:
    def _write_config(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "users = 4\nchannels = 2\nseeds = 1\n"
            "sweep_values = 10 12\nweights = 0.5,0.5,0.1\n"
            "algorithms = proposed random\npairing = nearest\n"
        )
        return path

    def test_topology_round_trip(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "topo.txt"
        code = cli.main(["topology", "--config", str(cfg), "--seed", "3", "--out", str(out)])
        assert code == 0
        from fedmar.pairing import load_topology
        from fedmar.model import SystemParams

        topo = load_topology(out, SystemParams(channel_count=2))
        assert topo.n_devices == 4

    def test_topology_requires_out(self, capsys):
        assert cli.main(["topology"]) == 1
        assert "requires --out" in capsys.readouterr().err

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
        ],
        ids=[
            "later-triple",
            "first-triple",
            "p_max-below-p_min",
            "f_max-below-f_min",
            "negative-gamma",
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
            ("outer_tolerance = 0\n", ("outer_tolerance",)),
        ],
        ids=["p_max-below-base-p_min", "users-not-twice-channels", "zero-tolerance"],
    )
    def test_invalid_base_parameter_exits_naming_the_key(self, tmp_path, capsys, text, keys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert all(f"'{key}'" in err for key in keys)
        assert not out.exists()

    def test_missing_config_is_error(self, tmp_path):
        assert cli.main(["sweep", "--config", str(tmp_path / "nope.cfg")]) == 1


@pytest.mark.parametrize("weights", ["0.5,0.5,1", "1,0,1"])
def test_zero_power_floor_gives_unflagged_greedy_rows(weights):
    spec = spec_from_values(
        parse_config_text(f"p_min_dbm = -inf\nsweep_values = 6 12\nweights = {weights}\n")
    )
    greedy = [r for r in run_experiment(spec) if r.algorithm == "greedy"]
    assert len(greedy) == 4  # two sweep points, each with its seed mean
    assert all(r.flag == "" for r in greedy)
    assert all(np.isfinite(r.objective) for r in greedy)


def test_default_sweep_matches_golden_csv(tmp_path):
    # tests/data/default_sweep.csv is `fedmar sweep --out ...` with no config;
    # a change that moves any emitted digit must regenerate it on purpose
    out = tmp_path / "default.csv"
    assert cli.main(["sweep", "--out", str(out)]) == 0
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
