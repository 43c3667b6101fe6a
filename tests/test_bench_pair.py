"""tools/bench_pair.py on synthetic perfbench records of two checkouts."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "tools" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = BENCHMARK["run_seconds"]
SEEDS = [901, 902, 903, 904, 905]
# cells_per_s of the untraced runs by seed; higher is better
PARENT_RATES = [13.0, 10.0, 12.0, 14.0, 11.0]
CHANGE_RATES = [14.0, 9.0, 12.5, 13.0, 12.0]


def _write(
    checkout, seed, trace, cells_per_s, src="a" * 64, wall_s=RUN_SECONDS + 1.0, failed=0, correct=True
):
    """One record as perfbench/run.py leaves it: every end-to-end metric,
    cell_p50_s the inverse of cells_per_s and the rest 1."""
    values = {m["name"]: 1.0 for m in BENCHMARK["end_to_end"]}
    values.update(cells_per_s=cells_per_s, cell_p50_s=1.0 / cells_per_s)
    record = {
        "meta": {
            "workload": "paper-sweep", "seed": seed, "trace": trace, "git_sha": None,
            "src_sha256": src, "python": "3", "numpy": "2", "nproc": 2, "cpus_usable": 2,
        },
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": "1"} for name, v in values.items()},
        "notes": {"cells_per_s": f"raw: 10 cells in {wall_s:.3f} s over 5 rounds = 1"},
        "csv_sha256": ["d" * 64],
    }
    path = checkout / ".bench_out" / f"result-paper-sweep-seed{seed}-trace{trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record))


def _checkouts(tmp_path):
    sides = {}
    for side, rates, src in (("parent", PARENT_RATES, "a" * 64), ("change", CHANGE_RATES, "b" * 64)):
        sides[side] = tmp_path / side
        for seed, rate in zip(SEEDS, rates):
            _write(sides[side], seed, 0, rate, src=src)
        _write(sides[side], bench_pair.TRACED_SEED, 1, rates[0], src=src)
    return sides


def _main(sides, out):
    return bench_pair.main([
        "--name", "t", "--parent", str(sides["parent"]), "--change", str(sides["change"]),
        "--workload", "paper-sweep=901-905", "--out", str(out),
    ])


def test_pair_summarises_each_side_and_counts_pairs_won(tmp_path, capsys):
    sides = _checkouts(tmp_path)
    assert _main(sides, tmp_path) == 0
    parent = json.loads((tmp_path / "BENCH_t_parent.json").read_text())
    change = json.loads((tmp_path / "BENCH_t_change.json").read_text())
    rates = parent["workloads"]["paper-sweep"]["end_to_end"]["cells_per_s"]
    # inclusive quartiles of 10..14; runs stay in seed order
    assert (rates["median"], rates["q1"], rates["q3"]) == (12.0, 11.0, 13.0)
    assert rates["runs"] == PARENT_RATES
    rates = change["workloads"]["paper-sweep"]["end_to_end"]["cells_per_s"]
    assert (rates["median"], rates["q1"], rates["q3"]) == (12.5, 12.0, 13.0)
    assert change["workloads"]["paper-sweep"]["seeds"] == SEEDS
    assert change["src_sha256"] == "b" * 64
    lines = capsys.readouterr().out.splitlines()
    # higher cells_per_s wins at seeds 901, 903 and 905; lower cell_p50_s at
    # the same; both medians move well within the bound
    for metric in ("cells_per_s", "cell_p50_s"):
        (line,) = [line for line in lines if f" {metric} " in line]
        assert line.endswith("change better in 3/5  holds")
    (line,) = [line for line in lines if " failures " in line]
    assert line.endswith("parent 0/50 failed, correct True  change 0/50 failed, correct True  holds")


@pytest.mark.parametrize(
    "parent_failed,change_failed,correct,expected",
    [
        # 1 of 50 operations against none
        (0, 1, True, "worse"),
        (1, 1, True, "holds"),
        (2, 1, True, "holds"),
        # a change run that is not correct, whatever the failures
        (0, 0, False, "worse"),
    ],
    ids=["larger-failed-share", "same-failed-share", "smaller-failed-share", "change-not-correct"],
)
def test_failures_line_compares_failed_shares_and_correctness(
    tmp_path, capsys, parent_failed, change_failed, correct, expected
):
    sides = _checkouts(tmp_path)
    _write(sides["parent"], SEEDS[0], 0, PARENT_RATES[0], failed=parent_failed)
    _write(sides["change"], SEEDS[3], 0, CHANGE_RATES[3], src="b" * 64, failed=change_failed,
           correct=correct)
    assert _main(sides, tmp_path) == 0
    change = json.loads((tmp_path / "BENCH_t_change.json").read_text())
    assert change["workloads"]["paper-sweep"]["failed"] == change_failed
    (line,) = [line for line in capsys.readouterr().out.splitlines() if " failures " in line]
    assert line.split()[3] == f"{parent_failed}/50"
    assert line.endswith(f"correct {correct}  {expected}")


DECLARED = {m["name"]: m for m in BENCHMARK["end_to_end"]}
TIGHT = [100.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3, 99.7, 100.0]


@pytest.mark.parametrize(
    "parent,change,expected",
    [
        # the parent's quartiles spread past cells_per_s's 24% bound
        ([60.0, 140.0] * 5, [100.0] * 10, "unresolved"),
        # ... unless every change run beats every parent run
        ([60.0, 140.0] * 5, [1000.0] * 10, "gain"),
        (TIGHT, [v * 0.7 for v in TIGHT], "worse"),
        # 8 wins and 2 ties: ties count for neither side, so 8/10 is short
        (TIGHT, [v + 10.0 for v in TIGHT[:8]] + TIGHT[8:], "holds"),
        (TIGHT, [v + 10.0 for v in TIGHT[:9]] + TIGHT[9:], "gain"),
        # 10/10 pairs won, but the medians differ by less than the spread
        (TIGHT, [v + 0.1 for v in TIGHT], "holds"),
        (TIGHT, [v * 0.9 for v in TIGHT], "holds"),
    ],
    ids=[
        "wide-parent", "wide-parent-every-run-beaten", "worse", "ties-count-for-neither",
        "gain", "won-within-spread", "slower-within-bound",
    ],
)
def test_verdict_applies_the_benchmark_rule(parent, change, expected):
    summaries = [bench_pair._summary(runs, "cells/s") for runs in (parent, change)]
    assert bench_pair.verdict(*summaries, DECLARED["cells_per_s"]) == expected
    # the same runs as times per cell, where lower is better, read the same
    assert DECLARED["cell_p50_s"]["bound"] == DECLARED["cells_per_s"]["bound"]
    summaries = [bench_pair._summary([1.0 / v for v in runs], "s") for runs in (parent, change)]
    assert bench_pair.verdict(*summaries, DECLARED["cell_p50_s"]) == expected


def test_records_of_two_trees_on_one_side_stop_the_script(tmp_path):
    sides = _checkouts(tmp_path)
    _write(sides["change"], SEEDS[2], 0, CHANGE_RATES[2], src="c" * 64)
    with pytest.raises(SystemExit, match="change records of paper-sweep come from different trees"):
        _main(sides, tmp_path)
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_run_shorter_than_run_seconds_stops_the_script(tmp_path):
    sides = _checkouts(tmp_path)
    _write(sides["parent"], SEEDS[1], 0, PARENT_RATES[1], wall_s=RUN_SECONDS - 5.0)
    with pytest.raises(SystemExit, match=f"ran {RUN_SECONDS - 5:g} s, under {RUN_SECONDS:g} s"):
        _main(sides, tmp_path)
    assert not list(tmp_path.glob("BENCH_*.json"))
