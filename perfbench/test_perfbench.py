"""Tests of the benchmark itself: python3 -m pytest perfbench

They use scaled-down copies of the workloads so they run in seconds; the
sizes change how long a cell takes, not which layers it reaches.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fedmar import allocator, bench, model, pairing  # noqa: E402

SMALL = {
    "paper-sweep": workloads.PaperSweep(seeds_per_round=2),
    "large-cell": workloads.LargeCell(users=400, topologies=1),
}

# The spans each workload must record: the rows of the README's layer table
# that name the workload.
EXPECTED_SPANS = {
    "paper-sweep": {fn for _, fn in tracing.SPANS},
    "large-cell": {
        "sample_topology",
        "pair_users",
        "evaluate",
        "uplink_rates",
        "solve_sp1",
        "solve_sp2",
        "solve_ratio_stage",
        "allocate",
        "relaxed_objective",
        "greedy_baseline",
        "random_baseline",
    },
}

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def trace_once(workload, seed: int, workdir: Path) -> tuple[tracing.Tracer, workloads.Round]:
    tracer = tracing.Tracer()
    with tracer.installed():
        inputs = workload.make_inputs(seed, workdir)
    tracer.cell = "traced/"
    with tracer.installed():
        rnd = workload.run_round(inputs, tracer, "traced/")
    return tracer, rnd


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_layer_records_a_span_on_its_workload(name, tmp_path):
    tracer, rnd = trace_once(SMALL[name], 3, tmp_path)
    seen = {s.name for s in tracer.spans}
    assert EXPECTED_SPANS[name] <= seen, EXPECTED_SPANS[name] - seen
    assert all(cell.error is None for cell in rnd.cells)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_counts_repeat_exactly_for_a_seed(name, tmp_path):
    first, _ = trace_once(SMALL[name], 5, tmp_path)
    second, _ = trace_once(SMALL[name], 5, tmp_path)
    counts = [
        {k: t.metrics([])[k] for k in tracing.COUNT_METRICS} for t in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["allocator.outer_iterations"] > 0


def test_wrappers_cover_every_binding_and_are_removed(tmp_path):
    original = pairing.pair_users
    assert bench.pair_users is original and allocator.pair_users is original
    tracer = tracing.Tracer()
    with tracer.installed():
        assert pairing.pair_users is not original
        assert bench.pair_users is pairing.pair_users is allocator.pair_users
    for (module_name, fn), _ in tracing.SPANS.items():
        assert not hasattr(getattr(sys.modules[module_name], fn), "__wrapped__")
    assert bench.pair_users is original and allocator.pair_users is original


def test_self_time_excludes_child_spans(tmp_path):
    tracer, rnd = trace_once(SMALL["large-cell"], 3, tmp_path)
    metrics = tracer.metrics([("traced/", rnd.wall_s)])
    layer_total = sum(metrics[name] for name in tracing.TIME_METRICS)
    root_total = sum(s.duration for s in tracer.spans if s.parent is None)
    assert layer_total == pytest.approx(root_total, rel=1e-9)
    assert 0.0 <= metrics["trace.unattributed_s"] < 0.1 * rnd.wall_s


def test_checks_catch_wrong_costs_boxes_and_resolutions():
    params, topology = workloads._paired(50, 7)
    report = allocator.allocate(params, topology)
    assert checks.check_report(params, report) == []

    report.costs.objective += 1e-3
    assert any("objective" in p for p in checks.check_report(params, report))
    report.costs = model.evaluate(params, topology, report.allocation)

    report.allocation.resolution_px[0] = 200.0
    assert any("discrete set" in p for p in checks.check_report(params, report))
    report.allocation.resolution_px[0] = 160.0

    report.allocation.power_w[0] = 2 * params.p_max_w
    assert any("power" in p for p in checks.check_report(params, report))


def _run(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_declared_metric(trace, section):
    done = _run("--workload", "paper-sweep", "--seed", "2", "--seconds", "0", "--trace", trace, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "large-cell", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
