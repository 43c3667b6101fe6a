"""fedmar benchmark: one workload per run, whole rounds for --seconds.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the library is imported from its
``src/``. ``--trace 0`` times untraced rounds and prints the end-to-end
metrics; ``--trace 1`` runs one traced set-up and one traced round between
two untraced rounds, whatever ``--seconds`` says, and prints the per-layer
metrics. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md
beside this file.
"""

import os

# One thread everywhere: the library runs single-threaded, and BLAS pools
# would only add noise on a small shared machine. Set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "cell_p50_s": "s",
    "cell_p90_s": "s",
    "neg_objective_mean": "1",
    "ok_frac": "1",
    "unflagged_frac": "1",
    "peak_rss_mb": "MiB",
}


def _git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class Tally:
    """Checks every cell of every round and accumulates the counts.

    ``scale`` converts a round's wall times to the reference machine speed
    (see calibration.py); raw times are kept alongside for the notes."""

    def __init__(self, check_report) -> None:
        self._check = check_report
        self.attempted = 0
        self.failed = 0
        self.flagged = 0
        self.times: list[float] = []
        self.raw_times: list[float] = []
        self.round_p90s: list[float] = []
        self.wall_s = 0.0
        self.scaled_wall_s = 0.0
        self.rounds = 0
        self.objectives: dict[str, float] = {}
        self.digests: list[str] = []
        self.problems: list[tuple[str, list[str]]] = []

    def add(self, rnd, scale: float | None = None) -> None:
        """Check a round; time it too unless ``scale`` is None."""
        self.rounds += 1
        digest_ok = True
        passed = []
        if rnd.csv_sha256 is not None:
            self.digests.append(rnd.csv_sha256)
            digest_ok = rnd.csv_sha256 == self.digests[0]
        for cell in rnd.cells:
            problems = [cell.error] if cell.error else []
            for params, report in cell.reports:
                problems += self._check(params, report)
            cell.reports.clear()
            if cell.objective is not None:
                first = self.objectives.setdefault(cell.key, cell.objective)
                if first != cell.objective:
                    problems.append(f"objective {cell.objective!r}, first run gave {first!r}")
            if not digest_ok:
                problems.append("result CSV differs from the first round's")
            self.attempted += 1
            self.flagged += cell.flagged
            if problems:
                self.failed += 1
                self.problems.append((cell.key, problems))
            elif scale is not None:
                passed.append(cell.time_s * scale)
                self.raw_times.append(cell.time_s)
        if scale is not None:
            self.times += passed
            if len(passed) >= 2:
                self.round_p90s.append(_p90(passed))
            self.wall_s += rnd.wall_s
            self.scaled_wall_s += rnd.wall_s * scale

    @property
    def correct(self) -> bool:
        return self.failed == 0 and len(set(self.digests)) <= 1


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Speed:
    """Calibration readings taken between timed stretches of work."""

    def __init__(self, calibration) -> None:
        self._measure = calibration.seconds
        self.reference_s = calibration.REFERENCE_S
        self.readings = [self._measure()]

    def scale(self) -> float:
        """Factor to the reference speed for the work done since the last
        reading: the reference time over the mean of the readings taken
        just before and just after it."""
        self.readings.append(self._measure())
        mean = (self.readings[-2] + self.readings[-1]) / 2.0
        return self.reference_s / mean


def _timed_run(workload, seed: int, seconds: float, import_s: float, workdir: Path, tally, speed):
    import_scale = speed.reference_s / speed.readings[0]
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        inputs = workload.make_inputs(seed, workdir)
        workload.warm_up(inputs)
        raw_setups.append(perf_counter() - start)
        setups.append(raw_setups[-1] * speed.scale())
    while tally.rounds == 0 or tally.wall_s < seconds:
        rnd = workload.run_round(inputs)
        tally.add(rnd, speed.scale())
    if not tally.times:
        raise RuntimeError(f"no cell passed its checks; first failure: {tally.problems[0]}")
    times, raw = tally.times, tally.raw_times
    objectives = list(tally.objectives.values())
    passed = len(times)
    metrics = {
        "setup_s": import_s * import_scale + statistics.median(setups),
        "cells_per_s": passed / tally.scaled_wall_s,
        "cell_p50_s": statistics.median(times),
        "cell_p90_s": statistics.median(tally.round_p90s),
        "neg_objective_mean": -statistics.fmean(objectives),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "unflagged_frac": 1.0 - tally.flagged / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_round = passed // tally.rounds
    beyond = per_round - int(0.9 * per_round)
    notes = {
        "setup_s": f"raw: import {import_s:.4f} s + median of set-ups {[round(s, 4) for s in raw_setups]}",
        "cells_per_s": f"raw: {passed} cells in {tally.wall_s:.3f} s over {tally.rounds} rounds = {passed / tally.wall_s:.4g}",
        "cell_p50_s": f"n={passed}; raw {statistics.median(raw):.4g}",
        "cell_p90_s": f"median over {len(tally.round_p90s)} rounds of the round's p90 (n={per_round}, {beyond} beyond); p90 of all {passed}: {_p90(times):.4g}, raw {_p90(raw):.4g}",
        "neg_objective_mean": f"minus the mean proposed objective of {len(objectives)} distinct cells",
        "ok_frac": f"error_frac {tally.failed / tally.attempted:g} ({tally.failed} of {tally.attempted})",
        "unflagged_frac": f"flagged_frac {tally.flagged / tally.attempted:g} ({tally.flagged} of {tally.attempted})",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return metrics, {name: END_TO_END_UNITS[name] for name in metrics}, notes


def _traced_run(workload, seed: int, workdir: Path, tally, speed, tracing):
    tracer = tracing.Tracer()
    with tracer.installed():
        inputs = workload.make_inputs(seed, workdir)
    workload.warm_up(inputs)
    speed.scale()  # only takes the reading that opens the first round
    before = workload.run_round(inputs)
    before_scale = speed.scale()
    tracer.cell = "traced/"
    with tracer.installed():
        traced = workload.run_round(inputs, tracer, "traced/")
    traced_scale = speed.scale()
    after = workload.run_round(inputs)
    after_scale = speed.scale()
    for rnd in (before, traced, after):
        tally.add(rnd)
    untraced = (before.wall_s * before_scale + after.wall_s * after_scale) / 2.0
    metrics = tracer.metrics([("traced/", traced.wall_s)])
    metrics["trace.overhead_frac"] = (traced.wall_s * traced_scale - untraced) / untraced
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    units = {
        name: ("count" if name in tracing.COUNT_METRICS else "1" if name.endswith("_frac") else "s")
        for name in metrics
    }
    notes = {
        "trace.overhead_frac": f"at reference speed: traced round {traced.wall_s * traced_scale:.4f} s, untraced {before.wall_s * before_scale:.4f} s and {after.wall_s * after_scale:.4f} s",
        "trace.unattributed_s": f"of a {traced.wall_s:.4f} s traced round; {len(tracer.spans)} spans in {spans_path.name}",
    }
    return metrics, units, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fedmar" / "__init__.py").is_file():
        print(f"error: no fedmar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import fedmar.cli  # noqa: F401  (imports every fedmar module)

    import_s = perf_counter() - start
    import numpy

    import calibration
    import checks
    import tracing
    import workloads

    if Path(fedmar.cli.__file__).resolve().parents[2] != ROOT:
        print(f"error: fedmar imported from {fedmar.cli.__file__}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    tally = Tally(checks.check_report)
    speed = Speed(calibration)
    try:
        if args.trace:
            metrics, units, notes = _traced_run(workload, args.seed, workdir, tally, speed, tracing)
        else:
            metrics, units, notes = _timed_run(
                workload, args.seed, args.seconds, import_s, workdir, tally, speed
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **workload.describe(),
        "rounds": tally.rounds,
        "cells": tally.attempted,
    }
    print("meta " + json.dumps(meta))
    readings = sorted(speed.readings)
    print(
        f"calibration {statistics.median(readings):.5f} s median, {readings[0]:.5f}..{readings[-1]:.5f}"
        f" over {len(readings)} readings; reference {speed.reference_s} s"
    )
    if tally.digests:
        print(f"csv_sha256 {tally.digests[0]} ({len(set(tally.digests))} distinct over {len(tally.digests)} rounds)")
    for name, value in metrics.items():
        note = notes.get(name)
        print(f"{name} {value!r} {units[name]}" + (f"  ({note})" if note else ""))
    for key, problems in tally.problems[:3]:
        print(f"failed cell {key}:\n  " + "\n  ".join(problems), file=sys.stderr)

    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = {
        "meta": meta,
        **result,
        "notes": notes,
        "csv_sha256": sorted(set(tally.digests)),
        "calibration_s": speed.readings,
    }
    suffix = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{suffix}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
