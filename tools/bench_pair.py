"""Summarise paired perfbench runs as a ``BENCH_<name>_{parent,change}.json`` pair.

``perfbench/run.py`` writes one record per run to the ``.bench_out/``
directory of the checkout it runs in, named
``result-<workload>-seed<n>-trace<t>.json``. Given a parent checkout and a
change checkout that ran the same seeds, this writes one file per side:

- per workload, the seeds, the summed ``attempted`` and ``failed`` counts,
  every run's CSV digest, and for each end-to-end metric of
  ``BENCHMARK.json`` its median, its quartiles (inclusive method) and every
  run's value, all from the untraced runs (``--trace 0``);
- the per-layer metrics of the traced run (``--trace 1``) of seed
  ``TRACED_SEED`` per workload.

Untraced runs are made with ``--seconds`` set to the ``run_seconds`` of
``BENCHMARK.json``; a record whose timed rounds took less stops the script.

It then prints, per workload, each side's failed and attempted operations
and whether every run was correct, ``worse`` when the change fails a larger
share or has a run that is not correct (``failures``); and per workload and
metric, both medians, their ratio, the number of pairs the change won,
pairs matched by seed, and the verdict of the benchmark's rule under the
metric's ``bound`` (``verdict``). Every record of a side must come from the
same source tree, so stale records of an earlier tree stop the script
instead of entering the summary.

    python3 tools/bench_pair.py --name lean_pass \\
        --parent ../parent --change . \\
        --workload paper-sweep=901-910 --workload large-cell=911-920
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACED_SEED = 1


def _seeds(text: str) -> list[int]:
    """'901-910' or '1,4,7' or a mix of both, in the order given."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def _record(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    path = checkout / ".bench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        sys.exit(f"error: no record {path}")


def _digest(record: dict) -> list[str]:
    """The run's CSV digest, or nothing for a workload that writes no CSV;
    every round of a run must have written the same CSV."""
    digests = sorted(set(record.get("csv_sha256") or []))
    if len(digests) > 1:
        sys.exit(f"error: {record['meta']} wrote {len(digests)} different CSVs")
    return digests


def _summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "runs": values}


def side_summary(
    checkout: Path, side: str, workloads: dict[str, list[int]], run_seconds: float,
    metrics: list[str], description: str,
) -> dict:
    meta = None
    summary: dict = {}
    for workload, seeds in workloads.items():
        runs = [_record(checkout, workload, seed, 0) for seed in seeds]
        for record in runs:
            wall_s = float(re.search(r" in ([0-9.]+) s ", record["notes"]["cells_per_s"])[1])
            if wall_s < run_seconds:
                sys.exit(f"error: {record['meta']} ran {wall_s:g} s, under {run_seconds:g} s")
        traced = _record(checkout, workload, TRACED_SEED, 1)
        for record in [*runs, traced]:
            fields = {k: record["meta"][k] for k in ("git_sha", "src_sha256")}
            if meta is None:
                meta = {**fields, "host": record["meta"]}
            elif fields != {k: meta[k] for k in fields}:
                sys.exit(
                    f"error: {side} records of {workload} come from different trees: "
                    f"{fields} against {meta['src_sha256']}"
                )
        summary[workload] = {
            "seeds": seeds,
            "run_seconds": run_seconds,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "csv_sha256": [d for r in runs for d in _digest(r)],
            "end_to_end": {
                name: _summary(
                    [r["metrics"][name]["value"] for r in runs], runs[0]["metrics"][name]["unit"]
                )
                for name in metrics
            },
            "per_layer": {
                "seed": TRACED_SEED,
                "failed": traced["failed"],
                "metrics": traced["metrics"],
            },
        }
    host = meta["host"]
    return {
        "description": description,
        "side": side,
        "git_sha": meta["git_sha"],
        "src_sha256": meta["src_sha256"],
        "host": {k: host[k] for k in ("python", "numpy", "nproc", "cpus_usable")},
        "workloads": summary,
    }


def _wins(base: dict, stats: dict, sign: float) -> int:
    """Pairs the change won, runs matched by seed; a tie counts for neither."""
    return sum(sign * (c - p) > 0 for c, p in zip(stats["runs"], base["runs"]))


def verdict(base: dict, stats: dict, metric: dict) -> str:
    """The benchmark's rule on one metric, ``base`` and ``stats`` being the
    parent's and the change's summaries and ``metric`` its BENCHMARK.json
    entry, whose ``bound`` is relative to the parent's median:

    - ``unresolved`` when the parent's quartile spread exceeds the bound,
      unless every change run beats every parent run;
    - else ``worse`` when the change's median is worse by more than the bound;
    - else ``gain`` when the change wins at least 9 pairs in 10 and the
      medians differ by more than the parent's quartile spread;
    - else ``holds``.
    """
    sign = 1.0 if metric["better"] == "higher" else -1.0
    allowed = metric["bound"] * abs(base["median"])
    spread = base["q3"] - base["q1"]
    gained = sign * (stats["median"] - base["median"])
    beaten = min(sign * c for c in stats["runs"]) > max(sign * p for p in base["runs"])
    if spread > allowed and not beaten:
        return "unresolved"
    if -gained > allowed:
        return "worse"
    if 10 * _wins(base, stats, sign) >= 9 * len(stats["runs"]) and gained > spread:
        return "gain"
    return "holds"


def failures(workload: str, base: dict, ours: dict) -> str:
    """Both sides' summed ``failed/attempted`` and ``correct`` of one
    workload: ``worse`` when the change fails a larger share of its
    operations, or when any of its runs is not correct."""
    # failed / attempted compared by cross-multiplying, so 0 attempted divides nothing
    larger = ours["failed"] * base["attempted"] > base["failed"] * ours["attempted"]
    sides = "  ".join(
        f"{side} {s['failed']}/{s['attempted']} failed, correct {s['correct']}"
        for side, s in (("parent", base), ("change", ours))
    )
    worse = larger or not ours["correct"]
    return f"{workload:12s} {'failures':20s} {sides}  {'worse' if worse else 'holds'}"


def compare(parent: dict, change: dict, declared: dict[str, dict]) -> list[str]:
    """Per workload, its failures line, then one line per metric: medians,
    ratio, pairs the change won and the verdict; ``declared`` maps each
    metric to its entry in BENCHMARK.json."""
    lines = []
    for workload, ours in change["workloads"].items():
        theirs = parent["workloads"][workload]
        lines.append(failures(workload, theirs, ours))
        for name, stats in ours["end_to_end"].items():
            base = theirs["end_to_end"][name]
            metric = declared[name]
            wins = _wins(base, stats, 1.0 if metric["better"] == "higher" else -1.0)
            ratio = stats["median"] / base["median"] if base["median"] else float("nan")
            lines.append(
                f"{workload:12s} {name:20s} parent {base['median']:.6g} "
                f"[{base['q1']:.6g}, {base['q3']:.6g}]  change {stats['median']:.6g} "
                f"[{stats['q1']:.6g}, {stats['q3']:.6g}]  ratio {ratio:.4f}  "
                f"change better in {wins}/{len(stats['runs'])}  "
                f"{verdict(base, stats, metric)}"
            )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--name", required=True, help="the pair is BENCH_<name>_{parent,change}.json"
    )
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument(
        "--workload", action="append", required=True, metavar="NAME=SEEDS",
        help="a workload and its untraced seeds, e.g. paper-sweep=901-910; repeatable",
    )
    parser.add_argument("--out", type=Path, default=ROOT, help="directory to write the pair to")
    args = parser.parse_args(argv)

    workloads = {}
    for item in args.workload:
        name, _, seeds = item.partition("=")
        workloads[name] = _seeds(seeds)
        if len(workloads[name]) < 2:
            parser.error(f"{name}: quartiles need at least two seeds")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = benchmark["end_to_end"]
    metrics = [m["name"] for m in declared]
    run_seconds = benchmark["run_seconds"]
    description = (
        f"perfbench/run.py end-to-end metrics over untraced runs (--trace 0, {run_seconds:g} s "
        "each, one per seed), given as the median and quartiles (inclusive method) with "
        "every run's value, plus the per-layer metrics of one traced run (--trace 1, "
        f"seed {TRACED_SEED}). "
        + " ".join(f"{w} seeds {', '.join(map(str, s))}." for w, s in workloads.items())
    )
    sides = {
        side: side_summary(checkout, side, workloads, run_seconds, metrics, description)
        for side, checkout in (("parent", args.parent), ("change", args.change))
    }
    for side, summary in sides.items():
        path = args.out / f"BENCH_{args.name}_{side}.json"
        path.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"wrote {path}")
    print("\n".join(compare(sides["parent"], sides["change"], {m["name"]: m for m in declared})))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
