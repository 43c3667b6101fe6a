"""Experiment front-end: config parsing, seeded sweeps, result emission.

Configuration is a flat ``key = value`` text file in the usual radio units
(dBm, dB, MHz, kbits); everything is converted to SI once, at load time.
Sweeps are deterministic: topology, shadow fading, random pairing and the
random baseline all derive from the per-run master seed, and cells run one
after another in a fixed order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, TextIO

from . import allocator, model
from .allocator import SolveConfig, SolveReport
from .model import Device, ParamsError, SystemParams, UnreachableDeviceError
from .pairing import (
    DeviceParamRanges,
    PairingScheme,
    TopologyConfig,
    pair_users,
    sample_topology,
)
from .sp2 import DeadlineInfeasibleError

JSON_SCHEMA = "fedmar-results/1"
SWEEP_VARIABLES = ("p_max_dbm", "f_max_ghz", "gamma")
ALGORITHMS = ("proposed", "random", "greedy")
PAIRING_CHOICES = ("random", "nearest", "nearest-farthest", "best")

_CSV_FIELDS = (
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
)
CSV_HEADER = ",".join(_CSV_FIELDS)
# the per-row metrics that summary rows average over seeds
_MEAN_FIELDS = ("energy_j", "time_s", "accuracy", "weighted_energy_time", "objective")


class ConfigError(ValueError):
    """A configuration file could not be interpreted."""


@dataclass
class ResultRow:
    """One experiment outcome. ``wall_time_s`` is informational only and is
    never written to result files, which must be byte-reproducible."""

    seed: int | str
    sweep_variable: str
    sweep_value: float
    algorithm: str
    pairing: str
    alpha: float
    beta: float
    gamma: float
    energy_j: float
    time_s: float
    accuracy: float
    weighted_energy_time: float
    objective: float
    resolutions: str
    converged: str
    flag: str
    wall_time_s: float = 0.0


@dataclass(frozen=True)
class ExperimentSpec:
    params: SystemParams = SystemParams()
    topology: TopologyConfig = TopologyConfig()
    ranges: DeviceParamRanges = DeviceParamRanges()
    sweep_variable: str = "p_max_dbm"
    sweep_values: tuple[float, ...] = (6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0)
    weights: tuple[tuple[float, float, float], ...] = ((0.5, 0.5, 1.0),)
    seeds: tuple[int, ...] = (1,)
    algorithms: tuple[str, ...] = ALGORITHMS
    pairing: str = "best"
    solve: SolveConfig = SolveConfig()
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ConfigError(f"unknown sweep variable {self.sweep_variable!r}")
        if not self.sweep_values:
            raise ConfigError("sweep needs at least one value")
        if any(b <= a for a, b in zip(self.sweep_values, self.sweep_values[1:])):
            raise ConfigError("sweep values must be strictly increasing")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if not self.weights:
            raise ConfigError("need at least one weight triple")
        if any(alpha <= 0.0 for alpha, _, _ in self.weights):
            # the power and frequency solves price energy by alpha
            raise ConfigError("key 'weights': the energy weight alpha must be positive")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {algo!r}")
        if self.pairing not in PAIRING_CHOICES:
            raise ConfigError(f"unknown pairing {self.pairing!r}")
        if self.jobs != 1:
            # cells run in one thread: a thread pool was slower, as the
            # solves hold the GIL
            raise ConfigError(f"key 'jobs': only 1 is accepted, got {self.jobs}")
        # every cell's parameters must be buildable before the sweep starts;
        # the base parameters are valid, so the sweep values are checked
        # against them first and any later failure is the weight triple's
        for value in self.sweep_values:
            try:
                replace(self.params, **_swept(self.sweep_variable, value))
            except ValueError as exc:
                raise ConfigError(
                    f"key 'sweep_values': {self.sweep_variable} = {value:g}: {exc}"
                ) from exc
        for weights in self.weights:
            for value in self.sweep_values:
                try:
                    cell_params(self, value, weights)
                except ValueError as exc:
                    triple = ",".join(f"{w:g}" for w in weights)
                    raise ConfigError(f"key 'weights': triple {triple}: {exc}") from exc


_SCALAR_KEYS = {
    "users": int,
    "channels": int,
    "bandwidth_mhz": float,
    "noise_dbm_per_hz": float,
    "p_min_dbm": float,
    "p_max_dbm": float,
    "f_min_ghz": float,
    "f_max_ghz": float,
    "kappa": float,
    "local_iterations": float,
    "std_resolution_px": float,
    "upload_kbits": float,
    "samples": float,
    "cycles_low": float,
    "cycles_high": float,
    "cell_radius_km": float,
    "min_distance_km": float,
    "shadow_sigma_db": float,
    "outer_tolerance": float,
    "max_outer_iterations": int,
    "jobs": int,
}
_LIST_KEYS = {"resolutions_px": float, "sweep_values": float, "seeds": int}
_STRING_KEYS = {"sweep", "pairing"}
_WORDLIST_KEYS = {"algorithms"}


def _parse_number(key: str, text: str, kind):
    try:
        return kind(text)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {text!r} as {kind.__name__}") from exc


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines; '#' starts a comment."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key in _SCALAR_KEYS:
            values[key] = _parse_number(key, rhs, _SCALAR_KEYS[key])
        elif key in _LIST_KEYS:
            kind = _LIST_KEYS[key]
            values[key] = tuple(_parse_number(key, tok, kind) for tok in rhs.split())
        elif key in _STRING_KEYS:
            values[key] = rhs
        elif key in _WORDLIST_KEYS:
            values[key] = tuple(rhs.split())
        elif key == "weights":
            triples = []
            for token in rhs.split():
                parts = token.split(",")
                if len(parts) != 3:
                    raise ConfigError(
                        f"key 'weights': expected alpha,beta,gamma triples, got {token!r}"
                    )
                triples.append(tuple(_parse_number("weights", p, float) for p in parts))
            values[key] = tuple(triples)
        else:
            raise ConfigError(f"unknown configuration key {key!r}")
    return values


# the configuration key that sets each checked field of SystemParams,
# TopologyConfig, DeviceParamRanges and SolveConfig
_FIELD_KEYS = {
    "total_bandwidth_hz": "bandwidth_mhz",
    "channel_count": "channels",
    "noise_psd_w_per_hz": "noise_dbm_per_hz",
    "switched_capacitance": "kappa",
    "local_iterations": "local_iterations",
    "std_resolution_px": "std_resolution_px",
    "resolution_set_px": "resolutions_px",
    "weight_energy": "weights",
    "weight_time": "weights",
    "weight_accuracy": "weights",
    "p_min_w": "p_min_dbm",
    "p_max_w": "p_max_dbm",
    "f_min_hz": "f_min_ghz",
    "f_max_hz": "f_max_ghz",
    "user_count": "users",
    "cell_radius_km": "cell_radius_km",
    "min_distance_km": "min_distance_km",
    "shadow_sigma_db": "shadow_sigma_db",
    "cycles_low": "cycles_low",
    "cycles_high": "cycles_high",
    "sample_count": "samples",
    "upload_bits": "upload_kbits",
    "outer_tolerance": "outer_tolerance",
    "max_outer_iterations": "max_outer_iterations",
}


def _keyed(build, **fields):
    """``build(**fields)``, naming the configuration keys of a failed check."""
    try:
        return build(**fields)
    except ParamsError as exc:
        keys = dict.fromkeys(_FIELD_KEYS[f] for f in exc.fields)
        label = "key" if len(keys) == 1 else "keys"
        raise ConfigError(f"{label} {', '.join(map(repr, keys))}: {exc}") from exc


def spec_from_values(values: dict) -> ExperimentSpec:
    """Build a spec from parsed values; anything missing keeps its default."""
    s1, s2, s3 = values.get("resolutions_px", (160.0, 320.0, 640.0))
    # the weights stay at their defaults here: cell_params sets each triple,
    # and ExperimentSpec rejects a bad one by key
    params = _keyed(
        SystemParams,
        total_bandwidth_hz=values.get("bandwidth_mhz", 20.0) * 1e6,
        channel_count=values.get("channels", 25),
        noise_psd_w_per_hz=model.dbm_to_watts(values.get("noise_dbm_per_hz", -174.0)),
        switched_capacitance=values.get("kappa", 1e-28),
        local_iterations=values.get("local_iterations", 10.0),
        std_resolution_px=values.get("std_resolution_px", 100.0),
        resolution_set_px=(s1, s2, s3),
        p_min_w=model.dbm_to_watts(values.get("p_min_dbm", 0.0)),
        p_max_w=model.dbm_to_watts(values.get("p_max_dbm", 12.0)),
        f_min_hz=values.get("f_min_ghz", 0.001) * 1e9,
        f_max_hz=values.get("f_max_ghz", 2.0) * 1e9,
    )
    topology = _keyed(
        TopologyConfig,
        user_count=values.get("users", 50),
        channel_count=values.get("channels", 25),
        cell_radius_km=values.get("cell_radius_km", 0.5),
        min_distance_km=values.get("min_distance_km", 0.01),
        shadow_sigma_db=values.get("shadow_sigma_db", 8.0),
    )
    ranges = _keyed(
        DeviceParamRanges,
        cycles_low=values.get("cycles_low", 1e4),
        cycles_high=values.get("cycles_high", 3e4),
        sample_count=values.get("samples", 500.0),
        upload_bits=values.get("upload_kbits", 28.1) * 1e3,
    )
    solve = _keyed(
        SolveConfig,
        outer_tolerance=values.get("outer_tolerance", 1e-4),
        max_outer_iterations=values.get("max_outer_iterations", 50),
    )
    return ExperimentSpec(
        params=params,
        topology=topology,
        ranges=ranges,
        sweep_variable=values.get("sweep", "p_max_dbm"),
        sweep_values=values.get("sweep_values", (6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0)),
        weights=values.get("weights", ((0.5, 0.5, 1.0),)),
        seeds=values.get("seeds", (1,)),
        algorithms=values.get("algorithms", ALGORITHMS),
        pairing=values.get("pairing", "best"),
        solve=solve,
        jobs=values.get("jobs", 1),
    )


def load_config(path: str | Path) -> ExperimentSpec:
    return spec_from_values(parse_config_text(Path(path).read_text()))


def cell_params(
    spec: ExperimentSpec, sweep_value: float, weights: tuple[float, float, float]
) -> SystemParams:
    """Base parameters specialized to one sweep point and weight triple.

    A gamma sweep overrides the triple's own gamma with the sweep value.
    """
    alpha, beta, gamma = weights
    fields = {"weight_energy": alpha, "weight_time": beta, "weight_accuracy": gamma}
    fields.update(_swept(spec.sweep_variable, sweep_value))
    return replace(spec.params, **fields)


def _swept(sweep_variable: str, sweep_value: float) -> dict:
    """The ``SystemParams`` field a sweep point sets, in SI units."""
    if sweep_variable == "p_max_dbm":
        return {"p_max_w": model.dbm_to_watts(sweep_value)}
    if sweep_variable == "f_max_ghz":
        return {"f_max_hz": sweep_value * 1e9}
    return {"weight_accuracy": sweep_value}


def _format_resolutions(resolutions) -> str:
    return "|".join(f"{r:g}" for r in resolutions)


def _result_row(
    report: SolveReport | None,
    *,
    seed: int,
    spec: ExperimentSpec,
    sweep_value: float,
    params: SystemParams,
    algorithm: str,
    pairing_label: str,
    flag: str = "",
) -> ResultRow:
    """One run's row. A run that raised has no report: its metrics are NaN
    and ``flag`` names the failure. A solved run is flagged only when it
    is rate-infeasible."""
    if report is None:
        metrics = (float("nan"),) * len(_MEAN_FIELDS)
        outcome = {"resolutions": "", "converged": "no", "flag": flag}
    else:
        c = report.costs
        metrics = (
            c.total_energy_j, c.total_time_s, c.total_accuracy, c.weighted_energy_time, c.objective
        )
        outcome = {
            "resolutions": _format_resolutions(report.allocation.resolution_px),
            "converged": "yes" if report.converged else "no",
            "flag": "" if report.feasible else "rate-infeasible",
            "wall_time_s": report.wall_time_s,
        }
    return ResultRow(
        seed=seed,
        sweep_variable=spec.sweep_variable,
        sweep_value=sweep_value,
        algorithm=algorithm,
        pairing=pairing_label,
        alpha=params.weight_energy,
        beta=params.weight_time,
        gamma=params.weight_accuracy,
        **dict(zip(_MEAN_FIELDS, metrics)),
        **outcome,
    )


def baseline_scheme(pairing: str) -> PairingScheme:
    """The scheme of a run on one fixed topology: ``best`` falls back to nearest."""
    return PairingScheme.NEAREST_USER if pairing == "best" else PairingScheme(pairing)


def solve_proposed(
    spec: ExperimentSpec, params: SystemParams, devices: Device, gains, seed: int
) -> SolveReport:
    """The proposed solve of one sampled cell under the configured pairing:
    every scheme, keeping the best, for ``best``; the named scheme otherwise.
    The report's scheme is always set."""
    config = replace(spec.solve, rng_seed=seed)
    if spec.pairing == "best":
        return allocator.allocate_best_pairing(params, devices, gains, config)
    scheme = PairingScheme(spec.pairing)
    topology = pair_users(params, devices, gains, scheme, rng_seed=seed)
    report = allocator.allocate(params, topology, config)
    report.scheme = scheme
    return report


def run_cell(
    spec: ExperimentSpec, sweep_value: float, weights: tuple[float, float, float], seed: int
) -> list[ResultRow]:
    """Run every requested algorithm on one (sweep value, weights, seed)
    cell. Baselines reuse the pairing chosen for the proposed run so all
    algorithms see the same channel structure."""
    params = cell_params(spec, sweep_value, weights)
    topo_config = replace(spec.topology, rng_seed=seed)
    devices, gains = sample_topology(topo_config, spec.ranges)

    reports: dict[str, tuple[SolveReport | None, str, str]] = {}
    baseline_topology = None
    baseline_label = spec.pairing

    if "proposed" in spec.algorithms:
        try:
            report = solve_proposed(spec, params, devices, gains, seed)
            label = report.scheme.value
            reports["proposed"] = (report, label, "")
            baseline_topology = report.topology
            baseline_label = label
        except (UnreachableDeviceError, DeadlineInfeasibleError) as exc:
            reports["proposed"] = (None, spec.pairing, _flag_of(exc))

    if baseline_topology is None:
        scheme = baseline_scheme(spec.pairing)
        baseline_topology = pair_users(params, devices, gains, scheme, rng_seed=seed)
        baseline_label = scheme.value

    for algo in ("random", "greedy"):
        if algo not in spec.algorithms:
            continue
        try:
            if algo == "random":
                report = allocator.random_baseline(params, baseline_topology, seed)
            else:
                report = allocator.greedy_baseline(params, baseline_topology)
            reports[algo] = (report, baseline_label, "")
        except (UnreachableDeviceError, DeadlineInfeasibleError) as exc:
            reports[algo] = (None, baseline_label, _flag_of(exc))

    rows = []
    for algo in spec.algorithms:
        if algo not in reports:
            continue
        report, label, flag = reports[algo]
        rows.append(
            _result_row(
                report,
                seed=seed,
                spec=spec,
                sweep_value=sweep_value,
                params=params,
                algorithm=algo,
                pairing_label=label,
                flag=flag,
            )
        )
    return rows


def _flag_of(exc: Exception) -> str:
    if isinstance(exc, UnreachableDeviceError):
        return "unreachable"
    return "deadline-infeasible"


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def summarize(rows: list[ResultRow]) -> list[ResultRow]:
    """Seed-averaged summary rows, one per (sweep value, weights, algorithm),
    in first-appearance order. Flagged rows are counted, not averaged."""
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        key = (row.sweep_value, row.alpha, row.beta, row.gamma, row.algorithm)
        groups.setdefault(key, []).append(row)
    summary = []
    for key, members in groups.items():
        clean = [r for r in members if not r.flag]
        flagged = len(members) - len(clean)
        template = members[0]
        vals = {
            name: _mean([getattr(r, name) for r in clean]) if clean else float("nan")
            for name in _MEAN_FIELDS
        }
        summary.append(
            ResultRow(
                seed="mean",
                sweep_variable=template.sweep_variable,
                sweep_value=template.sweep_value,
                algorithm=template.algorithm,
                pairing=template.pairing,
                alpha=template.alpha,
                beta=template.beta,
                gamma=template.gamma,
                resolutions="",
                converged="",
                flag=f"flagged={flagged}" if flagged else "",
                **vals,
            )
        )
    return summary


def run_experiment(
    spec: ExperimentSpec,
    out_path: str | Path | None = None,
    fmt: str = "csv",
) -> list[ResultRow]:
    """Run the whole sweep; rows come back in deterministic order
    (sweep value, weight triple, seed, algorithm) with seed-mean summary
    rows appended. CSV output is written incrementally as cells finish."""
    cells = [
        (value, weights, seed)
        for value in spec.sweep_values
        for weights in spec.weights
        for seed in spec.seeds
    ]

    stream: TextIO | None = None
    if out_path is not None and fmt == "csv":
        stream = open(out_path, "w", encoding="utf-8")
        stream.write(CSV_HEADER + "\n")

    rows: list[ResultRow] = []
    try:
        for cell in cells:
            cell_rows = run_cell(spec, *cell)
            rows.extend(cell_rows)
            if stream is not None:
                for row in cell_rows:
                    stream.write(format_csv_row(row) + "\n")
                stream.flush()
        summary = summarize(rows)
        rows.extend(summary)
        if stream is not None:
            for row in summary:
                stream.write(format_csv_row(row) + "\n")
    finally:
        if stream is not None:
            stream.close()

    if out_path is not None and fmt == "json":
        Path(out_path).write_text(rows_to_json(rows))
    return rows


def _fmt_number(x: float) -> str:
    return f"{x:.9g}"


_NUMERIC_FIELDS = {
    "sweep_value",
    "alpha",
    "beta",
    "gamma",
    "energy_j",
    "time_s",
    "accuracy",
    "weighted_energy_time",
    "objective",
}


def format_csv_row(row: ResultRow) -> str:
    parts = []
    for name in _CSV_FIELDS:
        value = getattr(row, name)
        parts.append(_fmt_number(value) if name in _NUMERIC_FIELDS else str(value))
    return ",".join(parts)


def rows_to_csv(rows: Iterable[ResultRow]) -> str:
    return "\n".join([CSV_HEADER, *(format_csv_row(r) for r in rows)]) + "\n"


def rows_to_json(rows: Iterable[ResultRow]) -> str:
    payload = {
        "schema": JSON_SCHEMA,
        "rows": [
            {
                name: (
                    float(_fmt_number(getattr(row, name)))
                    if name in _NUMERIC_FIELDS
                    else getattr(row, name)
                )
                for name in _CSV_FIELDS
            }
            for row in rows
        ],
    }
    return json.dumps(payload, indent=2, allow_nan=True) + "\n"


def rows_from_json(text: str) -> list[ResultRow]:
    payload = json.loads(text)
    if payload.get("schema") != JSON_SCHEMA:
        raise ConfigError(f"unsupported result schema {payload.get('schema')!r}")
    return [ResultRow(**entry) for entry in payload["rows"]]


def emit(rows: list[ResultRow], fmt: str, path: str | Path) -> None:
    """Write rows to a file; CSV keeps the documented column order, JSON
    wraps rows in a schema-versioned envelope."""
    if fmt == "csv":
        Path(path).write_text(rows_to_csv(rows))
    elif fmt == "json":
        Path(path).write_text(rows_to_json(rows))
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
