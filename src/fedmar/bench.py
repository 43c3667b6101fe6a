"""Experiment front-end: config parsing, seeded sweeps, result emission.

Configuration is a flat ``key = value`` text file in the usual radio units
(dBm, dB, MHz, kbits); everything is converted to SI once, at load time.
Sweeps are deterministic: topology, shadow fading, random pairing and the
random baseline all derive from the per-run master seed, and cells run one
after another in a fixed order.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable

import numpy as np

from . import allocator, model, sp1
from .allocator import SolveReport
from .model import ParamsError, SystemParams, UnreachableDeviceError
from .pairing import PairingScheme, TopologyConfig, pair_users, sample_topology

JSON_SCHEMA = "fedmar-results/1"
SWEEP_VARIABLES = ("p_max_dbm", "f_max_ghz", "gamma")
ALGORITHMS = ("proposed", "random", "greedy")
PAIRING_CHOICES = ("random", "nearest", "nearest-farthest", "best")

# the per-row metrics that summary rows average over seeds
_MEAN_FIELDS = ("energy_j", "time_s", "accuracy", "weighted_energy_time", "objective")


class ConfigError(ValueError):
    """A configuration file could not be interpreted."""


@dataclass
class ResultRow:
    """One experiment outcome, one line of a result file."""

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


# result files hold every ResultRow field, in field order, the floats at 9
# significant digits (annotations are strings here, under the __future__
# import)
_CSV_FIELDS = tuple(f.name for f in fields(ResultRow))
_NUMERIC_FIELDS = {f.name for f in fields(ResultRow) if f.type == "float"}
CSV_HEADER = ",".join(_CSV_FIELDS)


@dataclass(frozen=True)
class ExperimentSpec:
    params: SystemParams = SystemParams()
    topology: TopologyConfig = TopologyConfig()
    sweep_variable: str = "p_max_dbm"
    sweep_values: tuple[float, ...] = (6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0)
    weights: tuple[tuple[float, float, float], ...] = ((0.5, 0.5, 1.0),)
    seeds: tuple[int, ...] = (1,)
    algorithms: tuple[str, ...] = ALGORITHMS
    pairing: str = "best"

    def __post_init__(self) -> None:
        try:
            self._check()
        except ParamsError as exc:
            raise _naming_keys(exc) from exc

    def _check(self) -> None:
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise ParamsError(f"unknown sweep variable {self.sweep_variable!r}", "sweep_variable")
        if not self.sweep_values:
            raise ParamsError("sweep needs at least one value", "sweep_values")
        if any(b <= a for a, b in zip(self.sweep_values, self.sweep_values[1:])):
            raise ParamsError("sweep values must be strictly increasing", "sweep_values")
        if not self.seeds:
            raise ParamsError("need at least one seed", "seeds")
        if min(self.seeds) < 0:
            # numpy seeds its streams from non-negative integers only
            raise ParamsError("seeds must be non-negative", "seeds")
        if not self.weights:
            raise ParamsError("need at least one weight triple", "weights")
        if any(alpha <= 0.0 for alpha, _, _ in self.weights):
            # the power and frequency solves price energy by alpha
            raise ParamsError("the energy weight alpha must be positive", "weights")
        if not self.algorithms:
            raise ParamsError("need at least one algorithm", "algorithms")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ParamsError(f"unknown algorithm {algo!r}", "algorithms")
        # a repeat emits the same rows twice; a gamma sweep replaces each triple's gamma
        weights = [w[:2] if self.sweep_variable == "gamma" else w for w in self.weights]
        for key, entries in (("seeds", self.seeds), ("weights", weights), ("algorithms", self.algorithms)):
            if len(set(entries)) < len(entries):
                raise ParamsError("an entry is repeated, which would emit its rows twice", key)
        if self.pairing not in PAIRING_CHOICES:
            raise ParamsError(f"unknown pairing {self.pairing!r}", "pairing")
        if self.params.channel_count != self.topology.channel_count:
            raise ParamsError(
                f"{self.params.channel_count} channels in the cost model but "
                f"{self.topology.channel_count} in the topology",
                "channel_count",
            )
        # every cell must build, with its costs in the float range, before the sweep starts
        for weights in self.weights:
            for value in self.sweep_values:
                try:
                    params = cell_params(self, value, weights)
                except ValueError as exc:
                    # the base parameters are valid, so the sweep value is at
                    # fault when it alone breaks them, the triple otherwise
                    try:
                        replace(self.params, **_swept(self.sweep_variable, value))
                    except ValueError as swept_exc:
                        message = f"{self.sweep_variable} = {value:g}: {swept_exc}"
                        raise ParamsError(message, "sweep_values") from swept_exc
                    triple = ",".join(f"{w:g}" for w in weights)
                    raise ParamsError(f"triple {triple}: {exc}", "weights") from exc
                try:
                    _check_float_range(params, self.topology)
                except ParamsError as exc:
                    # the field the sweep sets takes its value from the sweep values
                    swept = _swept(self.sweep_variable, value)
                    fields = ["sweep_values" if f in swept else f for f in exc.fields]
                    raise ParamsError(f"{self.sweep_variable} = {value:g}: {exc}", *fields) from exc


_FINITE, _NORMAL = (0.0, sys.float_info.max), (sys.float_info.min, sys.float_info.max)


def _require(quantity, bounds: tuple[float, float], message: str, *fields: str) -> None:
    """Raise naming ``fields`` unless ``quantity`` lies in ``bounds`` (NaN lies in none)."""
    if not bounds[0] <= quantity <= bounds[1]:
        raise ParamsError(message, *fields)


@np.errstate(all="ignore")
def _check_float_range(params: SystemParams, topology: TopologyConfig) -> None:
    """A cell's costs must stay in the float range where the solvers form
    them: one ordered table of rows, each a quantity read from the kernel
    that forms it on the lightest or the heaviest device, its bounds, its
    message and the fields it reads. The first row out of bounds raises; a
    kernel runs once, when a row first reads it; an overflow gives inf."""
    (s1, _, s3), users = params.resolution_set_px, topology.user_count
    cycles = np.array([topology.cycles_low, topology.cycles_high])  # the lightest and the heaviest
    devices = SimpleNamespace(cycles_per_std_sample=cycles, sample_count=topology.sample_count)
    load = model.load(params, devices)
    shared = ("sample_count", "local_iterations", "std_resolution_px", "resolution_set_px")
    _require(load[0] * s1 * s1, (1.0, math.inf),
             "a round at s1 takes under one CPU cycle", "cycles_low", *shared)
    _require(load[1] * s3 * s3, _FINITE,
             "a round at s3 takes more CPU cycles than a float holds", "cycles_high", *shared)
    # sp1's frequency is (multiplier / (2 alpha kappa))**(1/3)
    _require(params.weight_energy * params.switched_capacitance, _NORMAL,
             "alpha times kappa is under the least normal float", "switched_capacitance", "weights")
    # sp1 prices the f_max bound by f_max cubed
    _require(np.float64(params.f_max_hz) ** 3, _FINITE,
             "f_max cubed is more than a float holds", "f_max_hz")
    heaviest = SimpleNamespace(cycles_per_std_sample=cycles[1], sample_count=topology.sample_count)
    frequencies = np.array([params.f_min_hz, params.f_max_hz])
    seconds, joules = model.computation_cost(params, heaviest, s3, frequencies)
    _require(users * joules[1], _FINITE,
             "every user's round at s3 and f_max takes more joules than a float holds",
             "switched_capacitance")
    _require(seconds[0], _FINITE,
             "a round at s3 and f_min takes more seconds than a float holds", "f_min_hz")
    # each accuracy is below 1, so this bounds the accuracy term
    _require(params.weight_accuracy * users, _FINITE,
             "gamma times the user count is more than a float holds", "weight_accuracy")
    coeffs = sp1.dual_coefficients(params, devices, np.zeros(2))
    _require(coeffs.curvature[0], _FINITE,
             "gamma overflows sp1's dual curvature", "weight_accuracy")
    # sp1's free-branch reach raises 3 pin_s3 / s3 to the 2.5
    _require((3.0 * coeffs.pin_s3[1] / s3) ** 2.5, _FINITE,
             "the cycles per sample overflow sp1's dual coefficients", "cycles_high")
    # a zero multiplier leaves sp1's least resolution denominator, at f_min
    _require(sp1.recover_primal(0.0, params, devices)[1][0], _FINITE,
             "sp1's resolution at f_min is past the float range",
             "f_min_hz", "switched_capacitance", "weights", "weight_accuracy")
    _require(params.subchannel_noise_w, _NORMAL, "the subchannel noise power is not a normal float",
             "total_bandwidth_hz", "noise_psd_w_per_hz", "channel_count")
    gain = topology.strongest_gain
    _require(model._pair_rates(params, gain, gain, params.p_max_w, 0.0)[0], _FINITE,
             "the strongest device's rate at p_max is more than a float holds", "p_max_w")
    # the least rate any solver forms: the weakest device decoded first, at
    # p_min, under a partner as weak at p_max; a zero rate is flagged unreachable
    gain = topology.weakest_gain
    rate = model._pair_rates(params, gain, gain, params.p_max_w, params.p_min_w)[1]
    if rate > 0.0:
        # finite only where the upload time is too
        _require(users * params.p_max_w * (topology.upload_bits / rate), _FINITE,
                 "every user's upload over the least rate takes more joules than a float holds",
                 "upload_bits", "total_bandwidth_hz")


def _number(kind):
    def parse(key: str, text: str):
        try:
            return kind(text)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {text!r} as {kind.__name__}") from exc

    return parse


_INT, _FLOAT = _number(int), _number(float)


def _numbers(parse):
    return lambda key, text: tuple(parse(key, token) for token in text.split())


def _string(key: str, text: str) -> str:
    return text


def _triples(key: str, text: str) -> tuple[tuple[float, float, float], ...]:
    triples = []
    for token in text.split():
        parts = token.split(",")
        if len(parts) != 3:
            raise ConfigError(f"key {key!r}: expected alpha,beta,gamma triples, got {token!r}")
        triples.append(tuple(_FLOAT(key, part) for part in parts))
    return tuple(triples)


def _one(key: str, text: str) -> int:
    # cells run in one thread: a thread pool was slower, as the solves hold the GIL
    if (value := _INT(key, text)) != 1:
        raise ConfigError(f"key {key!r}: only 1 is accepted, got {value}")
    return value


def _same(value):
    return value


def _si(scale: float):
    return lambda value: value * scale


# Every configuration key: its parser, then the fields it sets, each as
# (section, field, conversion to SI). A key left out of a config sets
# nothing, so every default lives in its dataclass.
_KEYS = {
    "users": (_INT, (TopologyConfig, "user_count", _same)),
    "channels": (
        _INT, (SystemParams, "channel_count", _same), (TopologyConfig, "channel_count", _same)
    ),
    "bandwidth_mhz": (_FLOAT, (SystemParams, "total_bandwidth_hz", _si(1e6))),
    "noise_dbm_per_hz": (_FLOAT, (SystemParams, "noise_psd_w_per_hz", model.dbm_to_watts)),
    "p_min_dbm": (_FLOAT, (SystemParams, "p_min_w", model.dbm_to_watts)),
    "p_max_dbm": (_FLOAT, (SystemParams, "p_max_w", model.dbm_to_watts)),
    "f_min_ghz": (_FLOAT, (SystemParams, "f_min_hz", _si(1e9))),
    "f_max_ghz": (_FLOAT, (SystemParams, "f_max_hz", _si(1e9))),
    "kappa": (_FLOAT, (SystemParams, "switched_capacitance", _same)),
    "local_iterations": (_FLOAT, (SystemParams, "local_iterations", _same)),
    "std_resolution_px": (_FLOAT, (SystemParams, "std_resolution_px", _same)),
    "resolutions_px": (_numbers(_FLOAT), (SystemParams, "resolution_set_px", _same)),
    "upload_kbits": (_FLOAT, (TopologyConfig, "upload_bits", _si(1e3))),
    "samples": (_FLOAT, (TopologyConfig, "sample_count", _same)),
    "cycles_low": (_FLOAT, (TopologyConfig, "cycles_low", _same)),
    "cycles_high": (_FLOAT, (TopologyConfig, "cycles_high", _same)),
    "cell_radius_km": (_FLOAT, (TopologyConfig, "cell_radius_km", _same)),
    "min_distance_km": (_FLOAT, (TopologyConfig, "min_distance_km", _same)),
    "shadow_sigma_db": (_FLOAT, (TopologyConfig, "shadow_sigma_db", _same)),
    "weights": (_triples, (ExperimentSpec, "weights", _same)),
    "sweep": (_string, (ExperimentSpec, "sweep_variable", _same)),
    "sweep_values": (_numbers(_FLOAT), (ExperimentSpec, "sweep_values", _same)),
    "seeds": (_numbers(_INT), (ExperimentSpec, "seeds", _same)),
    "algorithms": (_numbers(_string), (ExperimentSpec, "algorithms", _same)),
    "pairing": (_string, (ExperimentSpec, "pairing", _same)),
    "jobs": (_one,),  # accepted for older configs; sets nothing
}
# the key that sets each field: the one field name two sections share,
# channel_count, is set by `channels` alone
_FIELD_KEYS = {field: key for key, (_, *sets) in _KEYS.items() for _, field, _ in sets}
# a cell's accuracy weight comes from its `weights` triple
_FIELD_KEYS["weight_accuracy"] = "weights"
# the ExperimentSpec field that holds each section
_SECTIONS = {SystemParams: "params", TopologyConfig: "topology"}


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines; '#' starts a comment, and a key is
    set at most once."""
    values: dict = {}
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        if key in set_on:
            raise ConfigError(f"key {key!r} is set twice, on lines {set_on[key]} and {lineno}")
        set_on[key] = lineno
        values[key] = _KEYS[key][0](key, rhs.strip())
    return values


def _naming_keys(exc: ParamsError) -> ConfigError:
    """The failed check ``exc`` as a ConfigError naming the keys of its fields."""
    keys = dict.fromkeys(_FIELD_KEYS[f] for f in exc.fields)
    label = "key" if len(keys) == 1 else "keys"
    return ConfigError(f"{label} {', '.join(map(repr, keys))}: {exc}")


def spec_from_values(values: dict) -> ExperimentSpec:
    """Build a spec from parsed values; anything missing keeps its dataclass
    default."""
    fields: dict = {section: {} for section in (*_SECTIONS, ExperimentSpec)}
    for key, value in values.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown configuration key {key!r}")
        for section, field, to_si in _KEYS[key][1:]:
            try:
                fields[section][field] = to_si(value)
            except ValueError as exc:  # a dBm value past the float range
                raise ConfigError(f"key {key!r}: {exc}") from exc
    spec = fields.pop(ExperimentSpec)
    for section, name in _SECTIONS.items():
        try:
            spec[name] = section(**fields[section])
        except ParamsError as exc:
            raise _naming_keys(exc) from exc
    return ExperimentSpec(**spec)


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
    """The ``SystemParams`` field a sweep point sets, in SI units: the
    field of its configuration key, or the accuracy weight for gamma."""
    if sweep_variable == "gamma":
        return {"weight_accuracy": sweep_value}
    return {field: to_si(sweep_value) for _, field, to_si in _KEYS[sweep_variable][1:]}


def _format_resolutions(resolutions) -> str:
    values = resolutions.tolist()
    text = {r: f"{r:g}" for r in set(values)}  # a handful of distinct levels
    return "|".join([text[r] for r in values])


def _result_row(
    outcome: SolveReport | UnreachableDeviceError,
    spec: ExperimentSpec,
    sweep_value: float,
    params: SystemParams,
    seed: int,
    algorithm: str,
    pairing_label: str,
) -> ResultRow:
    """One run's row. A run that found some device unreachable has NaN
    metrics. A solved run is flagged only when it is rate-infeasible."""
    if isinstance(outcome, UnreachableDeviceError):
        metrics = (float("nan"),) * len(_MEAN_FIELDS)
        flags = {"resolutions": "", "converged": "no", "flag": "unreachable"}
    else:
        c = outcome.costs
        metrics = (
            c.total_energy_j, c.total_time_s, c.total_accuracy, c.weighted_energy_time, c.objective
        )
        flags = {
            "resolutions": _format_resolutions(outcome.allocation.resolution_px),
            "converged": "yes" if outcome.converged else "no",
            "flag": "" if outcome.feasible else "rate-infeasible",
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
        **flags,
    )


# One seed's draw and pairings, keyed by all they read. Callers wrap
# run_cell(spec, sweep value, weights, seed), so no topology can be handed to
# it; a sweep runs seed by seed, so one seed's entries serve all its cells.
@functools.lru_cache(maxsize=1)
def _sampled(topology: TopologyConfig, seed: int):
    return sample_topology(replace(topology, rng_seed=seed))


@functools.lru_cache(maxsize=len(PairingScheme))
def _paired(topology, params: SystemParams, seed: int, scheme: PairingScheme):
    # params are the spec's base parameters: pairing reads only their channel
    # count, which no sweep variable sets
    devices, gains = _sampled(topology, seed)
    return pair_users(params, devices, gains, scheme, rng_seed=seed)


def _solved(solve, *args) -> SolveReport | UnreachableDeviceError:
    """``solve(*args)``, or the error it raised when some device has zero
    uplink rate; the error names the device."""
    try:
        return solve(*args)
    except UnreachableDeviceError as exc:
        return exc


def proposed_row(
    spec: ExperimentSpec, sweep_value: float, params: SystemParams, seed: int
) -> tuple[SolveReport | UnreachableDeviceError, ResultRow]:
    """The proposed solve of one cell, as its outcome and its row: every
    scheme, keeping the best, for ``best``; the named scheme otherwise. A
    failed solve chose no scheme, so its row names the configured pairing."""
    schemes = PairingScheme if spec.pairing == "best" else (PairingScheme(spec.pairing),)
    cell = spec.topology, spec.params, seed
    topologies = {scheme: _paired(*cell, scheme) for scheme in schemes}
    outcome = _solved(allocator.allocate_best_pairing, params, topologies)
    failed = isinstance(outcome, UnreachableDeviceError)
    pairing = spec.pairing if failed else outcome.scheme.value
    return outcome, _result_row(outcome, spec, sweep_value, params, seed, "proposed", pairing)


def run_cell(
    spec: ExperimentSpec, sweep_value: float, weights: tuple[float, float, float], seed: int
) -> list[ResultRow]:
    """Run every requested algorithm on one (sweep value, weights, seed)
    cell. Baselines reuse the pairing chosen for the proposed run so all
    algorithms see the same channel structure; without a proposed report,
    best pairing falls back to nearest."""
    params = cell_params(spec, sweep_value, weights)
    rows: dict[str, ResultRow] = {}
    proposed = None
    if "proposed" in spec.algorithms:
        proposed, rows["proposed"] = proposed_row(spec, sweep_value, params, seed)
    if isinstance(proposed, SolveReport):
        scheme, topology = proposed.scheme, proposed.topology
    else:
        best = spec.pairing == "best"
        scheme = PairingScheme.NEAREST_USER if best else PairingScheme(spec.pairing)
        topology = _paired(spec.topology, spec.params, seed, scheme)
    # looked up at call time, so callers can wrap them in the allocator module
    for algo, solve, *args in (
        ("random", allocator.random_baseline, topology, seed),
        ("greedy", allocator.greedy_baseline, topology),
    ):
        if algo in spec.algorithms:
            outcome = _solved(solve, params, *args)
            rows[algo] = _result_row(outcome, spec, sweep_value, params, seed, algo, scheme.value)
    return [rows[algo] for algo in spec.algorithms]


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def summarize(rows: list[ResultRow]) -> list[ResultRow]:
    """Seed-averaged summary rows, one per (sweep value, weights, algorithm),
    in first-appearance order. Flagged rows are counted, not averaged; the
    pairing names every scheme the seeds ran, in first-appearance order."""
    groups: dict[tuple, list[ResultRow]] = {}
    for row in rows:
        key = (row.sweep_value, row.alpha, row.beta, row.gamma, row.algorithm)
        groups.setdefault(key, []).append(row)
    summary = []
    for members in groups.values():
        clean = [r for r in members if not r.flag]
        flagged = len(members) - len(clean)
        means = {
            name: _mean([getattr(r, name) for r in clean]) if clean else float("nan")
            for name in _MEAN_FIELDS
        }
        summary.append(
            replace(
                members[0],
                seed="mean",
                pairing="|".join(dict.fromkeys(r.pairing for r in members)),
                resolutions="",
                converged="",
                flag=f"flagged={flagged}" if flagged else "",
                **means,
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
    rows appended, and go to ``emit`` when ``out_path`` is given. An unknown
    ``fmt`` or an unopenable ``out_path`` raises before any cell runs. Cells
    run seed by seed, so one seed's topology serves all its cells."""
    check_out(out_path, fmt)
    _sampled.cache_clear()  # every sweep draws its seeds afresh
    _paired.cache_clear()
    cells: dict[tuple[int, int, int], list[ResultRow]] = {}
    for k, seed in enumerate(spec.seeds):
        for i, value in enumerate(spec.sweep_values):
            for j, weights in enumerate(spec.weights):
                cells[i, j, k] = run_cell(spec, value, weights, seed)
    rows = [row for cell in sorted(cells) for row in cells[cell]]
    rows.extend(summarize(rows))
    if out_path is not None:
        emit(rows, fmt, out_path)
    return rows


def _fmt_number(x: float) -> str:
    return f"{x:.9g}"


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


# every output format, by its --format name, with its renderer
FORMATS = {"csv": rows_to_csv, "json": rows_to_json}


def _renderer(fmt: str):
    if fmt not in FORMATS:
        raise ConfigError(f"unknown output format {fmt!r}")
    return FORMATS[fmt]


def check_out(path: str | Path | None, fmt: str) -> None:
    """Raise before any cell runs on an unknown ``fmt`` or a ``path`` that
    cannot be opened for writing; an existing file is left as it is."""
    _renderer(fmt)
    if path is not None:
        open(path, "a").close()


def emit(rows: list[ResultRow], fmt: str, path: str | Path) -> None:
    """Write rows to a file; CSV keeps the documented column order, JSON
    wraps rows in a schema-versioned envelope."""
    Path(path).write_text(_renderer(fmt)(rows))
