"""Scenario orchestration: latency sweeps, onboarding studies, report export.

A scenario couples the network model, the traffic laws, the sweep grids and
the learning parameters.  Runners produce `Report` objects (named tables plus
provenance) that export to CSV with a JSON manifest; identical scenarios
export byte-identical files, which is the reproducibility contract the test
suite pins down.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import coordination, haptic, pon
from .coordination import GladParams
from .errors import ConfigError, ParameterError, ResourceLimitError, SaturationError
from .errors import integer, real, sequence
from .pon import NO_AI, WITH_AI
from .traffic import CONTROL_TRAFFIC_DEFAULT, GpdParams

__all__ = [
    "ScenarioConfig",
    "Table",
    "Report",
    "scenario_hash",
    "run_latency_sweep",
    "run_onboarding_study",
    "export_report",
]

ARTIFACT_VERSION = "0.1.0"


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a runner needs; hashes into the report provenance."""

    pon: pon.PonConfig = field(default_factory=pon.PonConfig)
    load_grid: tuple[float, ...] = tuple(round(0.1 * k, 1) for k in range(1, 10))
    span_grid_km: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    seeds: tuple[int, ...] = tuple(range(1, 11))
    control_traffic: GpdParams = CONTROL_TRAFFIC_DEFAULT
    haptic_traffic: GpdParams = CONTROL_TRAFFIC_DEFAULT
    glad: GladParams = field(default_factory=GladParams)
    n_loops: int = 10_000
    deadline_us: float = 1000.0

    def __post_init__(self):
        object.__setattr__(self, "n_loops", integer("n_loops", self.n_loops, ConfigError,
                                                    at_least=10))
        object.__setattr__(self, "seeds", tuple(
            integer("seeds", s, ConfigError, at_least=0)
            for s in sequence("seeds", self.seeds, ConfigError, distinct=True)))
        # Stored as Python floats, so numpy arrays and scalars check and hash as tuples do.
        for name in ("load_grid", "span_grid_km"):
            values = sequence(name, getattr(self, name), ConfigError, distinct=True)
            object.__setattr__(self, name, tuple(
                float(real(name, v, at_least=0, error=ConfigError)) for v in values))
        # The mean inter-arrival, which sets the sweep's horizon, is undefined from shape 1.
        real("control_traffic shape", self.control_traffic.shape, below=1, error=ConfigError)
        object.__setattr__(self, "deadline_us", real("deadline_us", self.deadline_us, above=0,
                                                     error=ConfigError))
        # A sweep point sums up to four crossings of a grid span over every pooled loop.
        crossings = 4 * self.n_loops * len(self.seeds)
        for span in self.span_grid_km:
            if not math.isfinite(span * crossings * self.pon.fiber_delay_us_per_km):
                raise ConfigError(f"span_grid_km value {span} overflows the propagation delay "
                                  f"of {crossings} fiber crossings")
        # The heaviest unsaturated load draws the most background.
        unsaturated = [rho for rho in self.load_grid if rho < 1.0]
        if unsaturated:
            rho = max(unsaturated)
            try:
                pon._check_event_budget(self.pon, rho, self.control_traffic, self.n_loops,
                                        self.seeds)
            except ResourceLimitError as exc:
                raise ConfigError(f"n_loops = {self.n_loops} at rho = {rho}: {exc}") from exc


def _repr(value) -> str:
    """`repr` of `value`, a numpy scalar read as the equal Python number."""
    return repr(value.item() if isinstance(value, np.generic) else value)


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, out)
    elif isinstance(value, (list, tuple)):
        out[prefix] = ",".join(_repr(v) for v in value)
    else:
        out[prefix] = _repr(value)


def scenario_hash(config: ScenarioConfig) -> str:
    """SHA-256 over the canonical flattened key=value dump of the scenario."""
    flat: dict[str, str] = {}
    _flatten("", asdict(config), flat)
    canonical = "\n".join(f"{k}={flat[k]}" for k in sorted(flat))
    return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class Report:
    scenario: str
    tables: dict[str, Table]
    provenance: dict


def _provenance(config: ScenarioConfig) -> dict:
    return {
        "config_hash": scenario_hash(config),
        "seeds": list(config.seeds),
        "artifact_version": ARTIFACT_VERSION,
    }


# ---------------------------------------------------------------------------
# Latency sweep
# ---------------------------------------------------------------------------


_MODES = (NO_AI, WITH_AI)


def _base_components(config: ScenarioConfig, rho: float, seed: int) -> dict:
    """Span-independent loop totals for both modes at one (load, seed) point."""
    return pon.round_trips(config.pon, pon.LoadPoint(rho), seed,
                           n_loops=config.n_loops, traffic=config.control_traffic)


def run_latency_sweep(config: ScenarioConfig) -> Report:
    """Mean/p95/p99 round trip per (span, load, mode) plus deadline crossings.

    Queueing does not depend on the span, so each (load, seed) pair is
    simulated once, and a load's seeds are pooled once per mode.  Every span
    adds its propagation to the pools, and the crossings come from the same
    points.  Loads are assembled one at a time, so a load's arrays are
    dropped once the next load's points are in.  Saturated load points
    become flagged rows, not failures.
    """
    per_km = config.pon.fiber_delay_us_per_km
    # Rows per span, so that the latency and dominance tables stay span-major.
    latency_rows = {span: [] for span in config.span_grid_km}
    dominance_rows = {span: [] for span in config.span_grid_km}
    crossing_rows = []
    for rho in config.load_grid:
        try:
            results = [_base_components(config, rho, seed) for seed in config.seeds]
        except SaturationError:
            crossing_rows.extend((rho, mode, "", True) for mode in _MODES)
            for span, rows in latency_rows.items():
                rows.extend((span, rho, mode, "", "", "", True) for mode in _MODES)
            continue
        pools = {}
        for mode in _MODES:
            legs = results[0][mode][1]
            spans = [pon._bisect_max_span(float(res[mode][0].mean()), legs, per_km,
                                          config.deadline_us) for res in results]
            crossing_rows.append((rho, mode, float(np.mean(spans)), False))
            pools[mode] = (np.concatenate([res[mode][0] for res in results]), legs)
        for span in config.span_grid_km:
            means = {}
            for mode, (base, legs) in pools.items():
                totals = base + legs * span * per_km
                means[mode] = float(totals.mean())
                p95, p99 = np.percentile(totals, (95, 99))
                latency_rows[span].append(
                    (span, rho, mode, means[mode], float(p95), float(p99), False))
            dominance_rows[span].append(
                (span, rho, means[WITH_AI], means[NO_AI], means[WITH_AI] < means[NO_AI]))

    tables = {
        "latency": Table(
            columns=("span_km", "rho", "mode", "mean_us", "p95_us", "p99_us", "saturated"),
            rows=tuple(row for rows in latency_rows.values() for row in rows),
        ),
        "deadline_crossing": Table(
            columns=("rho", "mode", "max_span_km", "saturated"),
            rows=tuple(crossing_rows),
        ),
        "ai_dominance": Table(
            columns=("span_km", "rho", "with_ai_mean_us", "no_ai_mean_us", "with_ai_faster"),
            rows=tuple(row for rows in dominance_rows.values() for row in rows),
        ),
    }
    return Report(scenario="latency_sweep", tables=tables, provenance=_provenance(config))


# ---------------------------------------------------------------------------
# Onboarding study
# ---------------------------------------------------------------------------


def _accuracy_decay_curve(config: ScenarioConfig, mode: str, seed: int) -> list[tuple]:
    """Pooled windowed accuracy of one Local AI while machines join over time.

    The first machine starts converged; new machines join every `add_every`
    iterations, initialized per `mode`.  Each present machine contributes one
    forecast per iteration, pooled in machine order, so a cold joiner's early
    misses dent the pooled window until it converges.  The cold curve drops
    at the first addition; at later ones it need not, because the previous
    joiner's misses may leave the window as fast as the new joiner's enter.
    """
    glad_cfg = config.glad
    add_every = glad_cfg.add_every
    machines = glad_cfg.additions + 1

    total_iters = add_every * machines
    pool = coordination._make_profile_pool(glad_cfg.kind_pool_size)
    seeds = np.random.SeedSequence(seed).generate_state(machines)

    registry = coordination.GlobalRegistry()

    # hits[t, m] is machine m's forecast at iteration t; it has joined when present[t, m].
    hits = np.zeros((total_iters, machines), dtype=bool)
    present = np.zeros((total_iters, machines), dtype=bool)
    for m in range(machines):
        profile = pool[m % glad_cfg.kind_pool_size]
        x = haptic.profiling_trace(profile, total_iters, int(seeds[m])).amplitude
        if m == 0:
            estimate = np.clip(x.mean(axis=0), 0.0, 1.0)  # converged head start
            registry.add_record(coordination.ProfileRecord(
                descriptor=coordination.descriptor_of(profile, glad_cfg),
                profile_estimate=estimate,
                sample_count=glad_cfg.profiling_samples,
            ))
        else:
            estimate, _ = coordination._warm_start(registry, profile, mode, glad_cfg)
        start = m * add_every
        hits[start:, m] = haptic._forecast_hits(
            x[:total_iters - start], glad_cfg.onboarding_alpha, glad_cfg.epsilon, estimate
        )
        present[start:, m] = True

    cums = np.concatenate(([0], np.cumsum(hits[present])))
    n_present = present.sum(axis=1)
    pooled = np.cumsum(n_present)
    oldest = np.maximum(pooled - glad_cfg.window, 0)
    windowed = (cums[pooled] - cums[oldest]) / (pooled - oldest)
    return [(t + 1, mode, n, acc)
            for t, (n, acc) in enumerate(zip(n_present.tolist(), windowed.tolist()))]


def _alpha_study(config: ScenarioConfig, seed: int) -> list[tuple]:
    """Best forecast step size per (machines served, trace autocorrelation).

    A Local AI sharing its attention across M machines revisits each machine
    every M-th sample, which dilutes the correlation the forecaster sees; the
    study measures that by optimizing alpha on M-fold subsampled traces of
    sessions with different wobble persistence.
    """
    glad_cfg = config.glad
    profile = haptic.standard_profile(haptic.ObjectKind.RUBBER_BALL)
    rows = []
    persistences = (0.999, 0.99, 0.9)
    seeds = np.random.SeedSequence(seed).generate_state(len(persistences))
    for pers, trace_seed in zip(persistences, seeds):
        trace = haptic.profiling_trace(
            profile, glad_cfg.profiling_samples, int(trace_seed),
            wobble=0.15, wobble_persistence=pers, noise_std=0.04,
        )
        for m in glad_cfg.machines_grid:
            sub = trace[::m]
            if len(sub) < 100:
                continue
            tau = haptic.estimate_tau(sub)
            best = haptic.optimize_alpha(sub, glad_cfg.alpha_grid, glad_cfg.epsilon)
            rows.append((m, float(round(tau, 4)), best))
    return rows


def run_onboarding_study(config: ScenarioConfig) -> Report:
    """Accuracy-decay curves, savings-vs-machines table, and the alpha study."""
    seed = config.seeds[0]
    accuracy_rows = []
    for mode in (coordination.COLD, coordination.GLAD):
        accuracy_rows.extend(_accuracy_decay_curve(config, mode, seed))

    savings_curve = coordination.run_savings_sweep(config.glad, seed)

    alpha_rows = _alpha_study(config, seed)

    tables = {
        "accuracy_curve": Table(
            columns=("iteration", "mode", "machines_present", "windowed_accuracy"),
            rows=tuple(accuracy_rows),
        ),
        "savings_vs_machines": Table(
            columns=("machines_present", "mean_saved_pct"),
            rows=tuple((m, float(s)) for m, s in savings_curve),
        ),
        "alpha_study": Table(
            columns=("machines_per_local_ai", "tau", "best_alpha"),
            rows=tuple(alpha_rows),
        ),
    }
    return Report(scenario="onboarding", tables=tables, provenance=_provenance(config))


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


# Exact Python floats, ints and strings skip the chain below and get the text
# it would give them; bools, numpy scalars and subclasses miss this table.
_EXACT_CELL = {float: float.__repr__, int: int.__repr__, str: str.__str__}


def _format_cell(value) -> str:
    exact = _EXACT_CELL.get(type(value))
    if exact is not None:
        return exact(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def export_report(report: Report, directory, fmt: str = "csv") -> list[Path]:
    """Write one file per table plus a JSON manifest; byte-stable per input.

    Table files are named `<scenario>__<table>.<fmt>`, with `fmt` "csv" or
    "json".  Every file is written into a private staging directory inside
    `directory` and renamed into place only once all are written, so a
    failed export leaves no new or truncated file and no staging directory
    behind.
    """
    if fmt not in ("csv", "json"):
        raise ParameterError(f"unsupported format {fmt!r}")

    files = {}  # file name -> text
    for name in sorted(report.tables):
        table = report.tables[name]
        if fmt == "csv":
            # Each row goes straight to its line; no table of cell strings is kept.
            text = "".join(",".join(map(_format_cell, row)) + "\n"
                           for row in (table.columns, *table.rows))
        else:
            rows = [[_format_cell(cell) for cell in row] for row in table.rows]
            text = json.dumps({"columns": list(table.columns), "rows": rows},
                              sort_keys=True, indent=2) + "\n"
        files[f"{report.scenario}__{name}.{fmt}"] = text
    manifest = {"scenario": report.scenario, "tables": sorted(report.tables),
                "provenance": report.provenance}
    files[f"{report.scenario}__manifest.json"] = json.dumps(
        manifest, sort_keys=True, indent=2) + "\n"

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=directory))
    try:
        for name, text in files.items():
            (staging / name).write_text(text, newline="")
        for name in files:
            os.replace(staging / name, directory / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return sorted(directory / name for name in files)
