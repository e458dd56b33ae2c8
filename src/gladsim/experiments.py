"""Scenario orchestration: latency sweeps, onboarding studies, report export.

A scenario couples the network model, the traffic laws, the sweep grids and
the learning parameters.  Runners produce `Report` objects (named tables plus
provenance) that export to CSV with a JSON manifest; identical scenarios
export byte-identical files, which is the reproducibility contract the test
suite pins down.

Grid points are independent; set GLADSIM_THREADS > 1 to evaluate the latency
grid concurrently.  Assembly is deterministic regardless of completion order.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import coordination, haptic, pon
from .errors import ConfigError, ParameterError, SaturationError
from .traffic import ArrivalStream, GpdParams

__all__ = [
    "GladParams",
    "ScenarioConfig",
    "Table",
    "Report",
    "default_scenario",
    "scenario_hash",
    "run_latency_sweep",
    "run_onboarding_study",
    "export_report",
    "export_stream_csv",
    "export_records_csv",
]

ARTIFACT_VERSION = "0.1.0"

NO_AI = "no_ai"
WITH_AI = "with_ai"


@dataclass(frozen=True)
class GladParams:
    """Learning-side knobs of the onboarding and forecasting studies."""

    accuracy_target: float = 0.95
    window: int = 200
    epsilon: float = 0.05
    onboarding_alpha: float = coordination.DEFAULT_ONBOARDING_ALPHA
    alpha_grid: tuple[float, ...] = tuple(round(0.05 * k, 2) for k in range(1, 21))
    kind_pool_size: int = 1
    total_machines: int = 8
    local_ais: int = 2
    profiling_samples: int = 4000
    min_updates_for_upload: int = 200
    match_threshold: float = 0.8
    quant_bands: int = 10
    texture_freq_max_hz: float = 250.0
    add_every: int = 600
    additions: int = 3
    machines_grid: tuple[int, ...] = (1, 2, 4, 8)

    def policy(self) -> coordination.MatchingPolicy:
        return coordination.MatchingPolicy(
            bands=self.quant_bands,
            texture_freq_max_hz=self.texture_freq_max_hz,
            threshold=self.match_threshold,
        )


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a runner needs; hashes into the report provenance."""

    pon: pon.PonConfig = field(default_factory=pon.PonConfig)
    load_grid: tuple[float, ...] = tuple(round(0.1 * k, 1) for k in range(1, 10))
    span_grid_km: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    seeds: tuple[int, ...] = tuple(range(1, 11))
    control_traffic: GpdParams = field(default_factory=lambda: GpdParams(0.1, 900.0, 0.0))
    haptic_traffic: GpdParams = field(default_factory=lambda: GpdParams(0.1, 900.0, 0.0))
    glad: GladParams = field(default_factory=GladParams)
    n_loops: int = 10_000
    deadline_us: float = 1000.0

    def __post_init__(self):
        if not self.load_grid:
            raise ConfigError("load_grid must be nonempty")
        if not self.span_grid_km:
            raise ConfigError("span_grid_km must be nonempty")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        for rho in self.load_grid:
            if rho < 0:
                raise ConfigError(f"load {rho} is negative")
        for span in self.span_grid_km:
            if span < 0:
                raise ConfigError(f"span {span} is negative")
        if self.n_loops < 10:
            raise ConfigError(f"n_loops must be >= 10, got {self.n_loops}")
        if self.deadline_us <= 0:
            raise ConfigError(f"deadline_us must be > 0, got {self.deadline_us}")


def default_scenario() -> ScenarioConfig:
    return ScenarioConfig()


def _flatten(prefix: str, value, out: dict) -> None:
    if hasattr(value, "__dataclass_fields__"):
        for key, sub in asdict(value).items():
            _flatten(f"{prefix}.{key}" if prefix else key, sub, out)
    elif isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, out)
    elif isinstance(value, (list, tuple)):
        out[prefix] = ",".join(repr(v) for v in value)
    else:
        out[prefix] = repr(value)


def scenario_hash(config: ScenarioConfig) -> str:
    """SHA-256 over the canonical flattened key=value dump of the scenario."""
    flat: dict[str, str] = {}
    _flatten("", config, flat)
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


def _thread_count() -> int:
    raw = os.environ.get("GLADSIM_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"GLADSIM_THREADS must be an integer, got {raw!r}")


# ---------------------------------------------------------------------------
# Latency sweep
# ---------------------------------------------------------------------------


def _base_components(config: ScenarioConfig, rho: float, seed: int) -> dict:
    """Span-independent loop totals for both modes at one (load, seed) point."""
    load = pon.LoadPoint(rho)
    out = {}
    for mode, with_ai in ((NO_AI, False), (WITH_AI, True)):
        base, legs = pon._round_trip_base(
            config.pon, load, seed, config.n_loops, config.control_traffic, with_ai
        )
        start = int(base.size * pon.WARMUP_FRACTION)
        out[mode] = (base[start:], legs)
    return out


def run_latency_sweep(config: ScenarioConfig) -> Report:
    """Mean/p95/p99 round trip per (span, load, mode) plus deadline crossings.

    Queueing does not depend on the span, so each (load, seed) pair is
    simulated once per mode and reused across the span grid and the crossing
    search.  Saturated load points become flagged rows, not failures.
    """
    jobs = [(rho, seed) for rho in config.load_grid for seed in config.seeds]
    threads = _thread_count()

    results: dict[tuple[float, int], dict | None] = {}

    def evaluate(job):
        rho, seed = job
        try:
            return _base_components(config, rho, seed)
        except SaturationError:
            return None

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool_exec:
            for job, res in zip(jobs, pool_exec.map(evaluate, jobs)):
                results[job] = res
    else:
        for job in jobs:
            results[job] = evaluate(job)

    per_km = config.pon.fiber_delay_us_per_km
    latency_rows = []
    dominance_rows = []
    for span in config.span_grid_km:
        for rho in config.load_grid:
            means = {}
            for mode in (NO_AI, WITH_AI):
                saturated = any(results[(rho, seed)] is None for seed in config.seeds)
                if saturated:
                    latency_rows.append((span, rho, mode, "", "", "", True))
                    continue
                totals = np.concatenate([
                    results[(rho, seed)][mode][0]
                    + results[(rho, seed)][mode][1] * span * per_km
                    for seed in config.seeds
                ])
                means[mode] = float(totals.mean())
                latency_rows.append((
                    span, rho, mode,
                    float(totals.mean()),
                    float(np.percentile(totals, 95)),
                    float(np.percentile(totals, 99)),
                    False,
                ))
            if NO_AI in means and WITH_AI in means:
                dominance_rows.append(
                    (span, rho, means[WITH_AI], means[NO_AI],
                     means[WITH_AI] < means[NO_AI])
                )

    crossing_rows = []
    for rho in config.load_grid:
        for mode in (NO_AI, WITH_AI):
            spans = []
            for seed in config.seeds:
                res = results[(rho, seed)]
                if res is None:
                    spans = None
                    break
                base, legs = res[mode]
                spans.append(pon._bisect_max_span(
                    float(base.mean()), legs, per_km, config.deadline_us
                ))
            if spans is None:
                crossing_rows.append((rho, mode, "", True))
            else:
                crossing_rows.append((rho, mode, float(np.mean(spans)), False))

    tables = {
        "latency": Table(
            columns=("span_km", "rho", "mode", "mean_us", "p95_us", "p99_us", "saturated"),
            rows=tuple(latency_rows),
        ),
        "deadline_crossing": Table(
            columns=("rho", "mode", "max_span_km", "saturated"),
            rows=tuple(crossing_rows),
        ),
        "ai_dominance": Table(
            columns=("span_km", "rho", "with_ai_mean_us", "no_ai_mean_us", "with_ai_faster"),
            rows=tuple(dominance_rows),
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
    policy = glad_cfg.policy()
    add_every = glad_cfg.add_every
    machines = glad_cfg.additions + 1

    total_iters = add_every * machines
    pool = coordination.make_profile_pool(glad_cfg.kind_pool_size)
    seeds = np.random.SeedSequence(seed).generate_state(machines)

    registry = coordination.GlobalRegistry()

    # hits[t, m] is machine m's forecast at iteration t; it has joined when present[t, m].
    hits = np.zeros((total_iters, machines), dtype=bool)
    present = np.zeros((total_iters, machines), dtype=bool)
    for m in range(machines):
        profile = pool[m % glad_cfg.kind_pool_size]
        x = haptic._amplitude_matrix(haptic.profiling_trace(profile, total_iters, int(seeds[m])))
        if m == 0:
            estimate = np.clip(x.mean(axis=0), 0.0, 1.0)  # converged head start
            registry.add_record(coordination.ProfileRecord(
                descriptor=coordination.descriptor_of(profile, policy),
                profile_estimate=estimate,
                sample_count=glad_cfg.profiling_samples,
                source_local_ai="co-0",
            ))
        elif mode == coordination.GLAD:
            record, _ = coordination.match_profile(
                registry, coordination.descriptor_of(profile, policy), policy=policy
            )
            estimate = (record.profile_estimate if record is not None
                        else np.zeros(haptic.N_FINGERS))
        else:
            estimate = np.zeros(haptic.N_FINGERS)
        start = m * add_every
        hits[start:, m], _ = haptic._forecast(
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

    savings_curve = coordination.run_savings_sweep(
        config.glad.total_machines, config.glad.kind_pool_size, seed,
        local_ais=config.glad.local_ais,
        trace_samples=config.glad.profiling_samples,
        accuracy_target=config.glad.accuracy_target,
        window=config.glad.window,
        alpha=config.glad.onboarding_alpha,
        epsilon=config.glad.epsilon,
        min_updates=config.glad.min_updates_for_upload,
        policy=config.glad.policy(),
    )

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


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_atomic(path: Path, data: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="") as fh:
        fh.write(data)
    os.replace(tmp, path)


def export_report(report: Report, directory, formats=("csv",)) -> list[Path]:
    """Write one file per table plus a JSON manifest; byte-stable per input.

    Table files are named `<scenario>__<table>.<format>`.  Files are written
    atomically (temp + rename) so a crash never leaves a truncated table.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ParameterError(f"unsupported format {fmt!r}")

    written = []
    for name in sorted(report.tables):
        table = report.tables[name]
        if "csv" in formats:
            lines = [",".join(table.columns)]
            lines.extend(
                ",".join(_format_cell(cell) for cell in row) for row in table.rows
            )
            path = directory / f"{report.scenario}__{name}.csv"
            _write_atomic(path, "\n".join(lines) + "\n")
            written.append(path)
        if "json" in formats:
            payload = {
                "columns": list(table.columns),
                "rows": [[_format_cell(c) for c in row] for row in table.rows],
            }
            path = directory / f"{report.scenario}__{name}.json"
            _write_atomic(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
            written.append(path)

    manifest = {
        "scenario": report.scenario,
        "tables": sorted(report.tables),
        "provenance": report.provenance,
    }
    manifest_path = directory / f"{report.scenario}__manifest.json"
    _write_atomic(manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    written.append(manifest_path)
    return sorted(written)


def export_stream_csv(stream: ArrivalStream, path) -> Path:
    """Dump an arrival stream as a one-column `timestamp_us` CSV."""
    path = Path(path)
    lines = ["timestamp_us"]
    lines.extend(repr(float(t)) for t in stream.timestamps)
    _write_atomic(path, "\n".join(lines) + "\n")
    return path


def export_records_csv(records, path) -> Path:
    """Dump per-message latency records with their component breakdown."""
    path = Path(path)
    columns = ("message_id", "direction", "wireless_us", "queueing_us",
               "dba_wait_us", "transmission_us", "propagation_us",
               "processing_us", "total_us")
    lines = [",".join(columns)]
    for r in records:
        lines.append(",".join(_format_cell(v) for v in (
            r.message_id, r.direction, r.wireless_us, r.queueing_us,
            r.dba_wait_us, r.transmission_us, r.propagation_us,
            r.processing_us, r.total_us,
        )))
    _write_atomic(path, "\n".join(lines) + "\n")
    return path


_CONTROL_COLUMNS = ("t_us", "px", "py", "pz", "ox", "oy", "oz",
                    "f1", "f2", "f3", "f4", "f5")
_HAPTIC_COLUMNS = ("t_us", "a1", "a2", "a3", "a4", "a5")


def export_control_csv(samples, path) -> Path:
    """Dump control samples as `t_us,px,py,pz,ox,oy,oz,f1..f5` rows."""
    path = Path(path)
    lines = [",".join(_CONTROL_COLUMNS)]
    for s in samples:
        values = [s.t_us, *s.hand_pos, *s.hand_orient, *s.finger_pressure]
        lines.append(",".join(repr(float(v)) for v in values))
    _write_atomic(path, "\n".join(lines) + "\n")
    return path


def import_control_csv(path) -> list:
    """Read control samples written by `export_control_csv`."""
    rows = _read_csv(Path(path), _CONTROL_COLUMNS)
    return [
        haptic.ControlSample(t_us=r[0], hand_pos=r[1:4], hand_orient=r[4:7],
                             finger_pressure=r[7:12])
        for r in rows
    ]


def export_haptic_csv(samples, path) -> Path:
    """Dump haptic samples as `t_us,a1..a5` rows."""
    path = Path(path)
    lines = [",".join(_HAPTIC_COLUMNS)]
    for s in samples:
        values = [s.t_us, *s.amplitude]
        lines.append(",".join(repr(float(v)) for v in values))
    _write_atomic(path, "\n".join(lines) + "\n")
    return path


def import_haptic_csv(path) -> list:
    """Read haptic samples written by `export_haptic_csv`."""
    rows = _read_csv(Path(path), _HAPTIC_COLUMNS)
    return [haptic.HapticSample(t_us=r[0], amplitude=r[1:6]) for r in rows]


def _read_csv(path: Path, expected_columns: tuple[str, ...]) -> list[np.ndarray]:
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != expected_columns:
            raise ParameterError(
                f"{path} does not carry the columns {','.join(expected_columns)}"
            )
        return [np.asarray([float(cell) for cell in row]) for row in reader if row]
