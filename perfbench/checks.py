"""Output checks and independent oracles for the benchmark's workloads.

Table checks map each failure to the operations it concerns: a (load, seed)
sweep point, or one onboarding table.  Oracles, the per-layer counts and the
report hashes concern the run as a whole.  Every bound here is written from first principles in this
file, not taken from the program under test.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

NO_AI = "no_ai"
WITH_AI = "with_ai"
MODES = (NO_AI, WITH_AI)
SPAN_STEP_KM = 0.5
SPAN_MAX_KM = 100.0
FLOOR_SLACK_US = 1e-9
PK_REPLICAS = 8  # independent queueing_cross_check runs behind the P-K oracle
PK_Z = 8.0  # its tolerance, in standard errors of their mean
LINDLEY_PREFIX = 2000  # arrivals of each fifo_waits call checked by Lindley
EWMA_SAMPLES = 1000  # length of the EWMA oracle's profiling trace
REFERENCE = Path(__file__).with_name("reference.json")


# ---------------------------------------------------------------------------
# Latency sweeps
# ---------------------------------------------------------------------------


def zero_load_floor_us(pon_config, span_km: float, mode: str) -> float:
    """Smallest possible round trip: no queueing, no DBA wait.

    The no-AI loop crosses the air four times and the fiber four times, with
    one 128-byte transmission per fiber leg (two upstream, two downstream).
    The with-AI loop crosses each twice, once per direction, and adds the
    inference time.
    """
    c = pon_config
    tx_up = c.packet_bytes * 8.0 / c.upstream_rate_bps * 1e6
    tx_down = c.packet_bytes * 8.0 / c.downstream_rate_bps * 1e6
    fiber = span_km * c.fiber_delay_us_per_km
    if mode == NO_AI:
        return 4 * c.wireless_hop_us + 2 * (tx_up + tx_down) + 4 * fiber
    return 2 * c.wireless_hop_us + tx_up + tx_down + 2 * fiber + c.ai_inference_us


def check_sweep(config, report) -> tuple[int, int, list[str]]:
    """(operations, failed operations, problems) for a latency-sweep report."""
    loads, spans = tuple(config.load_grid), tuple(config.span_grid_km)
    deadline = config.deadline_us
    problems: list[str] = []
    bad: set[float] = set()

    def fail(rho, text):
        bad.add(rho)
        problems.append(text)

    rows = report.tables["latency"].rows
    latency = {(r[0], r[1], r[2]): r for r in rows}
    expected = {(s, rho, m) for s in spans for rho in loads for m in MODES}
    if len(rows) != len(expected) or set(latency) != expected:
        problems.append("latency grid incomplete or duplicated")
        bad.update(loads)
    for (span, rho, mode), (_, _, _, mean, p95, p99, saturated) in latency.items():
        if saturated:
            fail(rho, f"saturated row at span {span}, rho {rho}, {mode}")
            continue
        floor = zero_load_floor_us(config.pon, span, mode) - FLOOR_SLACK_US
        if not min(mean, p95, p99) >= floor:
            fail(rho, f"below zero-load floor at span {span}, rho {rho}, {mode}")
        if not p95 <= p99:
            fail(rho, f"p95 > p99 at span {span}, rho {rho}, {mode}")

    def mean_at(span, rho, mode):
        row = latency.get((span, rho, mode))
        return row[3] if row is not None and not row[6] else math.nan

    for span in spans:
        for rho in loads:
            if not mean_at(span, rho, WITH_AI) < mean_at(span, rho, NO_AI):
                fail(rho, f"with-AI not faster at span {span}, rho {rho}")
        for mode in MODES:
            for lo, hi in zip(sorted(loads), sorted(loads)[1:]):
                if not mean_at(span, hi, mode) >= mean_at(span, lo, mode):
                    fail(hi, f"{mode} mean falls from rho {lo} to {hi} at span {span}")

    crossing = {(r[0], r[1]): r for r in report.tables["deadline_crossing"].rows}
    if set(crossing) != {(rho, m) for rho in loads for m in MODES}:
        problems.append("deadline_crossing table incomplete")
        bad.update(loads)

    def crossing_at(rho, mode):
        row = crossing.get((rho, mode))
        return row[2] if row is not None and not row[3] else math.nan

    # Each seed's crossing is on the 0.5 km grid and the table holds their
    # mean, so the mean is on the grid of 0.5 km / len(seeds).
    step = SPAN_STEP_KM / len(config.seeds)
    for rho in loads:
        for mode in MODES:
            km = crossing_at(rho, mode)
            steps = km / step
            if not (0.0 <= km <= SPAN_MAX_KM and abs(steps - round(steps)) <= 1e-9):
                fail(rho, f"{mode} crossing {km} at rho {rho} is off the {step} km grid")
        if not crossing_at(rho, WITH_AI) > crossing_at(rho, NO_AI):
            fail(rho, f"with-AI crossing not beyond no-AI at rho {rho}")
    for mode in MODES:
        for lo, hi in zip(sorted(loads), sorted(loads)[1:]):
            if not crossing_at(hi, mode) <= crossing_at(lo, mode):
                fail(hi, f"{mode} crossing grows from rho {lo} to {hi}")

    # The paper's two headline crossings, where the grid holds their points.
    if (20.0, 0.9, NO_AI) in latency and not mean_at(20.0, 0.9, NO_AI) > deadline:
        fail(0.9, "no-AI mean at 20 km, rho 0.9 within the deadline")
    if (30.0, 0.8, WITH_AI) in latency and not mean_at(30.0, 0.8, WITH_AI) <= deadline:
        fail(0.8, "with-AI mean at 30 km, rho 0.8 beyond the deadline")

    operations = len(loads) * len(config.seeds)
    return operations, len(bad) * len(config.seeds), problems


def pollaczek_khinchine_oracle(pon_module, pon_config, rho: float,
                               seed: int) -> tuple[bool, dict]:
    """Downstream FIFO mean wait against the M/D/1 mean rho*S / (2(1-rho)).

    The background is Poisson with deterministic service S, so the
    Pollaczek-Khinchine formula is exact.  The tolerance is PK_Z standard
    errors of the mean over PK_REPLICAS independent runs of the public
    cross-check.
    """
    service = pon_config.background_packet_bytes * 8.0 / pon_config.downstream_rate_bps * 1e6
    exact = rho * service / (2.0 * (1.0 - rho))
    seeds = np.random.SeedSequence(seed).generate_state(PK_REPLICAS)
    waits = np.array([
        pon_module.queueing_cross_check(pon_config, pon_module.LoadPoint(rho), int(s))
        ["simulated_mean_wait_us"]
        for s in seeds
    ])
    mean = float(waits.mean())
    stderr = float(waits.std(ddof=1) / math.sqrt(PK_REPLICAS))
    ok = abs(mean - exact) <= PK_Z * stderr
    return ok, {"rho": rho, "pk_wait_us": exact, "simulated_wait_us": mean,
                "stderr_us": stderr}


def lindley_prefix_check(arrivals, services, waits) -> str | None:
    """Compare a FIFO's waits on a prefix with the explicit Lindley recursion."""
    a = np.asarray(arrivals, dtype=float)[:LINDLEY_PREFIX]
    s = np.asarray(services, dtype=float)[:LINDLEY_PREFIX]
    w = np.empty(a.size)
    acc = 0.0
    for i in range(a.size):
        if i:
            acc = max(0.0, acc + s[i - 1] - (a[i] - a[i - 1]))
        w[i] = acc
    gap = float(np.max(np.abs(w - np.asarray(waits)[:a.size]))) if a.size else 0.0
    return None if gap <= 1e-6 else f"fifo_waits differs from Lindley by {gap} us"


# ---------------------------------------------------------------------------
# Onboarding
# ---------------------------------------------------------------------------


def check_onboarding(config, report) -> tuple[int, int, list[str]]:
    """(operations, failed operations, problems); one operation per table."""
    g = config.glad
    failed: set[str] = set()
    problems: list[str] = []

    def fail(table, text):
        failed.add(table)
        problems.append(f"{table}: {text}")

    total = g.add_every * (g.additions + 1)
    curves = {}
    for mode in ("cold", "glad"):
        rows = [r for r in report.tables["accuracy_curve"].rows if r[1] == mode]
        curves[mode] = np.array([r[3] for r in rows], dtype=float)
        if [r[0] for r in rows] != list(range(1, total + 1)):
            fail("accuracy_curve", f"{mode} curve does not cover iterations 1..{total}")
        elif not np.all((curves[mode] >= 0.0) & (curves[mode] <= 1.0)):
            fail("accuracy_curve", f"{mode} accuracy outside [0, 1]")
    cold = curves["cold"]
    if cold.size == total:
        if not np.all(cold[:g.add_every] == 1.0):
            fail("accuracy_curve", "cold curve below 1.0 before the first addition")
        # Only the first addition is checked: the window then holds nothing
        # but hits, so the joiner's first miss must lower it.  At later ones
        # the previous cold joiner's misses may leave the window as fast as
        # the new joiner's enter, and whether they do depends on the seed.
        if g.additions and not cold[g.add_every] < cold[g.add_every - 1]:
            fail("accuracy_curve", f"cold curve does not drop at iteration {g.add_every + 1}")
        if not curves["glad"].mean() >= cold.mean():
            fail("accuracy_curve", "glad mean accuracy below cold")

    savings = report.tables["savings_vs_machines"].rows
    pct = np.array([r[1] for r in savings], dtype=float)
    if [r[0] for r in savings] != list(range(1, g.total_machines + 1)):
        fail("savings_vs_machines", "rows do not cover every machine")
    elif not (pct[0] == 0.0 and np.all(np.diff(pct) >= 0.0) and np.all(pct <= 100.0)):
        fail("savings_vs_machines", "curve not 0 at start, non-decreasing and <= 100")

    grid = set(g.alpha_grid)
    for m, tau, best in report.tables["alpha_study"].rows:
        if best not in grid:
            fail("alpha_study", f"best alpha {best} off the grid")
        if not -1.0 <= tau <= 1.0:
            fail("alpha_study", f"tau {tau} outside [-1, 1]")
        if m not in g.machines_grid:
            fail("alpha_study", f"machines {m} not in the grid")

    return len(report.tables), len(failed), problems


def ewma_oracle(haptic_module, glad, seed: int) -> tuple[bool, dict]:
    """`optimize_alpha` and `run_forecaster` against an EWMA vectorized over the grid.

    Each grid alpha runs est <- (1-a)*est + a*x from zero; a step hits when
    the max-norm forecast error is at most epsilon.  Hit counts must agree
    exactly, and the best alpha is the smallest one with the most hits.
    """
    trace = haptic_module.profiling_trace(
        haptic_module.standard_profile(haptic_module.ObjectKind.RUBBER_BALL),
        EWMA_SAMPLES, seed, wobble=0.15, wobble_persistence=0.99, noise_std=0.04,
    )
    x = np.array([s.amplitude for s in trace], dtype=float)
    grid = sorted(float(a) for a in glad.alpha_grid)
    alpha = np.array(grid)[:, None]
    estimate = np.zeros((len(grid), x.shape[1]))
    hits = np.zeros(len(grid), dtype=int)
    for row in x:
        hits += np.max(np.abs(estimate - row), axis=1) <= glad.epsilon
        estimate = (1.0 - alpha) * estimate + alpha * row
    expected_best = grid[int(np.argmax(hits))]
    program_hits = [int(haptic_module.run_forecaster(trace, a, glad.epsilon).sum())
                    for a in grid]
    best = haptic_module.optimize_alpha(trace, grid, glad.epsilon)
    ok = program_hits == hits.tolist() and best == expected_best
    return ok, {"best_alpha": best, "expected_best_alpha": expected_best,
                "hits_agree": program_hits == hits.tolist()}


# ---------------------------------------------------------------------------
# Reference: report hashes and background event counts
# ---------------------------------------------------------------------------


def file_hashes(files) -> dict[str, str]:
    return {Path(f).name: hashlib.sha256(Path(f).read_bytes()).hexdigest()
            for f in sorted(files)}


def host_signature() -> dict:
    """Facts that decide whether report bytes are comparable across hosts.

    numpy picks SIMD kernels for exp/log at run time, and different kernels
    may round the last bit differently.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    return {"numpy": np.__version__,
            "simd": sorted(k for k, on in features.items() if on)}


def load_reference() -> dict:
    if REFERENCE.exists():
        return json.loads(REFERENCE.read_text())
    return {"artifact_version": None, "host": None, "workloads": {}}


def reference_entry(reference: dict, workload: str, seed: int,
                    artifact_version: str) -> tuple[dict | None, str]:
    """The reference's entry for this run, or None and why it does not apply.

    An entry applies when it was made for the same artifact version on a
    comparable host.  It holds the report files' sha256 and, for the sweeps,
    the background event count.
    """
    entry = reference["workloads"].get(workload, {}).get(str(seed))
    if entry is None:
        return None, "no reference for this seed"
    if reference["artifact_version"] != artifact_version:
        return None, "artifact version changed"
    if reference["host"] != host_signature():
        return None, "host not comparable"
    return entry, "compared"


def compare_hashes(expected: dict[str, str], hashes: dict[str, str]) -> tuple[str, list[str]]:
    """("match" or "mismatch", problems) of a run's report hashes."""
    diff = sorted(n for n in set(expected) | set(hashes) if expected.get(n) != hashes.get(n))
    if diff:
        return "mismatch", [f"report file {n} differs from the reference" for n in diff]
    return "match", []


def check_counts(expected: dict[str, int | None], layers: dict[str, float]) -> list[str]:
    """Problems where a traced process's count differs from its known value."""
    return [f"{name} is {layers[name]:.0f}, expected {value}"
            for name, value in expected.items()
            if value is not None and layers[name] != value]
