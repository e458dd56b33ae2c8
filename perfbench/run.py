"""gladsim benchmark: time the public runners from outside, in fresh processes.

Usage (from the repository root):
    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 20 --trace 0

Every workload process runs with GLADSIM_THREADS=1 and single-threaded BLAS.
With --trace 0 the run repeats whole untraced workload processes until
--seconds have passed and reports end-to-end medians: setup_s, run_s,
peak_rss_mib and loops_per_s.  With --trace 1 it runs one untraced process
for reference, then traced processes until --seconds have passed, and reports
per-layer medians plus the tracing overhead.  A run record goes to stdout
before the last line; the last line is the result JSON.  The program must be
at src/gladsim; without it the run exits 2 without a result.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
PROCESS_TIMEOUT_S = 120
PINNED_ENV = {
    "GLADSIM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


# What the run record keeps of each workload process's result.
PROCESS_FIELDS = ("setup_s", "run_s", "wall_s", "peak_rss_mib", "operations", "failed",
                  "problems", "report", "oracles", "missing", "expected_counts")


class BenchError(Exception):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


class Workspace:
    """Scenario file, report directory and pinned environment of one run."""

    def __init__(self, root: Path, workload: str, seed: int):
        if not (root / "src" / "gladsim" / "__init__.py").is_file():
            raise BenchError(f"no gladsim sources under {root / 'src'}")
        self.workload, self.seed = workload, seed
        self.dir = root / ".perfbench_work" / workload
        self.dir.mkdir(parents=True, exist_ok=True)
        self.scenario = self.dir / "scenario.cfg"
        self.scenario.write_text(workloads.scenario_text(workload, seed))
        self.env = dict(os.environ, **PINNED_ENV)
        self.env["PYTHONPATH"] = str(root / "src")

    def spawn(self, mode: str, oracles: bool = False) -> dict:
        """Run one worker process to completion and return its result."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--scenario", str(self.scenario),
               "--out", str(self.dir / "report")]
        if oracles:
            cmd.append("--oracles")
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process exceeded {PROCESS_TIMEOUT_S} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def remove_outputs(self) -> None:
        shutil.rmtree(self.dir / "report", ignore_errors=True)


def _repeat(space: Workspace, mode: str, seconds: float, since: float,
            results: list[dict]) -> list[dict]:
    """Append whole `mode` processes until one exists and `seconds` have passed."""
    while not results or time.perf_counter() - since < seconds:
        results.append(space.spawn(mode))
    return results


def _declared_units(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """Metric -> unit for the end-to-end and per-layer metrics of BENCHMARK.json."""
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _metrics(values: dict[str, float], units: dict[str, str]) -> dict:
    """Every declared metric with its unit; one without a value is an error."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"no value for declared metrics {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _end_to_end(space: Workspace, seconds: float) -> tuple[dict, list[dict]]:
    space.spawn("setup")  # warm the bytecode cache; not counted
    setups = [space.spawn("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]
    start = time.perf_counter()
    reps = _repeat(space, "run", seconds, start, [space.spawn("run", oracles=True)])
    setups += [r["setup_s"] for r in reps]
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in reps),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
        "loops_per_s": statistics.median(r["loops"] / r["run_s"] for r in reps),
    }
    return values, reps


def _per_layer(space: Workspace, seconds: float) -> tuple[dict, list[dict]]:
    start = time.perf_counter()
    reference = space.spawn("run", oracles=True)
    traced = _repeat(space, "trace", seconds, start, [])
    values = {name: statistics.median(t["layers"][name] for t in traced)
              for name in traced[0]["layers"]}
    traced_run = statistics.median(t["run_s"] for t in traced)
    values["trace.overhead_pct"] = 100.0 * (traced_run / reference["run_s"] - 1.0)
    return values, [reference] + traced


def _host_facts() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        root = Path.cwd()
        space = Workspace(root, args.workload, args.seed)
        end_to_end_units, per_layer_units = _declared_units(root)
        measure = _per_layer if args.trace else _end_to_end
        values, reps = measure(space, args.seconds)
        metrics = _metrics(values, per_layer_units if args.trace else end_to_end_units)
        space.remove_outputs()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    problems = [p for rep in reps for p in rep["global_problems"]]
    attempted = sum(r["operations"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pinned_env": PINNED_ENV,
        "host": _host_facts(),
        "attempted": attempted,
        "failed": failed,
        "processes": [{k: r.get(k) for k in PROCESS_FIELDS} for r in reps],
        "problems": problems,
    }
    print("run record: " + json.dumps(record, sort_keys=True))
    for problem in problems + [p for r in reps for p in r["problems"]]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
