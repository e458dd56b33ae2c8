"""Regenerate the benchmark's reference: report hashes and background event counts.

Usage (from the repository root):
    python3 perfbench/reference.py --seeds 0-19

Runs each workload once per seed, untimed and traced, in the same pinned
process as a benchmark run, prints any failed check, and rewrites
perfbench/reference.json for the current artifact version and host: the sha256
of every exported report file and the `pon.background_events` count.  Entries
kept from an earlier reference are dropped when either changed.  Run it after
a change that bumps ARTIFACT_VERSION or changes a workload's scenario.
"""

import argparse
import json
import sys
from pathlib import Path

import checks
import workloads
from run import BenchError, Workspace


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", type=_seed_range, required=True, help="e.g. 0-19 or 7")
    args = p.parse_args(argv)

    reference = checks.load_reference()
    host = checks.host_signature()
    failures = 0
    for workload in sorted(workloads.WORKLOADS):
        for seed in args.seeds:
            try:
                space = Workspace(Path.cwd(), workload, seed)
                result = space.spawn("trace", oracles=True)
                space.remove_outputs()
            except BenchError as exc:
                print(f"benchmark error: {exc}", file=sys.stderr)
                return 2
            version = result["report"]["artifact_version"]
            if (reference["artifact_version"], reference["host"]) != (version, host):
                reference = {"artifact_version": version, "host": host, "workloads": {}}
            problems = result["problems"] + result["global_problems"]
            failures += bool(problems)
            status = "; ".join(problems) if problems else "ok"
            print(f"{workload} seed {seed}: run_s {result['run_s']:.2f} checks {status}")
            reference["workloads"].setdefault(workload, {})[str(seed)] = {
                "sha256": result["report"]["sha256"],
                "background_events": int(result["layers"]["pon.background_events"]),
            }
    reference["workloads"] = {
        workload: dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
        for workload, entries in sorted(reference["workloads"].items())
    }
    checks.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
