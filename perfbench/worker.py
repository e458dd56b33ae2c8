"""One workload process: set up, run, and check one gladsim runner.

Run from the checkout root with `src` on PYTHONPATH; `run.py` starts it.
Modes:
  setup  import gladsim and load the scenario, then report the set-up time;
  run    also run the runner plus export with tracing off;
  trace  the same with spans around every layer (see tracing.py), and checks
         the per-layer counts against their known values.
The last stdout line is one JSON object with the measurements and checks.
"""

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--scenario", required=True, help="scenario file to load")
    p.add_argument("--out", required=True, help="report directory (emptied first)")
    p.add_argument("--oracles", action="store_true", help="also run the oracles")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    from gladsim import config as gconfig
    from gladsim import experiments

    tracer = None
    if args.mode == "trace":
        import checks
        import tracing

        lindley_results = []

        def lindley(call_args, call_kwargs, waits):
            arrivals = call_args[0] if call_args else call_kwargs["arrival_times"]
            services = call_args[1] if len(call_args) > 1 else call_kwargs["service_times"]
            lindley_results.append(checks.lindley_prefix_check(arrivals, services, waits))

        tracer = tracing.Tracer(checks={"pon.fifo_waits": lindley})
        tracer.install()

    config = gconfig.load_scenario(args.scenario)
    # CPU time since the process started: interpreter start-up, the imports
    # and the scenario load, without the host's steal time.
    setup_s = time.process_time()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import checks
    import workloads

    out_dir = Path(args.out)
    shutil.rmtree(out_dir, ignore_errors=True)
    runner_kind = workloads.WORKLOADS[args.workload][0]
    runner = (experiments.run_latency_sweep if runner_kind == workloads.LATENCY
              else experiments.run_onboarding_study)

    # run_s is the CPU time (user + sys) the process spends in the runner and
    # export.  The process is single-threaded, so that is its wall time less
    # the time the host gives the CPU to others (steal), which on a shared
    # host moved the wall time of identical processes by up to a quarter.
    wall_start, cpu_start = time.perf_counter(), time.process_time()
    report = runner(config)
    files = experiments.export_report(report, out_dir)
    run_s, wall_s = time.process_time() - cpu_start, time.perf_counter() - wall_start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"setup_s": setup_s, "run_s": run_s, "wall_s": wall_s, "peak_rss_mib": peak_rss_mib,
              "loops": workloads.nominal_loops(args.workload, config)}
    if tracer is not None:
        spans = list(tracer.spans)  # freeze before the checks call traced code
        result["layers"] = tracing.layer_metrics(spans, tracer.missing)
        result["missing"] = tracer.missing
        (out_dir.parent / "spans.json").write_text(json.dumps(
            {"fields": ["label", "start", "end", "parent", "count", "peak_bytes"],
             "spans": spans}))

    if runner_kind == workloads.LATENCY:
        ops, failed, problems = checks.check_sweep(config, report)
    else:
        ops, failed, problems = checks.check_onboarding(config, report)
    result.update(operations=ops, failed=failed, problems=problems)

    global_problems = []
    hashes = checks.file_hashes(files)
    version = report.provenance["artifact_version"]
    entry, status = checks.reference_entry(
        checks.load_reference(), args.workload, args.seed, version)
    if entry is not None:
        status, hash_problems = checks.compare_hashes(entry["sha256"], hashes)
        global_problems += hash_problems
    result["report"] = {"artifact_version": version, "sha256": hashes, "status": status}

    oracles = {}
    if tracer is not None:
        expected = workloads.expected_counts(args.workload, config)
        if entry is not None and expected["pon.background_events"] is None:
            expected["pon.background_events"] = entry["background_events"]
        global_problems += checks.check_counts(expected, result["layers"])
        result["expected_counts"] = expected
        lindley_problems = [p for p in lindley_results if p]
        oracles["lindley"] = {"calls_checked": len(lindley_results), "ok": not lindley_problems}
        global_problems += lindley_problems
    if args.oracles:
        from gladsim import haptic, pon
        if runner_kind == workloads.LATENCY:
            ok, info = checks.pollaczek_khinchine_oracle(
                pon, config.pon, max(config.load_grid), args.seed)
            oracles["pollaczek_khinchine"] = dict(info, ok=ok)
            global_problems += [] if ok else [f"P-K oracle failed: {info}"]
        else:
            ok, info = checks.ewma_oracle(haptic, config.glad, args.seed)
            oracles["ewma"] = dict(info, ok=ok)
            global_problems += [] if ok else [f"EWMA oracle failed: {info}"]
    result.update(oracles=oracles, global_problems=global_problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
