"""Spans around calls into gladsim's layers, installed from outside the program.

Each target is a function looked up by module and name.  Its wrapper records
one span per call (label, start, end, parent span) and, where a counter is
given, a count of the work the call did.  Every binding of the original
function in any loaded gladsim module is replaced, so calls made through
`from .x import f` aliases are traced too.  A target that no longer exists is
reported as missing and never fails the run.

Spans stay in memory until the run ends.  Self time is a span's duration minus
the durations of its direct children (calls are sequential, so children never
overlap).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import tracemalloc

MIB = 1024.0 * 1024.0


def _length(args, kwargs, out) -> int:
    return len(out)


# (label, module, function, counter).  The counter maps (args, kwargs, result)
# to the work one call did.
TARGETS = (
    ("pon.round_trip_base", "gladsim.pon", "_round_trip_base", None),
    ("pon.downstream_leg", "gladsim.pon", "_downstream_leg", None),
    ("pon.upstream_leg", "gladsim.pon", "_upstream_leg", None),
    ("pon.poisson_arrivals", "gladsim.pon", "_poisson_arrivals", _length),
    ("pon.fifo_waits", "gladsim.pon", "fifo_waits", _length),
    ("pon.gated_grants", "gladsim.pon", "_gated_grants", None),
    ("pon.bisect_max_span", "gladsim.pon", "_bisect_max_span", None),
    ("traffic.generate_stream", "gladsim.traffic", "generate_stream", None),
    ("experiments.run_latency_sweep", "gladsim.experiments", "run_latency_sweep", None),
    ("experiments.sweep_point", "gladsim.experiments", "_base_components", None),
    ("experiments.run_onboarding_study", "gladsim.experiments", "run_onboarding_study", None),
    ("experiments.accuracy_decay", "gladsim.experiments", "_accuracy_decay_curve", None),
    ("experiments.alpha_study", "gladsim.experiments", "_alpha_study", None),
    ("experiments.export_report", "gladsim.experiments", "export_report", None),
    ("haptic.profiling_trace", "gladsim.haptic", "profiling_trace", _length),
    ("haptic.run_forecaster", "gladsim.haptic", "run_forecaster", _length),
    ("haptic.optimize_alpha", "gladsim.haptic", "optimize_alpha", None),
    ("haptic.estimate_tau", "gladsim.haptic", "estimate_tau", None),
    ("coordination.run_savings_sweep", "gladsim.coordination", "run_savings_sweep", None),
    ("coordination.onboard_machine", "gladsim.coordination", "onboard_machine", None),
    ("coordination.match_profile", "gladsim.coordination", "match_profile", None),
    ("config.load_scenario", "gladsim.config", "load_scenario", None),
)

# Labels whose calls also record their tracemalloc peak (numpy reports its
# buffers to tracemalloc, so this sees the leg's arrays).
MEMORY_LABELS = frozenset({"pon.downstream_leg"})

# (metric, label, statistic).  Statistics: "s" total seconds, "self_s" total
# self seconds, "calls", "count" (summed counter), "median_s" per-call median
# seconds, "peak_mib" largest per-call peak, "per_s" count per second of the
# label's total time.  `layer_metrics` adds pon.legs, pon.leg_reuse and
# trace.missing; BENCHMARK.json gives every metric's unit.
LAYER_METRICS = (
    ("pon.downstream_leg.s", "pon.downstream_leg", "s"),
    ("pon.downstream_leg.self_s", "pon.downstream_leg", "self_s"),
    ("pon.downstream_leg.peak_mib", "pon.downstream_leg", "peak_mib"),
    ("pon.poisson_arrivals.s", "pon.poisson_arrivals", "s"),
    ("pon.background_events", "pon.poisson_arrivals", "count"),
    ("pon.fifo_waits.s", "pon.fifo_waits", "s"),
    ("pon.fifo_waits.events_per_s", "pon.fifo_waits", "per_s"),
    ("pon.upstream_leg.s", "pon.upstream_leg", "s"),
    ("pon.upstream_leg.self_s", "pon.upstream_leg", "self_s"),
    ("pon.gated_grants.s", "pon.gated_grants", "s"),
    ("pon.gated_grants.calls", "pon.gated_grants", "calls"),
    ("pon.round_trip_base.s", "pon.round_trip_base", "s"),
    ("pon.bisect_max_span.s", "pon.bisect_max_span", "s"),
    ("traffic.generate_stream.s", "traffic.generate_stream", "s"),
    ("traffic.generate_stream.calls", "traffic.generate_stream", "calls"),
    ("experiments.sweep_point.median_s", "experiments.sweep_point", "median_s"),
    ("experiments.run_latency_sweep.self_s", "experiments.run_latency_sweep", "self_s"),
    ("experiments.export_report.s", "experiments.export_report", "s"),
    ("experiments.alpha_study.s", "experiments.alpha_study", "s"),
    ("experiments.accuracy_decay.s", "experiments.accuracy_decay", "s"),
    ("experiments.run_onboarding_study.self_s", "experiments.run_onboarding_study", "self_s"),
    ("haptic.profiling_trace.s", "haptic.profiling_trace", "s"),
    ("haptic.profiling_trace.samples", "haptic.profiling_trace", "count"),
    ("haptic.run_forecaster.s", "haptic.run_forecaster", "s"),
    ("haptic.run_forecaster.steps", "haptic.run_forecaster", "count"),
    ("haptic.run_forecaster.steps_per_s", "haptic.run_forecaster", "per_s"),
    ("haptic.optimize_alpha.s", "haptic.optimize_alpha", "s"),
    ("haptic.estimate_tau.s", "haptic.estimate_tau", "s"),
    ("coordination.onboard_machine.s", "coordination.onboard_machine", "s"),
    ("coordination.onboard_machine.self_s", "coordination.onboard_machine", "self_s"),
    ("coordination.match_profile.s", "coordination.match_profile", "s"),
    ("coordination.run_savings_sweep.s", "coordination.run_savings_sweep", "s"),
    ("config.load_scenario.s", "config.load_scenario", "s"),
)


class Tracer:
    """Records spans [label, start, end, parent, count, peak_bytes]."""

    def __init__(self, checks=None):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._checks = checks or {}
        self.missing: list[str] = []

    def _wrap(self, label, fn, counter):
        memory = label in MEMORY_LABELS
        check = self._checks.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [label, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0, 0]
            self.spans.append(span)
            self._stack.append(index)
            own_trace = memory and not tracemalloc.is_tracing()
            if own_trace:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if own_trace:
                    span[5] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if counter is not None:
                span[4] = counter(args, kwargs, out)
            if check is not None:
                check(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every target; record the ones that cannot be found."""
        for label, module_name, name, counter in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(label)
                continue
            original = getattr(module, name, None)
            if not callable(original):
                self.missing.append(label)
                continue
            traced = self._wrap(label, original, counter)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("gladsim"):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, traced)


def _label_stats(spans) -> dict:
    child_time = [0.0] * len(spans)
    for label, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (label, start, end, _, count, peak) in enumerate(spans):
        s = stats.setdefault(label, {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0,
                                     "durations": [], "peak": 0})
        s["calls"] += 1
        s["s"] += end - start
        s["self_s"] += end - start - child_time[i]
        s["count"] += count
        s["durations"].append(end - start)
        s["peak"] = max(s["peak"], peak)
    return stats


def layer_metrics(spans, missing) -> dict[str, float]:
    """Per-layer metric values of one traced run; absent layers read 0."""
    stats = _label_stats(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0, "durations": [], "peak": 0}
    out: dict[str, float] = {}
    for metric, label, stat in LAYER_METRICS:
        s = stats.get(label, empty)
        if stat == "median_s":
            value = statistics.median(s["durations"]) if s["durations"] else 0.0
        elif stat == "peak_mib":
            value = s["peak"] / MIB
        elif stat == "per_s":
            value = s["count"] / s["s"] if s["s"] > 0 else 0.0
        else:
            value = s[stat]
        out[metric] = value
    legs = (stats.get("pon.downstream_leg", empty)["calls"]
            + stats.get("pon.upstream_leg", empty)["calls"])
    points = stats.get("experiments.sweep_point", empty)["calls"]
    out["pon.legs"] = legs
    out["pon.leg_reuse"] = 4.0 * points / legs if legs else 0.0
    out["trace.missing"] = len(missing)
    return out

