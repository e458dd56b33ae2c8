"""The benchmark's workloads: which runner, on which scenario, and how much work.

Each workload is one scenario file derived from the workload seed and run by
one of gladsim's public runners.  The program only ever sees the scenario
file; the seed never reaches it any other way.
"""

from __future__ import annotations

LATENCY = "latency"
ONBOARDING = "onboarding"

# Persistences `experiments._alpha_study` draws one profiling trace for.
ALPHA_STUDY_TRACES = 3

# Name -> (runner, workload seed -> [grid] overrides).
WORKLOADS = {
    # The default 9-load x 8-span grid at the default 10k loops, two seeds
    # (2n and 2n+1 for workload seed n): light and heavy points alike, so
    # per-point costs dominate, and the cross-seed percentiles and crossing
    # means of the default sweep are paid and checked.
    "sweep-grid": (LATENCY, lambda seed: {"seeds": f"{2 * seed}, {2 * seed + 1}"}),
    # One rho 0.9 point at 3x the default loops (the 50M-event cap is reached
    # near 55k): per-event background work on arrays far beyond cache.
    "sweep-deep": (LATENCY, lambda seed: {"loads": "0.9", "seeds": str(seed),
                                          "n_loops": "30000"}),
    # The default onboarding study: the whole learning side, no PON code.
    "onboarding": (ONBOARDING, lambda seed: {"seeds": str(seed)}),
}


def scenario_text(workload: str, seed: int) -> str:
    """The INI scenario file the workload's process loads."""
    _, grid = WORKLOADS[workload]
    lines = ["[grid]"]
    lines.extend(f"{key} = {value}" for key, value in grid(seed).items())
    return "\n".join(lines) + "\n"


def _forecaster_steps(g) -> int:
    """`run_forecaster` steps of the onboarding study.

    The savings sweep runs cold and warm on every machine's trace, and the
    alpha study runs every grid alpha over every subsampled trace of at least
    100 samples.
    """
    savings = 2 * g.total_machines * g.profiling_samples
    sub_lengths = [-(-g.profiling_samples // m) for m in g.machines_grid]
    return savings + ALPHA_STUDY_TRACES * len(g.alpha_grid) * sum(
        n for n in sub_lengths if n >= 100)


def nominal_loops(workload: str, config) -> int:
    """Closed loops the scenario asks for, independent of how they are computed.

    A latency sweep simulates n_loops loops per (load, seed) in each of the two
    modes.  In the onboarding study every forecast-then-update step is one
    loop the edge AI closes with a forecast: the accuracy curves (each present
    machine once per iteration, both modes) and every `run_forecaster` step.
    """
    if WORKLOADS[workload][0] == LATENCY:
        return config.n_loops * len(config.load_grid) * len(config.seeds) * 2
    g = config.glad
    curves = 2 * g.add_every * sum(range(1, g.additions + 2))
    return curves + _forecaster_steps(g)


def expected_counts(workload: str, config) -> dict[str, int | None]:
    """Per-layer counts a traced process must report, from the scenario alone.

    A sweep point simulates four legs without AI and two with it.  The
    onboarding study draws one trace per machine per curve mode, one per
    savings-sweep machine and one per alpha-study persistence.  The sweeps'
    background event count depends on the random draws, so it is None here and
    taken from the checked-in reference where that has the seed.
    """
    if WORKLOADS[workload][0] == LATENCY:
        return {"pon.legs": 6 * len(config.load_grid) * len(config.seeds),
                "pon.background_events": None,
                "haptic.run_forecaster.steps": 0,
                "haptic.profiling_trace.samples": 0}
    g = config.glad
    curve_traces = 2 * (g.additions + 1) * g.add_every * (g.additions + 1)
    return {"pon.legs": 0,
            "pon.background_events": 0,
            "haptic.run_forecaster.steps": _forecaster_steps(g),
            "haptic.profiling_trace.samples": (
                curve_traces + (g.total_machines + ALPHA_STUDY_TRACES) * g.profiling_samples)}
