"""Acceptance criteria for the testbed, one test per criterion.

Each test prints a single `ACCEPTANCE <n> PASS|FAIL` line (visible with
`pytest -s tests/test_acceptance.py`) and pins the tolerance stated for the
criterion.  Only criterion 3 uses the module fixture `span_zero_means`, the
default grid's per-(load, seed) leg simulations; criteria 1 and 2 run their
own sweeps.
"""

import contextlib

import numpy as np
import pytest

from gladsim import coordination, haptic, pon, traffic
from gladsim.cli import main as cli_main
from gladsim.experiments import (
    GladParams,
    ScenarioConfig,
    run_latency_sweep,
    run_onboarding_study,
)
from gladsim.pon import NO_AI, WITH_AI

DEADLINE_US = 1000.0
DEFAULT_SEEDS = tuple(range(1, 11))
DEFAULT_LOADS = tuple(round(0.1 * k, 1) for k in range(1, 10))
DEFAULT_SPANS = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
FIBER_US_PER_KM = 5.0


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


@pytest.fixture(scope="module")
def span_zero_means():
    """Per-(load, seed) round-trip means at zero span for both modes.

    Spans only add propagation (4 fiber legs without AI, 2 with), so every
    grid point's mean derives from these by a linear shift.
    """
    cfg = pon.PonConfig(span_km=0.0)
    means = {}
    for rho in DEFAULT_LOADS:
        for seed in DEFAULT_SEEDS:
            loops = pon.round_trips(cfg, pon.LoadPoint(rho), seed)
            for mode, (base, _) in loops.items():
                means[(rho, seed, mode)] = float(base.mean())
    return means


def test_criterion_1_no_ai_exceeds_deadline_at_20km_high_load():
    """Span 20 km (40 km operator-machine), rho 0.9: mean round trip > 1 ms."""
    with criterion(1, "no-AI mean round trip at 20 km span, rho 0.9 exceeds 1 ms"):
        config = ScenarioConfig(load_grid=(0.9,), span_grid_km=(20.0,),
                                seeds=DEFAULT_SEEDS)
        report = run_latency_sweep(config)
        rows = [r for r in report.tables["latency"].rows if r[2] == NO_AI]
        assert len(rows) == 1
        assert rows[0][3] > DEADLINE_US


def test_criterion_2_with_ai_meets_deadline_at_30km_load_08():
    """Span 30 km (60 km operator-machine), rho 0.8: with-AI mean <= 1 ms."""
    with criterion(2, "with-AI mean at 30 km span, rho 0.8 within 1 ms; "
                      "feasible span >= 30 km"):
        config = ScenarioConfig(load_grid=(0.8,), span_grid_km=(30.0,),
                                seeds=DEFAULT_SEEDS)
        report = run_latency_sweep(config)
        rows = [r for r in report.tables["latency"].rows if r[2] == WITH_AI]
        assert len(rows) == 1
        assert rows[0][3] <= DEADLINE_US
        crossings = [r for r in report.tables["deadline_crossing"].rows
                     if r[:2] == (0.8, WITH_AI)]
        assert len(crossings) == 1
        assert crossings[0][2] >= 30.0


def test_criterion_3_with_ai_dominates_entire_default_grid(span_zero_means):
    """with-AI mean < no-AI mean at every (span, rho, seed) of the default grid."""
    with criterion(3, "with-AI mean below no-AI mean across the full default grid"):
        for rho in DEFAULT_LOADS:
            for seed in DEFAULT_SEEDS:
                for span in DEFAULT_SPANS:
                    slow = span_zero_means[(rho, seed, NO_AI)] + 4 * span * FIBER_US_PER_KM
                    fast = span_zero_means[(rho, seed, WITH_AI)] + 2 * span * FIBER_US_PER_KM
                    assert fast < slow, f"dominance fails at {(span, rho, seed)}"
        # spot-check the linear span composition against the sweep's own mean
        report = run_latency_sweep(ScenarioConfig(load_grid=(0.5,), span_grid_km=(20.0,),
                                                  seeds=(3,)))
        rows = [r for r in report.tables["latency"].rows if r[2] == NO_AI]
        assert len(rows) == 1
        composed = span_zero_means[(0.5, 3, NO_AI)] + 4 * 20.0 * FIBER_US_PER_KM
        assert rows[0][3] == pytest.approx(composed, rel=1e-12)


def test_criterion_4_streams_pass_ks_at_5pct():
    """>= 90 of 100 seeded streams pass the KS test against their own law."""
    with criterion(4, "KS goodness of fit at 5% significance passes >= 90/100 seeds"):
        params = traffic.GpdParams(0.1, 900.0, 0.0)
        horizon = traffic.gpd_mean(params) * 10_000  # ~1e4 samples per stream
        passes = 0
        for seed in range(100):
            stream = traffic.generate_stream(params, horizon, seed)
            _, ok = traffic.ks_test(stream.inter_arrivals, params, 0.05)
            passes += int(ok)
        assert passes >= 90, f"only {passes}/100 passed"


def test_criterion_5_des_agrees_with_kingman():
    """DES mean queueing within 20% of Kingman with DES-measured moments."""
    with criterion(5, "DES queueing within 20% of the Kingman approximation "
                      "for rho in 0.1..0.7"):
        cfg = pon.PonConfig()
        for rho in DEFAULT_LOADS[:7]:
            gaps = []
            for seed in (1, 2):
                out = pon.queueing_cross_check(cfg, pon.LoadPoint(rho), seed,
                                               horizon_us=2e6)
                gaps.append(out["relative_gap"])
            assert min(gaps) <= 0.2, f"rho={rho}: gaps {gaps}"
            assert float(np.mean(gaps)) <= 0.2, f"rho={rho}: mean gap {np.mean(gaps)}"


def test_criterion_6_accuracy_decays_on_cold_additions():
    """Windowed accuracy is 1.0 with one converged machine and strictly drops
    at each cold addition."""
    with criterion(6, "accuracy 1.0 with one machine; strict drop at each "
                      "cold-mode addition"):
        config = ScenarioConfig(
            seeds=(1,),
            glad=GladParams(add_every=400, additions=3, profiling_samples=1800,
                            total_machines=3, machines_grid=(1, 2)),
        )
        report = run_onboarding_study(config)
        rows = report.tables["accuracy_curve"].rows
        cold = {r[0]: r[3] for r in rows if r[1] == coordination.COLD}
        additions = (401, 801, 1201)
        assert all(cold[t] == 1.0 for t in range(1, 400))
        for t_add in additions:
            assert cold[t_add] < cold[t_add - 1], f"no drop at iteration {t_add}"


def test_criterion_7_training_time_saved_calibration():
    """Exact-match onboarding saves 72 +/- 10 pct of cold iterations (30 seeds);
    warm never exceeds cold; savings non-decreasing in machine count."""
    with criterion(7, "mean training time saved 72 +/- 10 pct over 30 seeds; "
                      "T_warm <= T_cold; savings non-decreasing in M"):
        profile = haptic.standard_profile(haptic.ObjectKind.RUBBER_BALL)
        saved = []
        for seed in range(30):
            registry = coordination.GlobalRegistry()
            donor_trace = haptic.profiling_trace(profile, 4000, 10_000 + seed)
            donor = coordination.onboard_machine(profile, registry, coordination.COLD,
                                                 donor_trace)
            coordination.upload_profile(registry, profile, donor, source="donor")

            trace = haptic.profiling_trace(profile, 4000, seed)
            cold = coordination.onboard_machine(
                profile, registry, coordination.COLD, trace)
            warm = coordination.onboard_machine(
                profile, registry, coordination.GLAD, trace)
            assert warm.match_similarity == 1.0
            assert warm.iterations <= cold.iterations
            saved.append(coordination.training_time_saved(
                cold.iterations, warm.iterations))
        mean_saved = float(np.mean(saved))
        assert 62.0 <= mean_saved <= 82.0, f"mean saved {mean_saved:.1f}%"

        curve = coordination.run_savings_sweep(GladParams(), seed=1)
        values = [s for _, s in curve]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_criterion_8_reruns_are_byte_identical(tmp_path):
    """The CLI re-run with identical config and seeds reproduces every byte."""
    with criterion(8, "identical config and seeds reproduce byte-identical reports"):
        cfg_text = (
            "[grid]\n"
            "loads = 0.4, 0.9\n"
            "spans_km = 20\n"
            "seeds = 1, 2\n"
            "n_loops = 1000\n"
            "[glad]\n"
            "total_machines = 3\n"
            "profiling_samples = 1200\n"
            "add_every = 250\n"
            "additions = 1\n"
            "machines_grid = 1, 2\n"
        )
        cfg_path = tmp_path / "scenario.cfg"
        cfg_path.write_text(cfg_text)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli_main(["latency-sweep", "--config", str(cfg_path),
                             "--out", str(out)]) == 0
            assert cli_main(["onboarding", "--config", str(cfg_path),
                             "--out", str(out)]) == 0
            outs.append(out)
        files_a = sorted(p for p in outs[0].iterdir())
        files_b = sorted(p for p in outs[1].iterdir())
        assert [p.name for p in files_a] == [p.name for p in files_b]
        assert files_a, "no report files produced"
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes(), f"{pa.name} differs"


def test_criterion_9_classifier_validation_accuracy():
    """12000-sample synthetic dataset, 70/30 split: accuracy >= 0.95."""
    with criterion(9, "touch classifier validation accuracy >= 0.95 on the "
                      "12000-sample dataset"):
        profile = haptic.standard_profile(haptic.ObjectKind.RUBBER_BALL)
        controls, _ = haptic.generate_session(
            profile, 12e6, traffic.CONTROL_TRAFFIC_DEFAULT, seed=42)
        assert 11_000 <= len(controls) <= 13_000
        labels = haptic.label_touch(controls, profile)
        _, accuracy = haptic.train_classifier(controls, labels, 0.7, seed=7)
        assert accuracy >= 0.95, f"accuracy {accuracy:.4f}"
