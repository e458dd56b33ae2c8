"""Fast runtime self-checks behind `gladsim validate`.

Each check re-derives one contract of the simulator from first principles
(closed forms, brute-force recursions, paired runs) at a size that keeps the
whole suite under a minute.  The pytest suite covers the same ground more
thoroughly; this is the installation smoke test.
"""

from __future__ import annotations

import numpy as np

from . import coordination, haptic, pon, traffic

__all__ = ["run_invariant_suite"]


def _require(ok, message: str) -> None:
    # An explicit raise, not `assert`, so that `python -O` still checks.
    if not ok:
        raise AssertionError(message)


def _check_gpd_sampler() -> None:
    params = traffic.GpdParams(0.2, 1.0, 0.0)
    grid = np.linspace(0.0, 0.999, 500)
    q = traffic._sample_gpd(params, grid)
    _require(np.all(np.diff(q) > 0), "quantile not strictly increasing")
    near_zero = traffic.GpdParams(1e-8, 1.0, 0.0)
    zero = traffic.GpdParams(0.0, 1.0, 0.0)
    gap = np.max(np.abs(traffic._sample_gpd(near_zero, grid) - traffic._sample_gpd(zero, grid)))
    _require(gap < 1e-4, f"shape->0 discontinuity {gap}")


def _check_stream_determinism() -> None:
    p = traffic.CONTROL_TRAFFIC_DEFAULT
    a = traffic.generate_stream(p, 1e5, 13)
    b = traffic.generate_stream(p, 1e5, 13)
    _require(np.array_equal(a, b), "stream not reproducible")
    _require(np.all(np.diff(a) >= 0), "timestamps decrease")


def _check_fit_round_trip() -> None:
    p = traffic.GpdParams(0.1, 500.0, 0.0)
    stream = traffic.generate_stream(p, 500.0 / 0.9 * 30_000, 3)
    fitted = traffic.fit_gpd(np.diff(stream, prepend=0.0))
    _require(abs(fitted.shape - p.shape) < 0.08, f"shape off: {fitted.shape}")
    _require(abs(fitted.scale - p.scale) / p.scale < 0.08, f"scale off: {fitted.scale}")


def _check_ks_self() -> None:
    p = traffic.CONTROL_TRAFFIC_DEFAULT
    passes = 0
    for seed in range(20):
        stream = traffic.generate_stream(p, 3e6, seed)
        _, ok = traffic.ks_test(np.diff(stream, prepend=0.0), p, 0.05)
        passes += int(ok)
    _require(passes >= 17, f"KS self-test pass rate {passes}/20")


def _check_kingman_vs_des() -> None:
    cfg = pon.PonConfig()
    out = pon.queueing_cross_check(cfg, pon.LoadPoint(0.5), seed=7, horizon_us=1e6)
    _require(out["relative_gap"] <= 0.2, f"DES/Kingman gap {out['relative_gap']:.3f}")
    _require(pon._kingman_wait(0.0, 1.0, 1.0, 10.0) == 0.0, "Kingman wait at zero load is not 0")


def _check_zero_load_bounds() -> None:
    cfg = pon.PonConfig()
    stream = traffic.generate_stream(traffic.CONTROL_TRAFFIC_DEFAULT, 3e5, 5)
    t = stream + cfg.wireless_hop_us
    leg = pon._upstream_leg(cfg, 0.0, t, pon._spawn_rngs(9, 1)[0])
    _require(np.all(leg["queueing"] == 0.0), "queueing at zero load")
    # With nothing queued, a message waits exactly for the next cycle boundary.
    boundary = cfg.dba_cycle_us * (np.floor(t / cfg.dba_cycle_us) + 1.0)
    _require(np.array_equal(leg["dba_wait"], boundary - t), "dba wait != time to next cycle")


def _check_ai_dominance() -> None:
    cfg = pon.PonConfig()
    prop = 20.0 * cfg.fiber_delay_us_per_km
    for rho in (0.2, 0.8):
        loops = pon.round_trips(cfg, pon.LoadPoint(rho), 3, n_loops=2000)
        slow, fast = (float(base.mean()) + legs * prop
                      for base, legs in (loops[pon.NO_AI], loops[pon.WITH_AI]))
        _require(fast < slow, f"no dominance at rho={rho}")


def _check_forecaster() -> None:
    target = np.ones((5, 5))
    finals = [haptic._forecast(target[:k], 0.5, 1.0, np.zeros(5))[1] for k in range(5)]
    errs = [float(np.max(np.abs(final - 1.0))) for final in finals]
    ratios = [errs[i + 1] / errs[i] for i in range(4)]
    _require(all(abs(r - 0.5) < 1e-12 for r in ratios), "contraction factor wrong")
    _require(np.all(finals[-1] <= 1.0), "estimate escaped [0,1]")


def _check_onboarding_pair() -> None:
    profile = haptic.standard_profile(haptic.ObjectKind.RUBBER_BALL)
    registry = coordination.GlobalRegistry()
    trace0 = haptic.profiling_trace(profile, 2000, 77)
    donor = coordination.onboard_machine(profile, registry, "cold", trace0)
    coordination.upload_profile(registry, profile, donor)

    trace = haptic.profiling_trace(profile, 2000, 78)
    cold = coordination.onboard_machine(profile, registry, "cold", trace)
    warm = coordination.onboard_machine(profile, registry, "glad", trace)
    _require(warm.iterations <= cold.iterations, "warm start slower than cold")


def _check_determinism() -> None:
    a, b = (pon.round_trips(pon.PonConfig(), pon.LoadPoint(0.4), 11, n_loops=1000)
            for _ in range(2))
    for mode in (pon.NO_AI, pon.WITH_AI):
        _require(np.array_equal(a[mode][0], b[mode][0]), f"{mode} round trip not deterministic")
        _require(a[mode][1] == b[mode][1], f"{mode} fiber legs differ")


_CHECKS = [
    ("gpd-sampler-monotone-and-continuous", _check_gpd_sampler),
    ("stream-determinism", _check_stream_determinism),
    ("gpd-fit-round-trip", _check_fit_round_trip),
    ("ks-self-acceptance", _check_ks_self),
    ("kingman-vs-des", _check_kingman_vs_des),
    ("zero-load-component-bounds", _check_zero_load_bounds),
    ("with-ai-dominance", _check_ai_dominance),
    ("forecaster-contraction", _check_forecaster),
    ("onboarding-warm-not-slower", _check_onboarding_pair),
    ("summary-determinism", _check_determinism),
]


def run_invariant_suite(emit=print) -> int:
    """Run every check; returns the number of failures."""
    failures = 0
    for name, check in _CHECKS:
        try:
            check()
        except AssertionError as exc:
            failures += 1
            emit(f"FAIL {name}: {exc}")
        except Exception as exc:  # noqa: BLE001 - report, keep going
            failures += 1
            emit(f"FAIL {name}: unexpected {type(exc).__name__}: {exc}")
        else:
            emit(f"PASS {name}")
    emit(f"{len(_CHECKS) - failures}/{len(_CHECKS)} checks passed")
    return failures
