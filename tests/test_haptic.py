"""Tests for session synthesis, touch classification and forecasting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gladsim.errors import (
    DegenerateDataError,
    InsufficientDataError,
    ParameterError,
)
from gladsim.haptic import (
    ControlSample,
    ForecasterState,
    HapticSample,
    ObjectKind,
    _forecast,
    cumulative_accuracy,
    cumulative_accuracy_series,
    estimate_tau,
    forecaster_update,
    generate_session,
    label_touch,
    optimize_alpha,
    profiling_trace,
    run_forecaster,
    standard_profile,
    touch_amplitude,
    train_classifier,
)
from gladsim.traffic import CONTROL_TRAFFIC_DEFAULT


BALL = standard_profile(ObjectKind.RUBBER_BALL)


def _session(duration_us=2e6, seed=3, profile=BALL, **kwargs):
    return generate_session(profile, duration_us, CONTROL_TRAFFIC_DEFAULT, seed, **kwargs)


class TestSessionSynthesis:
    def test_pinned_at_center_amplitude_equals_stiffness(self):
        controls, haptics = _session(pin_at=BALL.center)
        assert len(haptics) == len(controls)
        for h in haptics:
            np.testing.assert_array_equal(h.amplitude, np.full(5, BALL.stiffness))

    def test_pinned_outside_extent_no_feedback(self):
        far = BALL.center + np.array([BALL.extent_cm + 1.0, 0.0, 0.0])
        _, haptics = _session(pin_at=far)
        assert haptics == []

    def test_twelve_second_session_sample_count(self):
        # ~1 kHz traffic for 12 s gives ~12000 control snapshots.
        controls, haptics = _session(duration_us=12e6, seed=7)
        assert 11_000 <= len(controls) <= 13_000
        assert 0.2 < len(haptics) / len(controls) < 0.8

    def test_amplitudes_within_unit_range_and_zero_only_outside(self):
        controls, haptics = _session(seed=11)
        for h in haptics:
            assert np.all(h.amplitude >= 0.0) and np.all(h.amplitude <= 1.0)

    def test_deterministic(self):
        c1, h1 = _session(seed=9)
        c2, h2 = _session(seed=9)
        assert len(c1) == len(c2) and len(h1) == len(h2)
        np.testing.assert_array_equal(c1[50].hand_pos, c2[50].hand_pos)
        np.testing.assert_array_equal(h1[-1].amplitude, h2[-1].amplitude)

    def test_timestamps_strictly_ordered(self):
        controls, _ = _session(seed=13)
        times = np.array([c.t_us for c in controls])
        assert np.all(np.diff(times) >= 0.0)

    def test_duration_must_be_positive(self):
        with pytest.raises(ParameterError):
            generate_session(BALL, 0.0, CONTROL_TRAFFIC_DEFAULT, 1)

    def test_touch_amplitude_boundary_is_zero(self):
        edge = BALL.center + np.array([BALL.extent_cm, 0.0, 0.0])
        np.testing.assert_array_equal(touch_amplitude(BALL, edge, 0.0), np.zeros(5))


class TestLabelTouch:
    def _sample_at(self, pos):
        return ControlSample(t_us=0.0, hand_pos=pos, hand_orient=np.zeros(3),
                             finger_pressure=np.zeros(5))

    def test_center_is_touch(self):
        assert label_touch(self._sample_at(BALL.center), BALL)

    def test_boundary_is_touch(self):
        pos = BALL.center + np.array([BALL.extent_cm, 0.0, 0.0])
        assert label_touch(self._sample_at(pos), BALL)

    def test_just_outside_is_not(self):
        pos = BALL.center + np.array([BALL.extent_cm + 1e-6, 0.0, 0.0])
        assert not label_touch(self._sample_at(pos), BALL)


class TestClassifier:
    def _dataset(self, seed=5, duration=12e6):
        controls, _ = _session(duration_us=duration, seed=seed)
        return [(c, label_touch(c, BALL)) for c in controls]

    def test_validation_accuracy_on_synthetic_dataset(self):
        clf, accuracy = train_classifier(self._dataset(), 0.7, seed=1)
        assert accuracy >= 0.95

    def test_deterministic_fit(self):
        data = self._dataset(seed=8, duration=3e6)
        clf1, acc1 = train_classifier(data, 0.7, seed=2)
        clf2, acc2 = train_classifier(data, 0.7, seed=2)
        assert acc1 == acc2
        np.testing.assert_array_equal(clf1.weights, clf2.weights)

    def test_single_class_rejected(self):
        sample = ControlSample(t_us=0.0, hand_pos=np.zeros(3),
                               hand_orient=np.zeros(3), finger_pressure=np.zeros(5))
        data = [(sample, True)] * 200
        with pytest.raises(DegenerateDataError):
            train_classifier(data, 0.7, seed=1)

    def test_small_dataset_rejected(self):
        data = self._dataset(seed=8, duration=3e6)[:99]
        with pytest.raises(InsufficientDataError):
            train_classifier(data, 0.7, seed=1)

    def test_bad_fraction(self):
        with pytest.raises(ParameterError):
            train_classifier(self._dataset(seed=8, duration=3e6), 1.0, seed=1)


class TestForecaster:
    def test_full_replacement_at_alpha_one(self):
        state = ForecasterState(profile_estimate=np.full(5, 0.2), alpha_local=1.0)
        observed = HapticSample(t_us=0.0, amplitude=np.full(5, 0.9))
        updated = forecaster_update(state, observed)
        np.testing.assert_array_equal(updated.profile_estimate, observed.amplitude)
        assert updated.updates_seen == 1

    def test_recurrence_example_half_alpha(self):
        # 0 -> 0.5 -> 0.75 -> 0.875 under alpha = 0.5 toward 1.0
        state = ForecasterState(profile_estimate=np.zeros(5), alpha_local=0.5)
        observed = HapticSample(t_us=0.0, amplitude=np.ones(5))
        seen = []
        for _ in range(3):
            state = forecaster_update(state, observed)
            seen.append(float(state.profile_estimate[0]))
        assert seen == [0.5, 0.75, 0.875]

    def test_near_zero_alpha_is_near_identity(self):
        state = ForecasterState(profile_estimate=np.full(5, 0.4), alpha_local=1e-9)
        observed = HapticSample(t_us=0.0, amplitude=np.ones(5))
        updated = forecaster_update(state, observed)
        np.testing.assert_allclose(updated.profile_estimate, 0.4, atol=1e-8)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_geometric_contraction(self, alpha):
        target = np.full(5, 0.8)
        state = ForecasterState(profile_estimate=np.zeros(5), alpha_local=alpha)
        observed = HapticSample(t_us=0.0, amplitude=target)
        prev_gap = np.linalg.norm(state.profile_estimate - target)
        for _ in range(6):
            state = forecaster_update(state, observed)
            gap = np.linalg.norm(state.profile_estimate - target)
            assert gap == pytest.approx(prev_gap * (1.0 - alpha), rel=1e-12)
            prev_gap = gap

    @pytest.mark.parametrize("seed", range(4))
    def test_estimate_stays_in_unit_box(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        state = ForecasterState(profile_estimate=rng.random(5), alpha_local=0.3)
        for _ in range(200):
            obs = HapticSample(t_us=0.0, amplitude=rng.random(5))
            state = forecaster_update(state, obs)
            assert np.all(state.profile_estimate >= 0.0)
            assert np.all(state.profile_estimate <= 1.0)

    def test_alpha_out_of_range(self):
        with pytest.raises(ParameterError):
            ForecasterState(profile_estimate=np.zeros(5), alpha_local=0.0)

    def test_profiling_forecasts_converge(self):
        # Over a 4000-sample profiling trace, >= 90% of post-convergence
        # forecasts fall within the 0.05 tolerance of the observed feedback.
        trace = profiling_trace(BALL, 4000, seed=21)
        hits = run_forecaster(trace, alpha=0.005, epsilon=0.05)
        assert hits[1000:].mean() >= 0.9


def _step_loop(trace, alpha, epsilon, initial):
    """Forecast-then-update with one `forecaster_update` call per sample."""
    state = ForecasterState(profile_estimate=initial, alpha_local=alpha)
    hits = []
    for observed in trace:
        hits.append(np.max(np.abs(state.profile_estimate - observed.amplitude)) <= epsilon)
        state = forecaster_update(state, observed)
    return np.array(hits, dtype=bool), state.profile_estimate


_unit_floats = st.floats(0.0, 1.0)


class TestForecastCore:
    @settings(deadline=None)
    @given(x=arrays(np.float64, st.tuples(st.integers(1, 300), st.just(5)),
                    elements=_unit_floats),
           alpha=st.floats(0.0, 1.0, exclude_min=True),
           epsilon=st.floats(0.0, 2.0, exclude_min=True),
           initial=arrays(np.float64, 5, elements=_unit_floats))
    def test_matches_step_loop(self, x, alpha, epsilon, initial):
        trace = [HapticSample(t_us=float(i), amplitude=row) for i, row in enumerate(x)]
        expected_hits, expected_final = _step_loop(trace, alpha, epsilon, initial)
        assert np.array_equal(run_forecaster(trace, alpha, epsilon, initial), expected_hits)
        assert np.array_equal(run_forecaster(x, alpha, epsilon, initial), expected_hits)
        hits, final = _forecast(x, alpha, epsilon, initial)
        assert np.array_equal(hits, expected_hits)
        assert np.array_equal(final, expected_final)

    def test_empty_trace(self):
        assert run_forecaster([], 0.5, 0.05).shape == (0,)
        _, final = _forecast(np.empty((0, 5)), 0.5, 0.05, np.full(5, 0.3))
        np.testing.assert_array_equal(final, np.full(5, 0.3))


class TestCumulativeAccuracy:
    def test_identical_sequences(self):
        trace = profiling_trace(BALL, 120, seed=1)
        assert cumulative_accuracy(trace, trace, 0.05) == 1.0

    def test_all_misses(self):
        a = np.zeros((50, 5))
        b = np.full((50, 5), 0.5)
        assert cumulative_accuracy(a, b, 0.05) == 0.0

    def test_half_within_tolerance(self):
        a = np.zeros((10, 5))
        b = np.zeros((10, 5))
        b[5:] = 1.0
        assert cumulative_accuracy(a, b, 0.05) == 0.5

    def test_series_is_running_fraction(self):
        a = np.zeros((4, 5))
        b = np.zeros((4, 5))
        b[1] = 1.0
        np.testing.assert_allclose(
            cumulative_accuracy_series(a, b, 0.05), [1.0, 0.5, 2 / 3, 0.75]
        )

    def test_appending_hit_preserves_perfect_accuracy(self):
        a = np.zeros((30, 5))
        b = a + 0.04
        assert cumulative_accuracy(a, b, 0.05) == 1.0
        a2 = np.vstack([a, np.full((1, 5), 0.5)])
        b2 = np.vstack([b, np.full((1, 5), 0.5)])
        assert cumulative_accuracy(a2, b2, 0.05) == 1.0

    def test_misaligned_rejected(self):
        with pytest.raises(ParameterError):
            cumulative_accuracy(np.zeros((3, 5)), np.zeros((4, 5)), 0.05)

    def test_bad_epsilon(self):
        with pytest.raises(ParameterError):
            cumulative_accuracy(np.zeros((3, 5)), np.zeros((3, 5)), 0.0)


class TestEstimateTau:
    def test_constant_trace_degenerate(self):
        trace = [HapticSample(t_us=i, amplitude=np.full(5, 0.3)) for i in range(10)]
        with pytest.raises(DegenerateDataError):
            estimate_tau(trace)

    def test_alternating_is_near_minus_one(self):
        amp = np.zeros((400, 5))
        amp[1::2] = 1.0
        tau = estimate_tau(amp)
        assert tau == pytest.approx(-1.0, abs=0.02)

    def test_dense_sinusoid_is_strongly_positive(self):
        t = np.arange(2000)
        x = 0.5 + 0.4 * np.sin(2 * np.pi * t / 500.0)
        amp = np.tile(x[:, None], (1, 5))
        assert estimate_tau(amp) > 0.9

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            estimate_tau(np.zeros((2, 5)))

    def test_within_bounds_on_noise(self):
        rng = np.random.Generator(np.random.PCG64(2))
        tau = estimate_tau(rng.random((500, 5)))
        assert -1.0 <= tau <= 1.0


class TestOptimizeAlpha:
    def test_singleton_grid(self):
        trace = profiling_trace(BALL, 300, seed=2)
        assert optimize_alpha(trace, [0.3]) == 0.3

    def test_returned_alpha_is_grid_argmax(self):
        # Re-evaluating every grid point is the oracle for the argmax.
        trace = profiling_trace(BALL, 600, seed=3, noise_std=0.03)
        grid = [0.05, 0.1, 0.2, 0.4, 0.8]
        best = optimize_alpha(trace, grid)
        accs = {a: run_forecaster(trace, a, 0.05).mean() for a in grid}
        assert best in grid
        assert accs[best] == max(accs.values())

    def test_tie_breaks_toward_smaller_alpha(self):
        # A constant trace within tolerance of zero makes every alpha perfect.
        amp = np.full(5, 0.04)
        trace = [HapticSample(t_us=float(i), amplitude=amp) for i in range(150)]
        assert optimize_alpha(trace, [1.0, 0.9]) == 0.9

    def test_requires_enough_samples(self):
        trace = profiling_trace(BALL, 99, seed=1)
        with pytest.raises(InsufficientDataError):
            optimize_alpha(trace, [0.1])

    def test_rejects_out_of_range_grid(self):
        trace = profiling_trace(BALL, 200, seed=1)
        with pytest.raises(ParameterError):
            optimize_alpha(trace, [0.0, 0.5])
