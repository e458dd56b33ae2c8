"""Tests for session synthesis, touch classification and forecasting."""

import math
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gladsim import haptic
from gladsim.errors import (
    DegenerateDataError,
    InsufficientDataError,
    ParameterError,
)
from gladsim.haptic import (
    ControlTrace,
    HapticSample,
    HapticTrace,
    ObjectKind,
    ObjectProfile,
    _blocked_first_order,
    _blocks,
    _feedback,
    _first_order,
    _forecast,
    _forecast_hits,
    _hit_margin,
    _hits,
    _last_state,
    _smooth_noise,
    estimate_tau,
    generate_session,
    label_touch,
    optimize_alpha,
    profiling_trace,
    run_forecaster,
    standard_profile,
    train_classifier,
)
from gladsim.traffic import CONTROL_TRAFFIC_DEFAULT, generate_stream


BALL = standard_profile(ObjectKind.RUBBER_BALL)


def _session(duration_us=2e6, seed=3, profile=BALL, **kwargs):
    return generate_session(profile, duration_us, CONTROL_TRAFFIC_DEFAULT, seed, **kwargs)


def _trace(amplitude):
    """A haptic trace of the given (n, 5) amplitudes, one sample per microsecond."""
    amplitude = np.asarray(amplitude, dtype=float)
    return HapticTrace(t_us=np.arange(amplitude.shape[0], dtype=float), amplitude=amplitude)


def _controls(hand_pos):
    """Control columns at the given hand positions, everything else zero."""
    hand_pos = np.asarray(hand_pos, dtype=float)
    n = hand_pos.shape[0]
    return ControlTrace(t_us=np.arange(n, dtype=float), hand_pos=hand_pos,
                        hand_orient=np.zeros((n, 3)), finger_pressure=np.zeros((n, 5)))


# Instants over a 3 s session, at many texture phases.
FIXED_TIMES = np.array([0.0, 1.0, 1234.5, 8.6e5, 2.9e6])


class TestFeedbackAtFixedPositions:
    # The touch flags at these positions are checked in TestLabelTouch.
    def test_center_amplitude_equals_stiffness(self):
        amp = _feedback(BALL, np.zeros(FIXED_TIMES.size), FIXED_TIMES)
        np.testing.assert_array_equal(amp, np.full((FIXED_TIMES.size, 5), BALL.stiffness))

    def test_outside_extent_no_feedback(self):
        far = np.full(FIXED_TIMES.size, BALL.extent_cm + 1.0)
        np.testing.assert_array_equal(_feedback(BALL, far, FIXED_TIMES),
                                      np.zeros((FIXED_TIMES.size, 5)))

    def test_touch_amplitude_boundary_is_zero(self):
        edge = np.full(FIXED_TIMES.size, BALL.extent_cm)
        np.testing.assert_array_equal(_feedback(BALL, edge, FIXED_TIMES),
                                      np.zeros((FIXED_TIMES.size, 5)))


class TestSessionSynthesis:
    def test_twelve_second_session_sample_count(self):
        # ~1 kHz traffic for 12 s gives ~12000 control snapshots.
        controls, haptics = _session(duration_us=12e6, seed=7)
        assert 11_000 <= len(controls) <= 13_000
        assert 0.2 < len(haptics) / len(controls) < 0.8

    def test_amplitudes_within_unit_range_and_zero_only_outside(self):
        _, haptics = _session(seed=11)
        assert np.all(haptics.amplitude >= 0.0) and np.all(haptics.amplitude <= 1.0)

    def test_deterministic(self):
        c1, h1 = _session(seed=9)
        c2, h2 = _session(seed=9)
        assert len(c1) == len(c2) and len(h1) == len(h2)
        np.testing.assert_array_equal(c1.hand_pos[50], c2.hand_pos[50])
        np.testing.assert_array_equal(h1.amplitude[-1], h2.amplitude[-1])

    def test_timestamps_strictly_ordered(self):
        controls, _ = _session(seed=13)
        assert np.all(np.diff(controls.t_us) >= 0.0)

    def test_session_without_arrivals_is_empty(self):
        # No control arrival within 1 us of ~1 kHz traffic.
        controls, haptics = _session(duration_us=1.0)
        assert len(controls) == len(haptics) == 0
        assert controls.hand_pos.shape == (0, 3) and haptics.amplitude.shape == (0, 5)


def _session_loop(profile, duration_us, control_params, seed):
    """`generate_session` one control sample at a time, as it was written
    before it returned columns.

    Returns the control columns, the touching mask and the haptic columns.
    """
    times = generate_stream(control_params, duration_us, seed)
    n = times.size
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xC0FFEE))))
    phase = 2.0 * math.pi * times / 1.0e6
    radius = profile.extent_cm * (
        1.05 + 1.15 * np.cos(phase) + 0.08 * _smooth_noise_loop(rng, n)
    )
    radius = np.clip(radius, 0.0, None)
    azimuth = 2.0 * math.pi * times / 3.0e6
    polar = math.pi / 3.0 + 0.2 * _smooth_noise_loop(rng, n)
    direction = np.stack([np.sin(polar) * np.cos(azimuth),
                          np.sin(polar) * np.sin(azimuth),
                          np.cos(polar)], axis=1)
    positions = profile.center + direction * radius[:, None]
    orientations = 0.5 * np.stack([_smooth_noise_loop(rng, n) for _ in range(3)], axis=1)
    touching = np.linalg.norm(positions - profile.center, axis=1) <= profile.extent_cm

    pressure_noise = rng.random((n, 5))
    pressures, haptic_times, amplitudes = [], [], []
    for i in range(n):
        t = float(times[i])
        if touching[i]:
            amp = _touch_amplitude_loop(profile, positions[i], t)
            pressures.append(np.clip(amp * (0.7 + 0.3 * pressure_noise[i]), 0.0, 1.0))
            haptic_times.append(t)
            amplitudes.append(amp)
        else:
            pressures.append(0.05 * pressure_noise[i])
    return (times, positions, orientations, np.array(pressures).reshape(n, 5), touching,
            np.array(haptic_times), np.array(amplitudes).reshape(-1, 5))


OFF_CENTER = ObjectProfile(ObjectKind.CUSTOM, np.array([3.0, -2.0, 1.5]), 4.0, 0.9, 120.0)


class TestSessionColumns:
    @pytest.mark.parametrize("profile, seed", [
        (BALL, 1),
        (BALL, 42),
        (OFF_CENTER, 7),
        (OFF_CENTER, 8),
    ], ids=["ball-1", "ball-42", "off-center-7", "off-center-8"])
    def test_matches_sample_loop(self, profile, seed):
        # The loop took each touching row's distance from the 1-D norm, which
        # can differ from the row norm in the last bit; so can what follows.
        controls, haptics = generate_session(profile, 3e6, CONTROL_TRAFFIC_DEFAULT, seed)
        t_us, pos, orient, pressure, touching, haptic_t, amplitude = _session_loop(
            profile, 3e6, CONTROL_TRAFFIC_DEFAULT, seed)
        assert _same_bits(controls.t_us, t_us)
        assert _same_bits(controls.hand_pos, pos)
        assert _same_bits(controls.hand_orient, orient)
        assert np.array_equal(label_touch(controls, profile), touching)
        assert _same_bits(haptics.t_us, haptic_t)
        np.testing.assert_allclose(haptics.amplitude, amplitude, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(controls.finger_pressure, pressure, rtol=0.0, atol=1e-15)


class TestControlTrace:
    def test_len(self):
        assert len(_controls(np.zeros((7, 3)))) == 7

    @pytest.mark.parametrize("column, value", [
        ("t_us", np.zeros((4, 1))),
        ("hand_pos", np.zeros((4, 2))),
        ("hand_orient", np.zeros((3, 3))),
        ("finger_pressure", np.zeros(4)),
        ("t_us", np.array([0.0, np.inf, 2.0, 3.0])),
        ("hand_pos", np.full((4, 3), np.nan)),
        ("hand_orient", np.full((4, 3), np.nan)),
        ("finger_pressure", np.full((4, 5), -0.1)),
        ("finger_pressure", np.full((4, 5), 1.1)),
    ])
    def test_rejects_bad_columns(self, column, value):
        columns = dict(t_us=np.zeros(4), hand_pos=np.zeros((4, 3)),
                       hand_orient=np.zeros((4, 3)), finger_pressure=np.zeros((4, 5)))
        columns[column] = value
        with pytest.raises(ParameterError):
            ControlTrace(**columns)


class TestLabelTouch:
    def test_center_is_touch(self):
        assert label_touch(_controls([BALL.center]), BALL).tolist() == [True]

    def test_boundary_is_touch(self):
        pos = BALL.center + np.array([BALL.extent_cm, 0.0, 0.0])
        assert label_touch(_controls([pos]), BALL).tolist() == [True]

    def test_just_outside_is_not(self):
        pos = BALL.center + np.array([BALL.extent_cm + 1e-6, 0.0, 0.0])
        assert label_touch(_controls([pos]), BALL).tolist() == [False]


class TestClassifier:
    def _dataset(self, seed=5, duration=12e6):
        controls, _ = _session(duration_us=duration, seed=seed)
        return controls, label_touch(controls, BALL)

    def test_validation_accuracy_on_synthetic_dataset(self):
        clf, accuracy = train_classifier(*self._dataset(), 0.7, seed=1)
        assert accuracy >= 0.95

    def test_deterministic_fit(self):
        controls, labels = self._dataset(seed=8, duration=3e6)
        clf1, acc1 = train_classifier(controls, labels, 0.7, seed=2)
        clf2, acc2 = train_classifier(controls, labels, 0.7, seed=2)
        assert acc1 == acc2
        np.testing.assert_array_equal(clf1.weights, clf2.weights)

    def test_predict_on_held_out_rows_reads_the_accuracy(self):
        controls, labels = self._dataset(seed=8, duration=3e6)
        clf, accuracy = train_classifier(controls, labels, 0.7, seed=2)
        # The held-out rows, from the split's seeded permutation.
        order = np.random.Generator(np.random.PCG64(2)).permutation(len(labels))
        held = order[int(len(labels) * 0.7):]
        rows = ControlTrace(controls.t_us[held], controls.hand_pos[held],
                            controls.hand_orient[held], controls.finger_pressure[held])
        flags = clf.predict(rows)
        assert flags.dtype == bool and flags.shape == held.shape
        assert np.mean(flags == labels[held]) == accuracy < 1.0

    def test_single_class_rejected(self):
        controls = _controls(np.zeros((200, 3)))
        with pytest.raises(DegenerateDataError):
            train_classifier(controls, np.ones(200, dtype=bool), 0.7, seed=1)

    def test_small_dataset_rejected(self):
        labels = np.arange(99) % 2 == 0
        with pytest.raises(InsufficientDataError):
            train_classifier(_controls(np.zeros((99, 3))), labels, 0.7, seed=1)

    def test_one_label_per_row(self):
        controls, labels = self._dataset(seed=8, duration=3e6)
        with pytest.raises(ParameterError):
            train_classifier(controls, labels[:-1], 0.7, seed=1)


def _final(x, alpha, initial):
    return _forecast(np.asarray(x, dtype=float).reshape(-1, 5), alpha, 1.0, initial)[1]


class TestForecaster:
    def test_full_replacement_at_alpha_one(self):
        observed = np.full(5, 0.9)
        final = _final([observed], 1.0, np.full(5, 0.2))
        np.testing.assert_array_equal(final, observed)

    def test_recurrence_example_half_alpha(self):
        # 0 -> 0.5 -> 0.75 -> 0.875 under alpha = 0.5 toward 1.0
        seen = [float(_final(np.ones((k, 5)), 0.5, np.zeros(5))[0]) for k in (1, 2, 3)]
        assert seen == [0.5, 0.75, 0.875]

    def test_near_zero_alpha_is_near_identity(self):
        final = _final(np.ones((1, 5)), 1e-9, np.full(5, 0.4))
        np.testing.assert_allclose(final, 0.4, atol=1e-8)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_geometric_contraction(self, alpha):
        target = np.full(5, 0.8)
        prev_gap = np.linalg.norm(target)
        for k in range(1, 7):
            gap = np.linalg.norm(_final(np.tile(target, (k, 1)), alpha, np.zeros(5)) - target)
            assert gap == pytest.approx(prev_gap * (1.0 - alpha), rel=1e-12)
            prev_gap = gap

    @pytest.mark.parametrize("seed", range(4))
    def test_estimate_stays_in_unit_box(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        initial = rng.random(5)
        x = rng.random((200, 5))
        for k in range(1, 201):
            final = _final(x[:k], 0.3, initial)
            assert np.all(final >= 0.0)
            assert np.all(final <= 1.0)

    @pytest.mark.parametrize("initial", [np.zeros(4), np.full(5, np.nan), np.zeros((5, 1))])
    def test_initial_estimate_must_be_a_finite_five_vector(self, initial):
        with pytest.raises(ParameterError):
            run_forecaster(_trace(np.zeros((3, 5))), 0.5, 0.05, initial_estimate=initial)

    def test_profiling_forecasts_converge(self):
        # Over a 4000-sample profiling trace, >= 90% of post-convergence
        # forecasts fall within the 0.05 tolerance of the observed feedback.
        trace = profiling_trace(BALL, 4000, seed=21)
        hits = run_forecaster(trace, alpha=0.005, epsilon=0.05)
        assert hits[1000:].mean() >= 0.9


def _step_loop(x, alpha, epsilon, initial):
    """Forecast-then-update one row at a time."""
    estimate = np.asarray(initial, dtype=float)
    hits = []
    for row in x:
        hits.append(np.max(np.abs(estimate - row)) <= epsilon)
        estimate = (1.0 - alpha) * estimate + alpha * row
    return np.array(hits, dtype=bool), estimate


_unit_floats = st.floats(0.0, 1.0)


class TestForecastCore:
    @given(x=arrays(np.float64, st.tuples(st.integers(1, 300), st.just(5)),
                    elements=_unit_floats),
           alpha=st.floats(0.0, 1.0, exclude_min=True),
           epsilon=st.floats(0.0, 2.0, exclude_min=True),
           initial=arrays(np.float64, 5, elements=_unit_floats))
    def test_matches_step_loop(self, x, alpha, epsilon, initial):
        expected_hits, expected_final = _step_loop(x, alpha, epsilon, initial)
        assert np.array_equal(run_forecaster(_trace(x), alpha, epsilon, initial), expected_hits)
        hits, final = _forecast(x, alpha, epsilon, initial)
        assert np.array_equal(hits, expected_hits)
        assert np.array_equal(final, expected_final)

    def test_empty_trace(self):
        assert run_forecaster(_trace(np.empty((0, 5))), 0.5, 0.05).shape == (0,)
        _, final = _forecast(np.empty((0, 5)), 0.5, 0.05, np.full(5, 0.3))
        np.testing.assert_array_equal(final, np.full(5, 0.3))


def _touch_amplitude_loop(profile, pos, t_us):
    """The feedback law for one hand position, as written before it took rows."""
    dist = float(np.linalg.norm(pos - profile.center))
    if dist > profile.extent_cm:
        return np.zeros(5)
    rel = dist / profile.extent_cm
    base = profile.stiffness * (1.0 - rel)
    phases = np.arange(5) * (math.pi / 5)
    ripple = 0.3 * rel * np.sin(2.0 * math.pi * profile.texture_freq_hz * t_us * 1e-6 + phases)
    return np.clip(base * (1.0 + ripple), 0.0, 1.0)


def _feedback_out_of_place(profile, dist, t_us):
    """The feedback law over rows, as written before it ran in one buffer."""
    rel = dist / profile.extent_cm
    base = profile.stiffness * (1.0 - rel)
    phases = np.arange(5) * (math.pi / 5)
    ripple = 0.3 * rel[:, None] * np.sin(
        2.0 * math.pi * profile.texture_freq_hz * t_us[:, None] * 1e-6 + phases
    )
    amp = np.clip(base[:, None] * (1.0 + ripple), 0.0, 1.0)
    amp[dist > profile.extent_cm] = 0.0
    return amp


def _smooth_noise_loop(rng, n, persistence=0.98):
    shocks = rng.normal(0.0, math.sqrt(1.0 - persistence**2), size=n)
    out = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc = persistence * acc + shocks[i]
        out[i] = acc
    return out


def _profiling_trace_loop(profile, n_samples, seed, *, wobble=0.012,
                          wobble_persistence=0.995, noise_std=0.0):
    """`profiling_trace` one sample at a time: (t_us, amplitude matrix).

    The grasp holds at 0.06 of the extent and samples every 1000 us.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x9A9))))
    drift = _smooth_noise_loop(rng, n_samples, persistence=wobble_persistence)
    rel = np.clip(0.06 + wobble * drift, 0.0, 0.95)
    direction = np.array([1.0, 0.0, 0.0])
    times, rows = [], []
    for i in range(n_samples):
        t = i * 1000.0
        pos = profile.center + direction * (rel[i] * profile.extent_cm)
        amp = _touch_amplitude_loop(profile, pos, t)
        if noise_std > 0.0:
            amp = np.clip(amp + rng.normal(0.0, noise_std, size=5), 0.0, 1.0)
        times.append(t)
        rows.append(amp)
    return np.array(times), np.array(rows)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


_seeds = st.integers(0, 2**32 - 1)


@st.composite
def _profiles(draw):
    return ObjectProfile(
        kind=draw(st.sampled_from(ObjectKind)),
        center=draw(arrays(np.float64, 3, elements=st.floats(-50.0, 50.0))),
        extent_cm=draw(st.floats(0.1, 20.0)),
        stiffness=draw(st.floats(0.0, 1.0, exclude_min=True)),
        texture_freq_hz=draw(st.floats(0.0, 500.0)),
    )


class TestVectorizedTrace:
    @given(profile=_profiles(), seed=_seeds, n_samples=st.integers(1, 400),
           wobble=st.floats(0.0, 0.5), wobble_persistence=st.floats(0.0, 0.999),
           noise_std=st.one_of(st.just(0.0), st.floats(1e-4, 0.3)))
    def test_matches_sample_loop(self, profile, seed, n_samples, wobble,
                                 wobble_persistence, noise_std):
        kwargs = dict(wobble=wobble, wobble_persistence=wobble_persistence,
                      noise_std=noise_std)
        trace = profiling_trace(profile, n_samples, seed, **kwargs)
        t_us, amplitude = _profiling_trace_loop(profile, n_samples, seed, **kwargs)
        assert _same_bits(trace.t_us, t_us)
        assert _same_bits(trace.amplitude, amplitude)

    def test_distance_keeps_the_norm_where_its_square_underflows(self):
        # At this extent every offset squares to zero, so the norm reads the
        # grasp as at the center where |x| would not.  The center's x stays 0,
        # as any larger one would round the offset away in both forms.
        tiny = ObjectProfile(ObjectKind.CUSTOM, np.array([0.0, -2.0, 1.0]), 1e-200, 0.9, 120.0)
        trace = profiling_trace(tiny, 50, seed=3)
        t_us, amplitude = _profiling_trace_loop(tiny, 50, 3)
        assert _same_bits(trace.t_us, t_us)
        assert _same_bits(trace.amplitude, amplitude)

    @given(profile=_profiles(),
           offset=arrays(np.float64, 3, elements=st.floats(-25.0, 25.0)),
           t_us=st.floats(0.0, 1e8))
    def test_feedback_matches_scalar_law(self, profile, offset, t_us):
        pos = profile.center + offset
        dist = np.linalg.norm(pos - profile.center)
        assert _same_bits(_feedback(profile, np.array([dist]), np.array([t_us]))[0],
                          _touch_amplitude_loop(profile, pos, t_us))

    @given(profile=_profiles(), seed=_seeds, n=st.integers(0, 300),
           t_max=st.floats(0.0, 1e8), reach=st.floats(0.0, 2.0))
    def test_feedback_matches_the_out_of_place_law(self, profile, seed, n, t_max, reach):
        # Distances run past the extent, so clipped and zeroed rows occur.
        rng = np.random.Generator(np.random.PCG64(seed))
        dist = rng.uniform(0.0, reach * profile.extent_cm, n)
        t_us = np.sort(rng.uniform(0.0, t_max, n))
        assert _same_bits(_feedback(profile, dist, t_us),
                          _feedback_out_of_place(profile, dist, t_us))

    @given(seed=_seeds, n=st.integers(1, 500), persistence=st.floats(0.0, 0.999))
    def test_smooth_noise_matches_loop(self, seed, n, persistence):
        out = _smooth_noise(np.random.Generator(np.random.PCG64(seed)), n, persistence)
        expected = _smooth_noise_loop(np.random.Generator(np.random.PCG64(seed)), n, persistence)
        assert _same_bits(out, expected)


class TestProfilingTraceArguments:
    def test_numpy_sample_count_accepted(self):
        assert len(profiling_trace(BALL, np.int64(10), seed=1)) == 10

    @pytest.mark.parametrize("persistence", [-1.0, 1.0])
    def test_persistence_bounds_are_accepted(self, persistence):
        trace = profiling_trace(BALL, 10, seed=1, wobble_persistence=persistence)
        t_us, amplitude = _profiling_trace_loop(BALL, 10, 1, wobble_persistence=persistence)
        assert _same_bits(trace.amplitude, amplitude)


@st.composite
def _hit_pass_inputs(draw):
    """(x, alpha, epsilon, estimate) for the hit pass, x in [0, 1].

    Rows are uniform, or multiples of 1/8, where at alpha 0.5 many forecast
    errors equal epsilon exactly and the exact pass must decide them.
    """
    n = draw(st.one_of(st.sampled_from([0, 1, 2, 3, 4, 5]), st.integers(0, 5000)))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    x = rng.random((n, 5))
    if draw(st.booleans()):
        x = np.floor(x * 9.0) / 8.0
    alpha = draw(st.one_of(st.sampled_from([1.0, 1e-6, 0.5, 0.0055]),
                           st.floats(0.0, 1.0, exclude_min=True)))
    epsilon = draw(st.one_of(st.sampled_from([0.01, 0.05, 0.125, 0.5]),
                             st.floats(1e-3, 1.5)))
    estimate = draw(st.one_of(
        arrays(np.float64, 5, elements=_unit_floats),
        arrays(np.float64, 5, elements=st.floats(-4.0, 4.0)),
        arrays(np.float64, 5, elements=st.integers(-16, 16).map(lambda i: i / 8)),
    ))
    return x, alpha, epsilon, estimate


def _unblocked(y, n):
    """`_blocks` layout back to its first n rows."""
    return y.transpose(2, 0, 1).reshape(-1, y.shape[1])[:n]


class TestHitPass:
    @given(inputs=_hit_pass_inputs())
    @example(inputs=(np.full((3, 5), 0.45), 0.5, 0.5 - 0.45, np.full(5, 0.5)))
    @example(inputs=(np.zeros((0, 5)), 1.0, 0.05, np.zeros(5)))
    def test_same_hits_as_the_exact_pass(self, inputs):
        x, alpha, epsilon, estimate = inputs
        hits = _forecast_hits(x, alpha, epsilon, estimate)
        assert hits.dtype == bool
        assert np.array_equal(hits, _forecast(x, alpha, epsilon, estimate)[0])

    def test_exact_tie_takes_the_exact_pass(self, monkeypatch):
        # The first forecast error is 0.5 - 0.45, which is epsilon exactly:
        # no margin can decide it, so the whole call runs the exact pass.
        x = np.vstack([np.full((1, 5), 0.45),
                       np.random.Generator(np.random.PCG64(3)).random((400, 5))])
        estimate = np.full(5, 0.5)
        epsilon = 0.5 - 0.45
        expected = _forecast(x, 0.3, epsilon, estimate)[0]
        calls = []

        def counted(*args):
            calls.append(args)
            return _forecast(*args)

        monkeypatch.setattr(haptic, "_forecast", counted)
        hits = _forecast_hits(x, 0.3, epsilon, estimate)
        assert len(calls) == 1
        assert hits[0] and np.array_equal(hits, expected)

    def test_clear_rows_skip_the_exact_pass(self, monkeypatch):
        def never(*args):
            raise AssertionError("the exact pass ran")

        x = profiling_trace(BALL, 4000, seed=21).amplitude
        expected = _forecast(x, 0.05, 0.05, np.zeros(5))[0]
        monkeypatch.setattr(haptic, "_forecast", never)
        assert np.array_equal(_forecast_hits(x, 0.05, 0.05, np.zeros(5)), expected)

    @pytest.mark.parametrize("n", [*range(2, 17), 999, 4000, 5000])
    @pytest.mark.parametrize("alpha", [1.0, 0.999, 0.3, 0.0055, 1e-6])
    def test_blocked_values_lie_far_inside_the_margin(self, n, alpha):
        # n <= 16 has blocks of 2 rows, and from n = 5 on more blocks than rows.
        rng = np.random.Generator(np.random.PCG64(n))
        x = rng.random((n, 5))
        for estimate in (np.zeros(5), rng.random(5), rng.uniform(-4.0, 4.0, 5)):
            u = alpha * _blocks(x)
            delta = _hit_margin(n, u.shape[0], max(1.0, float(np.abs(estimate).max())))
            blocked = _unblocked(_blocked_first_order(1.0 - alpha, u, estimate), n)
            exact = _first_order(1.0 - alpha, alpha * x, estimate)[:-1]
            assert np.max(np.abs(blocked - exact)) <= delta / 20

    @pytest.mark.parametrize("n,block", [(0, 2), (1, 2), (2, 2), (4, 2), (5, 2), (16, 2),
                                         (17, 3), (36, 3), (37, 4), (4000, 32)])
    def test_blocks_of_half_sqrt_n_rows(self, n, block):
        x = np.arange(5.0 * n).reshape(n, 5)
        xb = _blocks(x)
        assert xb.shape[0] == block
        np.testing.assert_array_equal(_unblocked(xb, n), x)
        assert not xb.transpose(2, 0, 1).reshape(-1, 5)[n:].any()

    def test_one_call_holds_under_four_layouts(self):
        # A layout is the (B, 5, blocks) array of one trace, 8 B 5 N bytes.
        x = profiling_trace(BALL, 4000, seed=21).amplitude
        layout = _blocks(x).nbytes
        tracemalloc.start()
        try:
            _forecast_hits(x, 0.05, 0.05, np.zeros(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * layout


class TestLastState:
    @given(inputs=_hit_pass_inputs())
    @example(inputs=(np.zeros((0, 5)), 0.5, 0.05, np.full(5, 0.3)))
    @example(inputs=(np.full((3, 5), 0.45), 1.0, 0.05, np.full(5, -4.0)))
    def test_same_bits_as_the_exact_pass(self, inputs):
        x, alpha, epsilon, estimate = inputs
        expected = _forecast(x, alpha, epsilon, estimate)[1]
        assert _same_bits(_last_state(x, alpha, estimate), expected)
        # A row-strided trace, as a subsampled one is, steps the same values.
        assert _same_bits(_last_state(np.repeat(x, 2, axis=0)[::2], alpha, estimate), expected)

    def test_estimate_is_not_modified(self):
        # A glad machine starts from the registry's own profile array.
        estimate = np.full(5, 0.25)
        _last_state(np.ones((4, 5)), 0.5, estimate)
        assert np.array_equal(estimate, np.full(5, 0.25))


def _first_order_accumulate(c, u, y0):
    """The recursion kernel as `itertools.accumulate` with a lambda, one call per step."""
    c = float(c)
    cols = u if u.ndim == 2 else u[:, None]
    starts = np.broadcast_to(np.asarray(y0, dtype=float), cols.shape[1:]).tolist()
    y = np.array([list(accumulate(col, lambda e, s: c * e + s, initial=start))
                  for col, start in zip(cols.T.tolist(), starts)]).T
    return y if u.ndim == 2 else y[:, 0]


# Signed zeros, the smallest subnormal, the largest finite double, infinities
# and NaN, mixed with ordinary and arbitrary doubles.
_edge_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.7976931348623157e308,
                     math.inf, -math.inf, math.nan]),
    st.floats(-2.0, 2.0),
    st.floats(),
)


@st.composite
def _recursion_inputs(draw):
    """(c, u, y0): u is (n,) or (n, k), y0 a scalar or a k-vector."""
    n = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 300)))
    k = draw(st.integers(1, 6))
    one_d = draw(st.booleans())
    u = draw(arrays(np.float64, (n,) if one_d else (n, k), elements=_edge_floats))
    width = 1 if one_d else k
    y0 = draw(st.one_of(_edge_floats, arrays(np.float64, width, elements=_edge_floats)))
    c = draw(st.one_of(st.sampled_from([0.0, 1.0, -1.0, -0.0]), st.floats(-1.0, 1.0)))
    return c, u, y0


class TestRecursionKernel:
    @given(inputs=_recursion_inputs())
    @example(inputs=(0.5, np.array([1.0, 2.0, 3.0]), 0.25))
    @example(inputs=(1.0, np.empty((0, 3)), np.array([0.5, -0.0, math.nan])))
    def test_same_bits_as_accumulate(self, inputs):
        c, u, y0 = inputs
        # Python floats never warn, but numpy steps overflow and go invalid on
        # these inputs, and pytest turns their RuntimeWarning into an error:
        # a kernel written with numpy steps should be judged by its bits.
        with np.errstate(all="ignore"):
            assert _same_bits(_first_order(c, u, y0), _first_order_accumulate(c, u, y0))

    @given(f=arrays(np.float64, st.tuples(st.integers(0, 50), st.just(5)),
                    elements=st.integers(-64, 64).map(lambda i: i / 64)),
           a=arrays(np.float64, 5, elements=st.integers(-64, 64).map(lambda i: i / 64)),
           epsilon=st.integers(1, 64).map(lambda i: i / 64),
           nan_rows=st.lists(st.integers(0, 49)))
    # Rows: one error equal to epsilon (a hit), one above it (a miss), a NaN
    # (a miss) and every error equal to epsilon (a hit).
    @example(f=np.array([[0.0, 0.0, 0.125, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.25],
                         [math.nan, 0.0, 0.0, 0.0, 0.0], [-0.125] * 5]),
             a=np.zeros(5), epsilon=0.125, nan_rows=[])
    def test_hits_match_the_max_norm(self, f, a, epsilon, nan_rows):
        # Multiples of 1/64 subtract exactly, so many errors equal epsilon.
        actuals = np.tile(a, (f.shape[0], 1))
        for row in nan_rows:
            if row < f.shape[0]:
                f[row, row % 5] = math.nan
        expected = np.array([np.max(np.abs(fr - ar)) <= epsilon
                             for fr, ar in zip(f, actuals)], dtype=bool)
        assert np.array_equal(_hits(f, actuals, epsilon), expected)


class TestHapticTrace:
    T = np.arange(4) * 10.0
    AMP = np.linspace(0.0, 1.0, 20).reshape(4, 5)

    def _trace(self):
        return HapticTrace(t_us=self.T, amplitude=self.AMP)

    def test_len(self):
        assert len(self._trace()) == 4

    @pytest.mark.parametrize("index", [0, 2, 3, -1, -4])
    def test_integer_index_is_the_row(self, index):
        sample = self._trace()[index]
        assert isinstance(sample, HapticSample)
        assert sample.t_us == self.T[index]
        np.testing.assert_array_equal(sample.amplitude, self.AMP[index])

    @pytest.mark.parametrize("index", [4, -5])
    def test_index_past_the_end(self, index):
        with pytest.raises(IndexError):
            self._trace()[index]

    def test_iteration_stops_at_the_end(self):
        samples = list(self._trace())
        assert len(samples) == 4
        np.testing.assert_array_equal([s.amplitude for s in samples], self.AMP)

    @pytest.mark.parametrize("step", [1, 2, 3, 5])
    def test_stepped_slice_is_a_trace(self, step):
        sub = self._trace()[::step]
        assert isinstance(sub, HapticTrace)
        np.testing.assert_array_equal(sub.t_us, self.T[::step])
        np.testing.assert_array_equal(sub.amplitude, self.AMP[::step])

    @pytest.mark.parametrize("t_us, amplitude", [
        (np.zeros(4), np.zeros((4, 4))),
        (np.zeros(5), np.zeros(5)),
        (np.zeros(3), np.zeros((4, 5))),
        (np.zeros(4), np.full((4, 5), np.nan)),
        (np.array([0.0, np.nan, 2.0, 3.0]), np.zeros((4, 5))),
        (np.zeros(4), np.full((4, 5), -0.1)),
        (np.zeros(4), np.full((4, 5), 1.1)),
        (np.array([0.0, 2.0, 1.0, 3.0]), np.zeros((4, 5))),
    ])
    def test_rejects_bad_columns(self, t_us, amplitude):
        with pytest.raises(ParameterError):
            HapticTrace(t_us=t_us, amplitude=amplitude)

    def test_equal_times_are_accepted(self):
        trace = HapticTrace(t_us=np.array([0.0, 1.0, 1.0, 2.0]), amplitude=self.AMP)
        assert len(trace) == 4


class TestEstimateTau:
    def test_constant_trace_degenerate(self):
        with pytest.raises(DegenerateDataError):
            estimate_tau(_trace(np.full((10, 5), 0.3)))

    def test_alternating_is_near_minus_one(self):
        amp = np.zeros((400, 5))
        amp[1::2] = 1.0
        tau = estimate_tau(_trace(amp))
        assert tau == pytest.approx(-1.0, abs=0.02)

    def test_dense_sinusoid_is_strongly_positive(self):
        t = np.arange(2000)
        x = 0.5 + 0.4 * np.sin(2 * np.pi * t / 500.0)
        amp = np.tile(x[:, None], (1, 5))
        assert estimate_tau(_trace(amp)) > 0.9

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            estimate_tau(_trace(np.zeros((2, 5))))

    @pytest.mark.parametrize("means", [[0.5, 0.5, 0.5, 0.6], [0.6, 0.5, 0.5, 0.5]])
    def test_constant_lagged_half_degenerate(self, means):
        # Either half constant gave NaN with two "invalid value" warnings.
        amp = np.tile(np.array(means)[:, None], (1, 5))
        with pytest.raises(DegenerateDataError):
            estimate_tau(_trace(amp))

    def test_within_bounds_on_noise(self):
        rng = np.random.Generator(np.random.PCG64(2))
        tau = estimate_tau(_trace(rng.random((500, 5))))
        assert -1.0 <= tau <= 1.0


class TestOptimizeAlpha:
    def test_singleton_grid(self):
        trace = profiling_trace(BALL, 300, seed=2)
        assert optimize_alpha(trace, [0.3], 0.05) == 0.3

    def test_returned_alpha_is_grid_argmax(self):
        # Re-evaluating every grid point is the oracle for the argmax.
        trace = profiling_trace(BALL, 600, seed=3, noise_std=0.03)
        grid = [0.05, 0.1, 0.2, 0.4, 0.8]
        best = optimize_alpha(trace, grid, 0.05)
        accs = {a: run_forecaster(trace, a, 0.05).mean() for a in grid}
        assert best in grid
        assert accs[best] == max(accs.values())

    def test_tie_breaks_toward_smaller_alpha(self):
        # A constant trace within tolerance of zero makes every alpha perfect.
        trace = _trace(np.full((150, 5), 0.04))
        assert optimize_alpha(trace, [1.0, 0.9], 0.05) == 0.9

    def test_requires_enough_samples(self):
        trace = profiling_trace(BALL, 99, seed=1)
        with pytest.raises(InsufficientDataError):
            optimize_alpha(trace, [0.1], 0.05)
