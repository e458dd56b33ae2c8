"""Tests for the global registry, profile matching and onboarding protocol."""

import math

import numpy as np
import pytest

from gladsim import coordination
from gladsim.coordination import (
    COLD,
    GLAD,
    POOL_CAPACITY,
    GladParams,
    GlobalRegistry,
    OnboardResult,
    ProfileRecord,
    _iterations_to_target,
    _make_profile_pool,
    _similarity,
    descriptor_of,
    match_profile,
    onboard_machine,
    run_savings_sweep,
    upload_profile,
)
from gladsim.errors import ConfigError, NotReadyError, ParameterError
from gladsim.haptic import (
    ObjectKind,
    ObjectProfile,
    _forecast,
    profiling_trace,
    standard_profile,
)

BALL = standard_profile(ObjectKind.RUBBER_BALL)


def _custom(stiffness, texture=10.0):
    return ObjectProfile(ObjectKind.CUSTOM, np.zeros(3), 4.0, stiffness, texture)


def _record(estimate, count, descriptor=None):
    descriptor = descriptor or descriptor_of(BALL)
    return ProfileRecord(
        descriptor=descriptor,
        profile_estimate=np.full(5, estimate),
        sample_count=count,
    )


class TestDescriptorSimilarity:
    def test_identical_descriptor_similarity_one(self):
        d = descriptor_of(BALL)
        assert _similarity(d, d, GladParams()) == 1.0

    def test_half_range_similarity(self):
        # Bands 0 and 5 of 10: normalized distance 0.5 -> similarity 0.5,
        # below the 0.8 default threshold.
        a = descriptor_of(_custom(0.05))
        b = descriptor_of(_custom(0.55))
        assert _similarity(a, b, GladParams()) == 0.5

    def test_kind_mismatch_is_zero(self):
        a = descriptor_of(BALL)
        b = descriptor_of(standard_profile(ObjectKind.WOODEN_CUBE))
        assert _similarity(a, b, GladParams()) == 0.0

    def test_quantization_band_edges(self):
        assert descriptor_of(_custom(1.0))[1] == 9
        assert descriptor_of(_custom(0.05))[1] == 0


def _trained(updates=500):
    return OnboardResult(iterations=300, converged=True, match_similarity=0.0,
                         profile_estimate=np.full(5, 0.4), updates=updates)


class TestRegistry:
    def test_upload_returns_the_held_record(self):
        registry = GlobalRegistry()
        record = upload_profile(registry, BALL, _trained())
        assert registry.all_records() == [record]
        assert record.descriptor == descriptor_of(BALL)
        np.testing.assert_array_equal(record.profile_estimate, np.full(5, 0.4))
        assert record.sample_count == 500

    def test_sample_count_is_stored_as_a_python_int(self):
        # A numpy integer count was checked, then kept as given.
        record = _record(0.5, np.int64(5))
        assert type(record.sample_count) is int and record.sample_count == 5

    def test_upload_undertrained_rejected(self):
        registry = GlobalRegistry()
        with pytest.raises(NotReadyError):
            upload_profile(registry, BALL, _trained(updates=0))
        assert registry.all_records() == []
        held = upload_profile(registry, BALL, _trained(updates=99),
                              glad=GladParams(min_updates_for_upload=99))
        with pytest.raises(NotReadyError):
            upload_profile(registry, BALL, _trained(updates=99),
                           glad=GladParams(min_updates_for_upload=100))
        assert registry.all_records() == [held]
        assert held.sample_count == 99

    def test_upload_of_onboarded_machine(self):
        registry = GlobalRegistry()
        trace = profiling_trace(BALL, 800, seed=31)
        result = onboard_machine(BALL, registry, COLD, trace)
        upload_profile(registry, BALL, result)
        (record,) = registry.all_records()
        np.testing.assert_array_equal(record.profile_estimate, result.profile_estimate)
        assert record.sample_count == 800

    @pytest.mark.parametrize("estimate", [math.nan, math.inf, -0.1, 1.5])
    def test_record_estimate_must_lie_in_the_unit_interval(self, estimate):
        # A nan estimate was stored, and add_record then folded it into the
        # held profile that every later warm start reads.
        with pytest.raises(ParameterError, match="^profile_estimate must be"):
            _record(estimate, 100)

    def test_aggregate_single_record_identity(self):
        registry = GlobalRegistry()
        record = _record(0.4, 120)
        assert registry.add_record(record) is record
        assert registry.all_records() == [record]

    def test_aggregate_weighted_mean(self):
        # (0.2 * 100 + 0.6 * 300) / 400 = 0.5
        registry = GlobalRegistry()
        first, second = _record(0.2, 100), _record(0.6, 300)
        registry.add_record(first)
        rec = registry.add_record(second)
        assert registry.all_records() == [rec]
        counts = np.array([100.0, 300.0])
        np.testing.assert_array_equal(
            rec.profile_estimate,
            counts @ np.array([first.profile_estimate, second.profile_estimate]) / counts.sum())
        np.testing.assert_allclose(rec.profile_estimate, 0.5)
        assert rec.sample_count == 400

    def test_aggregate_equal_weights_is_plain_mean(self):
        registry = GlobalRegistry()
        registry.add_record(_record(0.1, 50))
        rec = registry.add_record(_record(0.7, 50))
        np.testing.assert_allclose(rec.profile_estimate, 0.4)

    @pytest.mark.parametrize("seed", range(3))
    def test_aggregate_conservation_and_convex_hull(self, seed):
        # A chain of uploads to one descriptor, folded one at a time.
        rng = np.random.Generator(np.random.PCG64(seed))
        registry = GlobalRegistry()
        estimates = rng.random((4, 5))
        counts = rng.integers(10, 500, size=4)
        for est, cnt in zip(estimates, counts):
            rec = registry.add_record(ProfileRecord(
                descriptor=descriptor_of(BALL),
                profile_estimate=est,
                sample_count=int(cnt),
            ))
        assert registry.all_records() == [rec]
        assert rec.sample_count == int(counts.sum())
        np.testing.assert_allclose(rec.profile_estimate, counts @ estimates / counts.sum())
        assert np.all(rec.profile_estimate >= estimates.min(axis=0) - 1e-12)
        assert np.all(rec.profile_estimate <= estimates.max(axis=0) + 1e-12)

    def test_fold_leaves_other_descriptors_in_place(self):
        registry = GlobalRegistry()
        other = _record(0.3, 10, descriptor_of(_custom(0.05)))
        registry.add_record(_record(0.2, 100))
        registry.add_record(other)
        rec = registry.add_record(_record(0.6, 300))
        assert registry.all_records() == [rec, other]

    def test_match_empty_registry(self):
        record, sim = match_profile(GlobalRegistry(), descriptor_of(BALL))
        assert record is None
        assert sim == 0.0

    def test_match_below_threshold_returns_none_with_similarity(self):
        registry = GlobalRegistry()
        registry.add_record(_record(0.4, 100, descriptor_of(_custom(0.05))))
        record, sim = match_profile(registry, descriptor_of(_custom(0.55)))
        assert record is None
        assert sim == 0.5

    # A band that is not an integer matched at a made-up similarity (nan read
    # 0.0 and 1.5 read 0.35), another descriptor raised a raw TypeError or
    # IndexError, and a record stored one.
    @pytest.mark.parametrize("descriptor,message", [
        (("rubber_ball", "a", 1), "descriptor stiffness band must be an integer"),
        (("rubber_ball",), r"descriptor must be a \(str, int, int\) triple"),
        (("rubber_ball", math.nan, 1), "descriptor stiffness band must be finite"),
        (("rubber_ball", 1.5, 1), "descriptor stiffness band must be an integer"),
        (("rubber_ball", "x", None), "descriptor stiffness band must be an integer"),
        (("rubber_ball", 1, -1), "descriptor texture band must be finite and >= 0"),
    ], ids=["str-band", "short", "nan-band", "fraction-band", "none-band", "negative-band"])
    @pytest.mark.parametrize("use", ["match", "record"])
    def test_descriptor_is_a_kind_and_two_bands(self, descriptor, message, use):
        with pytest.raises(ParameterError, match=f"^{message}"):
            if use == "match":
                match_profile(GlobalRegistry(), descriptor)
            else:
                _record(0.4, 100, descriptor)

    def test_match_exact(self):
        registry = GlobalRegistry()
        registry.add_record(_record(0.4, 100))
        record, sim = match_profile(registry, descriptor_of(BALL))
        assert record is not None
        assert sim == 1.0


class TestOnboarding:
    def _registry_with_signature(self, profile, trace_seed=901):
        """Registry holding one record equal to the trace signature."""
        trace = profiling_trace(profile, 1000, trace_seed)
        signature = np.array([s.amplitude for s in trace]).mean(axis=0)
        registry = GlobalRegistry()
        registry.add_record(ProfileRecord(
            descriptor=descriptor_of(profile),
            profile_estimate=np.clip(signature, 0.0, 1.0),
            sample_count=1000,
        ))
        return registry

    def test_converged_warm_start_hits_window_floor(self):
        registry = self._registry_with_signature(BALL)
        trace = profiling_trace(BALL, 2000, seed=17)
        result = onboard_machine(BALL, registry, GLAD, trace)
        assert result.converged
        assert result.iterations == 200  # the sliding-window length
        assert result.match_similarity == 1.0

    def test_cold_slower_than_warm(self):
        registry = self._registry_with_signature(BALL)
        trace = profiling_trace(BALL, 3000, seed=18)
        warm = onboard_machine(BALL, registry, GLAD, trace)
        cold = onboard_machine(BALL, registry, COLD, trace)
        assert cold.iterations > warm.iterations

    def test_glad_without_match_equals_cold_exactly(self):
        empty = GlobalRegistry()
        trace = profiling_trace(BALL, 2500, seed=19)
        glad = onboard_machine(BALL, empty, GLAD, trace)
        cold = onboard_machine(BALL, empty, COLD, trace)
        assert glad.iterations == cold.iterations
        assert glad.match_similarity == 0.0
        np.testing.assert_array_equal(glad.profile_estimate, cold.profile_estimate)

    def test_final_estimate_is_the_clipped_forecast(self):
        registry = self._registry_with_signature(BALL)
        trace = profiling_trace(BALL, 1200, seed=24)
        (record,) = registry.all_records()
        result = onboard_machine(BALL, registry, GLAD, trace, GladParams(onboarding_alpha=0.01))
        _, estimate = _forecast(trace.amplitude, 0.01, 0.05, record.profile_estimate)
        np.testing.assert_array_equal(result.profile_estimate, np.clip(estimate, 0.0, 1.0))
        assert result.updates == len(trace)

    def test_onboarding_leaves_registry_untouched(self):
        registry = self._registry_with_signature(BALL)
        (before,) = registry.all_records()
        estimate = before.profile_estimate.copy()
        onboard_machine(BALL, registry, GLAD, profiling_trace(BALL, 1200, seed=23))
        (after,) = registry.all_records()
        assert after is before
        np.testing.assert_array_equal(after.profile_estimate, estimate)

    @pytest.mark.parametrize("zero_first", [False, True])
    def test_fold_weights_reach_the_warm_start(self, zero_first):
        # A trained donor (4000 updates) folded with an untrained zero profile
        # (200) still warm-starts at the window floor, in either order; with
        # the two weights swapped the warm start is about as slow as a cold one.
        donor = onboard_machine(BALL, GlobalRegistry(), COLD,
                                profiling_trace(BALL, 4000, seed=10_001))
        trained = ProfileRecord(descriptor=descriptor_of(BALL),
                                profile_estimate=donor.profile_estimate, sample_count=4000)
        records = [trained, _record(0.0, 200)]
        registry = GlobalRegistry()
        for record in records[::-1] if zero_first else records:
            registry.add_record(record)
        result = onboard_machine(BALL, registry, GLAD, profiling_trace(BALL, 4000, seed=1))
        assert (result.iterations, result.converged) == (200, True)

    def test_unreachable_target_flagged(self):
        empty = GlobalRegistry()
        trace = profiling_trace(BALL, 600, seed=20)
        result = onboard_machine(BALL, empty, COLD, trace,
                                 GladParams(accuracy_target=0.99, onboarding_alpha=0.001))
        assert not result.converged
        assert result.iterations == len(trace)

    def test_short_trace_rejected(self):
        with pytest.raises(Exception):
            onboard_machine(BALL, GlobalRegistry(), COLD, profiling_trace(BALL, 400, seed=1))

    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            onboard_machine(BALL, GlobalRegistry(), "warmish", profiling_trace(BALL, 600, seed=1))

    @pytest.mark.parametrize("field,value", [
        ("onboarding_alpha", 0.01), ("epsilon", 0.04), ("window", 100),
        ("accuracy_target", 0.9), ("min_updates_for_upload", 501), ("quant_bands", 2),
        ("texture_freq_max_hz", 20.0), ("match_threshold", 0.95),
    ])
    def test_glad_field_is_honoured(self, field, value):
        # A donor one stiffness band and one texture band away matches at the
        # defaults (similarity 0.9), so every field shows in the warm start.
        donor, new = _custom(0.45), _custom(0.55, texture=40.0)
        trace = profiling_trace(new, 2000, seed=5)

        def outcome(glad):
            registry = GlobalRegistry()
            try:
                upload_profile(registry, donor, _trained(), glad=glad)
            except NotReadyError:
                return "upload gated"
            (record,) = registry.all_records()
            assert record.descriptor == descriptor_of(donor, glad)
            result = onboard_machine(new, registry, GLAD, trace, glad)
            return (result.iterations, result.converged, result.match_similarity,
                    result.profile_estimate.tolist())

        default = outcome(GladParams())
        assert default[2] == pytest.approx(0.9)
        assert outcome(GladParams(**{field: value})) != default


class TestGladParamsTypes:
    def test_numpy_integers_become_python_ints(self):
        glad = GladParams(total_machines=np.int64(3), machines_grid=(np.int32(1), 2))
        assert type(glad.total_machines) is int and glad.total_machines == 3
        assert [type(m) for m in glad.machines_grid] == [int, int]
        assert glad == GladParams(total_machines=3, machines_grid=(1, 2))

    @pytest.mark.parametrize("field,grid", [
        ("alpha_grid", (0.1, 0.5, 0.1)), ("machines_grid", (1, 1)), ("machines_grid", (4, 2, 4)),
    ])
    def test_grid_must_not_repeat(self, field, grid):
        with pytest.raises(ConfigError, match=f"^{field} must not repeat"):
            GladParams(**{field: grid})


class TestIterationsToTarget:
    def test_floor_is_window_length(self):
        hits = np.ones(500, dtype=bool)
        iters, converged = _iterations_to_target(hits, 0.95, 200)
        assert (iters, converged) == (200, True)

    def test_never_reaching_returns_length_flagged(self):
        hits = np.zeros(300, dtype=bool)
        iters, converged = _iterations_to_target(hits, 0.5, 100)
        assert (iters, converged) == (300, False)

    def test_exact_boundary(self):
        # 190 hits in a 200 window is exactly 0.95.
        hits = np.concatenate([np.zeros(10, dtype=bool), np.ones(400, dtype=bool)])
        iters, converged = _iterations_to_target(hits, 0.95, 200)
        assert converged
        assert iters == 200


def _small(**overrides):
    return GladParams(**{"total_machines": 2, "profiling_samples": 600, **overrides})


class TestSavings:
    @pytest.mark.parametrize("t_cold,t_warm,saved", [
        (1000, 280, 72.0), (345, 345, 0.0), (345, 0, 100.0)])
    def test_saved_examples(self, monkeypatch, t_cold, t_warm, saved):
        # The sweep asks for each machine's cold count, then its warm one: the
        # first machine saves nothing, the second saves `saved`.
        counts = iter([(t_cold, True)] * 3 + [(t_warm, True)])
        monkeypatch.setattr(coordination, "_iterations_to_target", lambda *args: next(counts))
        assert run_savings_sweep(_small(), seed=3) == [(1, 0.0), (2, pytest.approx(saved / 2))]

    def test_single_kind_pool_curve(self):
        curve = run_savings_sweep(GladParams(total_machines=5, profiling_samples=2500), seed=42)
        machines = [m for m, _ in curve]
        savings = [s for _, s in curve]
        assert machines == [1, 2, 3, 4, 5]
        assert savings[0] == 0.0  # nothing to match for the first machine
        assert all(b >= a - 1e-9 for a, b in zip(savings, savings[1:]))
        assert savings[-1] > 40.0

    def test_oversized_pool_no_matches(self):
        glad = GladParams(total_machines=4, kind_pool_size=30, profiling_samples=2000)
        curve = run_savings_sweep(glad, seed=42)
        assert all(s == 0.0 for _, s in curve)

    def test_min_updates_gates_uploads(self):
        # A gate no profile of the sweep can meet is rejected with the params;
        # upload_profile's own gate is tested in TestRegistry.
        run_savings_sweep(_small(min_updates_for_upload=600), seed=7)
        with pytest.raises(ConfigError, match="min_updates_for_upload"):
            _small(min_updates_for_upload=601)

    @pytest.mark.parametrize("local_ais", [0, -2])
    def test_local_ais_must_be_positive(self, local_ais):
        with pytest.raises(ConfigError):
            _small(local_ais=local_ais)

    @pytest.mark.parametrize("alpha", [GladParams().onboarding_alpha, 0.01])
    @pytest.mark.parametrize("seed", [7, 42])
    @pytest.mark.parametrize("pool_size", [1, 3])
    def test_curve_of_onboarding_both_modes(self, pool_size, seed, alpha):
        # The sweep's curve, rebuilt by onboarding every machine in both modes.
        glad = GladParams(total_machines=5, kind_pool_size=pool_size, profiling_samples=1500,
                          onboarding_alpha=alpha)
        pool = _make_profile_pool(pool_size)
        seeds = np.random.SeedSequence(seed).generate_state(glad.total_machines)
        registry = GlobalRegistry()
        saved, curve = [], []
        for m in range(glad.total_machines):
            profile = pool[m % pool_size]
            trace = profiling_trace(profile, glad.profiling_samples, int(seeds[m]))
            cold = onboard_machine(profile, registry, COLD, trace, glad)
            warm = onboard_machine(profile, registry, GLAD, trace, glad)
            saved.append(100.0 * (1.0 - warm.iterations / cold.iterations))
            upload_profile(registry, profile, warm, glad=glad)
            curve.append((m + 1, float(np.mean(saved))))
        assert saved[-1] > 0.0
        assert run_savings_sweep(glad, seed) == curve

    @pytest.mark.parametrize("weights", [lambda held, new: (1, 1), lambda held, new: (new, held)],
                             ids=["equal", "swapped"])
    def test_curve_follows_the_count_weighted_fold(self, monkeypatch, weights):
        # Here warm starts converge above the window floor, so the profile the
        # registry folds from two uploads moves the curve; at the defaults
        # every warm start after the first meets the floor and none can.
        glad = GladParams(window=50, accuracy_target=0.99, epsilon=0.02,
                          profiling_samples=1000, total_machines=6)
        curve = run_savings_sweep(glad, seed=1)

        def add_record(registry, record):
            held = registry._records.get(record.descriptor)
            if held is not None:
                w = np.array(weights(held.sample_count, record.sample_count), dtype=float)
                estimates = np.array([held.profile_estimate, record.profile_estimate])
                record = ProfileRecord(record.descriptor, w @ estimates / w.sum(),
                                       held.sample_count + record.sample_count)
            registry._records[record.descriptor] = record
            return record

        monkeypatch.setattr(GlobalRegistry, "add_record", add_record)
        assert run_savings_sweep(glad, seed=1) != curve

    def test_deterministic(self):
        glad = GladParams(total_machines=3, profiling_samples=1500)
        assert run_savings_sweep(glad, seed=7) == run_savings_sweep(glad, seed=7)

    def test_pool_profiles_mutually_unmatchable(self):
        pool = _make_profile_pool(12)
        glad = GladParams()
        for i, a in enumerate(pool):
            for b in pool[i + 1:]:
                assert _similarity(descriptor_of(a), descriptor_of(b), glad) < glad.match_threshold

    def test_full_pool_has_distinct_descriptors(self):
        assert len({descriptor_of(p) for p in _make_profile_pool(POOL_CAPACITY)}) == POOL_CAPACITY
        with pytest.raises(ConfigError):
            _small(total_machines=1)
