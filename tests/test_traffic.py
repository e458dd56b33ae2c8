"""Tests for generalized Pareto sampling, stream generation, fitting and KS."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given
from hypothesis import strategies as st

from gladsim.errors import (
    DegenerateDataError,
    InsufficientDataError,
    ParameterError,
)
from gladsim.traffic import (
    ArrivalStream,
    GpdParams,
    fit_gpd,
    generate_stream,
    gpd_cdf,
    gpd_mean,
    ks_test,
    sample_gpd,
)


class TestGpdParams:
    def test_valid(self):
        p = GpdParams(shape=0.1, scale=900.0, location=0.0)
        assert p.shape == 0.1

    @pytest.mark.parametrize("kwargs", [
        dict(shape=0.1, scale=0.0, location=0.0),
        dict(shape=0.1, scale=-1.0, location=0.0),
        dict(shape=0.1, scale=1.0, location=-0.5),
        dict(shape=float("nan"), scale=1.0, location=0.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            GpdParams(**kwargs)

    def test_mean_closed_form(self):
        p = GpdParams(0.2, 1.0, 0.0)
        assert gpd_mean(p) == pytest.approx(1.0 / 0.8)
        with pytest.raises(ParameterError):
            gpd_mean(GpdParams(1.0, 1.0, 0.0))


class TestSampleGpd:
    def test_exponential_limit_unit_quantile(self):
        # shape=0 reduces to an exponential: quantile at u = 1 - e^-1 is 1.
        assert sample_gpd(GpdParams(0.0, 1.0, 0.0), 1.0 - math.exp(-1.0)) == pytest.approx(1.0)

    @pytest.mark.parametrize("params", [
        GpdParams(0.0, 1.0, 0.0),
        GpdParams(0.3, 2.0, 5.0),
        GpdParams(-0.2, 1.5, 1.0),
    ])
    def test_zero_quantile_is_location(self, params):
        assert sample_gpd(params, 0.0) == pytest.approx(params.location)

    def test_empirical_mean_matches_closed_form(self):
        # Oracle: mean = location + scale / (1 - shape) = 1.25.
        params = GpdParams(0.2, 1.0, 0.0)
        rng = np.random.Generator(np.random.PCG64(1))
        samples = sample_gpd(params, rng.random(10**6))
        assert samples.mean() == pytest.approx(1.25, abs=0.01)
        assert samples.mean() == pytest.approx(gpd_mean(params), abs=0.01)

    @pytest.mark.parametrize("shape", [-0.3, 0.0, 0.1, 0.5])
    def test_matches_scipy_quantiles(self, shape):
        # Independent oracle: scipy's genpareto ppf with the same convention.
        params = GpdParams(shape, 2.0, 3.0)
        u = np.linspace(0.0, 0.999, 200)
        mine = sample_gpd(params, u)
        ref = scipy.stats.genpareto.ppf(u, c=shape, loc=3.0, scale=2.0)
        np.testing.assert_allclose(mine, ref, rtol=1e-10)

    @pytest.mark.parametrize("shape", [-0.2, 0.0, 0.2])
    def test_cdf_matches_scipy(self, shape):
        params = GpdParams(shape, 2.0, 1.0)
        x = np.linspace(0.0, 20.0, 300)
        np.testing.assert_allclose(
            gpd_cdf(params, x),
            scipy.stats.genpareto.cdf(x, c=shape, loc=1.0, scale=2.0),
            atol=1e-12,
        )

    @pytest.mark.parametrize("shape", [-0.3, 0.0, 0.2, 0.8])
    def test_strictly_increasing_in_uniform(self, shape):
        params = GpdParams(shape, 1.0, 0.0)
        u = np.linspace(0.0, 0.9999, 1000)
        q = sample_gpd(params, u)
        assert np.all(np.diff(q) > 0.0)

    def test_shape_to_zero_continuity(self):
        u = np.linspace(0.0, 0.999, 500)
        near = sample_gpd(GpdParams(1e-8, 1.0, 0.0), u)
        exact = sample_gpd(GpdParams(0.0, 1.0, 0.0), u)
        assert np.max(np.abs(near - exact)) < 1e-4

    @pytest.mark.parametrize("u", [-0.01, 1.0, 1.5])
    def test_uniform_out_of_range(self, u):
        with pytest.raises(ParameterError):
            sample_gpd(GpdParams(0.1, 1.0, 0.0), u)


class TestGpdInverse:
    @given(shape=st.one_of(st.just(0.0), st.floats(-0.9, 0.9)),
           scale=st.floats(0.01, 1e4),
           location=st.floats(0.0, 1e3),
           u=st.floats(0.0, 1.0, exclude_max=True))
    @example(shape=1.5e-105, scale=1.0, location=0.0, u=0.5)
    @example(shape=-5e-324, scale=1.0, location=0.0, u=0.5)
    def test_cdf_inverts_sampler(self, shape, scale, location, u):
        params = GpdParams(shape, scale, location)
        assert gpd_cdf(params, sample_gpd(params, u)) == pytest.approx(u, abs=1e-9)


class TestGenerateStream:
    def test_arrival_count_near_horizon_over_mean(self):
        # Oracle: horizon / closed-form mean = 1e6 / 1000 = 1000 arrivals.
        stream = generate_stream(GpdParams(0.0, 1000.0, 0.0), 1e6, seed=7)
        assert 900 <= len(stream) <= 1100

    def test_empty_when_horizon_below_location(self):
        params = GpdParams(0.1, 10.0, 100.0)
        stream = generate_stream(params, 50.0, seed=1)
        assert len(stream) == 0

    def test_deterministic_in_seed(self):
        params = GpdParams(0.1, 900.0, 0.0)
        a = generate_stream(params, 1e6, seed=3)
        b = generate_stream(params, 1e6, seed=3)
        np.testing.assert_array_equal(a.timestamps, b.timestamps)

    def test_different_seeds_differ(self):
        params = GpdParams(0.1, 900.0, 0.0)
        a = generate_stream(params, 1e5, seed=3)
        b = generate_stream(params, 1e5, seed=4)
        assert not np.array_equal(a.timestamps, b.timestamps)

    @pytest.mark.parametrize("seed", range(5))
    def test_timestamps_sorted_first_at_least_location(self, seed):
        params = GpdParams(0.1, 100.0, 25.0)
        stream = generate_stream(params, 1e5, seed=seed)
        assert np.all(np.diff(stream.timestamps) >= 0.0)
        assert stream.timestamps[0] >= params.location
        assert stream.timestamps[-1] <= 1e5
        assert np.all(stream.inter_arrivals >= params.location)

    def test_horizon_must_be_positive(self):
        with pytest.raises(ParameterError):
            generate_stream(GpdParams(0.1, 1.0, 0.0), 0.0, seed=1)

    @pytest.mark.parametrize("horizon_us", [math.nan, math.inf, -math.inf, -1.0])
    def test_horizon_must_be_finite_and_positive(self, horizon_us):
        # A nan horizon raised ValueError and an infinite one OverflowError.
        with pytest.raises(ParameterError, match="horizon_us"):
            generate_stream(GpdParams(0.1, 1.0, 0.0), horizon_us, seed=1)

    def test_stream_rejects_decreasing_timestamps(self):
        with pytest.raises(ParameterError):
            ArrivalStream(timestamps=np.array([2.0, 1.0]))

    @pytest.mark.parametrize("timestamps", [[math.nan], [1.0, math.inf], [-math.inf, 0.0],
                                            [0.0, math.nan, 1.0]])
    def test_stream_rejects_non_finite_timestamps(self, timestamps):
        # The non-decreasing check reads False for nan, and simulate_pon then
        # raised a raw IndexError, ValueError or OverflowError from the legs.
        with pytest.raises(ParameterError, match="timestamps must be finite"):
            ArrivalStream(timestamps=np.array(timestamps))


class TestFitGpd:
    def test_round_trip_recovers_generating_parameters(self):
        params = GpdParams(0.1, 500.0, 0.0)
        horizon = gpd_mean(params) * 1.2e5
        stream = generate_stream(params, horizon, seed=11)
        gaps = stream.inter_arrivals[:100_000]
        assert gaps.size == 100_000
        fitted = fit_gpd(gaps)
        assert fitted.scale == pytest.approx(params.scale, rel=0.05)
        assert abs(fitted.shape - params.shape) <= 0.05
        assert fitted.scale > 0.0

    def test_constant_samples_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_gpd(np.full(200, 3.5))

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            fit_gpd(np.linspace(0.0, 1.0, 49))

    def test_negative_samples_rejected(self):
        data = np.linspace(-1.0, 1.0, 100)
        with pytest.raises(ParameterError):
            fit_gpd(data)


class TestKsTest:
    def test_self_generated_passes_mostly(self):
        params = GpdParams(0.1, 900.0, 0.0)
        passes = 0
        for seed in range(30):
            stream = generate_stream(params, 5e6, seed=seed)
            _, ok = ks_test(stream.inter_arrivals, params, 0.05)
            passes += int(ok)
        assert passes >= 26

    def test_gross_mismatch_fails(self):
        # Exponential(1) data against a heavy-tailed GPD must be rejected.
        rng = np.random.Generator(np.random.PCG64(5))
        data = rng.exponential(1.0, size=5000)
        stat, ok = ks_test(data, GpdParams(0.8, 1.0, 0.0), 0.05)
        assert not ok
        assert stat > 0.1

    def test_degenerate_samples_at_location(self):
        params = GpdParams(0.1, 1.0, 2.0)
        data = np.full(100, 2.0)
        stat, ok = ks_test(data, params, 0.05)
        assert stat == pytest.approx(1.0)
        assert not ok

    def test_statistic_matches_scipy(self):
        params = GpdParams(0.2, 3.0, 0.0)
        stream = generate_stream(params, 1e5, seed=9)
        gaps = stream.inter_arrivals
        stat, _ = ks_test(gaps, params, 0.05)
        ref = scipy.stats.kstest(
            gaps, lambda x: scipy.stats.genpareto.cdf(x, c=0.2, scale=3.0)
        ).statistic
        assert stat == pytest.approx(ref, rel=1e-9)

    # An inf gap passed at 0.045, a gap of -5 passed too, and a nan gap
    # returned (nan, False).
    @pytest.mark.parametrize("bad", [np.inf, -5.0, np.nan])
    def test_rejects_bad_inter_arrivals(self, bad):
        gaps = generate_stream(GpdParams(0.1, 900.0, 0.0), 5e6, seed=1).inter_arrivals.copy()
        gaps[10] = bad
        with pytest.raises(ParameterError, match="inter-arrivals"):
            ks_test(gaps, GpdParams(0.1, 900.0, 0.0), 0.05)
        with pytest.raises(ParameterError, match="inter-arrivals"):
            fit_gpd(gaps)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 0.6])
    def test_invalid_significance(self, alpha):
        with pytest.raises(ParameterError):
            ks_test(np.linspace(0.1, 10.0, 100), GpdParams(0.1, 1.0, 0.0), alpha)

    def test_critical_value_formula(self):
        # pass iff statistic < sqrt(-ln(alpha/2)/2)/sqrt(n)
        params = GpdParams(0.0, 1.0, 0.0)
        stream = generate_stream(params, 2e4, seed=2)
        gaps = stream.inter_arrivals
        n = gaps.size
        stat, ok = ks_test(gaps, params, 0.05)
        crit = math.sqrt(-math.log(0.025) / 2.0) / math.sqrt(n)
        assert ok == (stat < crit)
