"""Tests for generalized Pareto sampling, stream generation, fitting and KS."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given
from hypothesis import strategies as st

from gladsim import traffic
from gladsim.errors import (
    DegenerateDataError,
    InsufficientDataError,
    ParameterError,
    ResourceLimitError,
)
from gladsim.traffic import (
    CONTROL_TRAFFIC_DEFAULT,
    GpdParams,
    _gpd_cdf,
    _gpd_mean,
    _sample_gpd,
    fit_gpd,
    generate_stream,
    ks_test,
)


class TestGpdParams:
    def test_valid(self):
        p = GpdParams(shape=0.1, scale=900.0, location=0.0)
        assert p.shape == 0.1

    def test_mean_closed_form(self):
        p = GpdParams(0.2, 1.0, 0.0)
        assert _gpd_mean(p) == pytest.approx(1.0 / 0.8)


class TestSampleGpd:
    def test_exponential_limit_unit_quantile(self):
        # shape=0 reduces to an exponential: quantile at u = 1 - e^-1 is 1.
        assert _sample_gpd(GpdParams(0.0, 1.0, 0.0), 1.0 - math.exp(-1.0)) == pytest.approx(1.0)

    @pytest.mark.parametrize("params", [
        GpdParams(0.0, 1.0, 0.0),
        GpdParams(0.3, 2.0, 5.0),
        GpdParams(-0.2, 1.5, 1.0),
    ])
    def test_zero_quantile_is_location(self, params):
        assert _sample_gpd(params, 0.0) == pytest.approx(params.location)

    def test_empirical_mean_matches_closed_form(self):
        # Oracle: mean = location + scale / (1 - shape) = 1.25.
        params = GpdParams(0.2, 1.0, 0.0)
        rng = np.random.Generator(np.random.PCG64(1))
        samples = _sample_gpd(params, rng.random(10**6))
        assert samples.mean() == pytest.approx(1.25, abs=0.01)
        assert samples.mean() == pytest.approx(_gpd_mean(params), abs=0.01)

    @pytest.mark.parametrize("shape", [-0.3, 0.0, 0.1, 0.5])
    def test_matches_scipy_quantiles(self, shape):
        # Independent oracle: scipy's genpareto ppf with the same convention.
        params = GpdParams(shape, 2.0, 3.0)
        u = np.linspace(0.0, 0.999, 200)
        mine = _sample_gpd(params, u)
        ref = scipy.stats.genpareto.ppf(u, c=shape, loc=3.0, scale=2.0)
        np.testing.assert_allclose(mine, ref, rtol=1e-10)

    @pytest.mark.parametrize("shape", [-0.2, 0.0, 0.2])
    def test_cdf_matches_scipy(self, shape):
        params = GpdParams(shape, 2.0, 1.0)
        x = np.linspace(0.0, 20.0, 300)
        np.testing.assert_allclose(
            _gpd_cdf(params, x),
            scipy.stats.genpareto.cdf(x, c=shape, loc=1.0, scale=2.0),
            atol=1e-12,
        )

    @pytest.mark.parametrize("shape", [-0.3, 0.0, 0.2, 0.8])
    def test_strictly_increasing_in_uniform(self, shape):
        params = GpdParams(shape, 1.0, 0.0)
        u = np.linspace(0.0, 0.9999, 1000)
        q = _sample_gpd(params, u)
        assert np.all(np.diff(q) > 0.0)

    def test_shape_to_zero_continuity(self):
        u = np.linspace(0.0, 0.999, 500)
        near = _sample_gpd(GpdParams(1e-8, 1.0, 0.0), u)
        exact = _sample_gpd(GpdParams(0.0, 1.0, 0.0), u)
        assert np.max(np.abs(near - exact)) < 1e-4


class TestGpdInverse:
    @given(shape=st.one_of(st.just(0.0), st.floats(-0.9, 0.9)),
           scale=st.floats(0.01, 1e4),
           location=st.floats(0.0, 1e3),
           u=st.floats(0.0, 1.0, exclude_max=True))
    @example(shape=1.5e-105, scale=1.0, location=0.0, u=0.5)
    @example(shape=-5e-324, scale=1.0, location=0.0, u=0.5)
    def test_cdf_inverts_sampler(self, shape, scale, location, u):
        params = GpdParams(shape, scale, location)
        assert _gpd_cdf(params, _sample_gpd(params, u)) == pytest.approx(u, abs=1e-9)


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
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        params = GpdParams(0.1, 900.0, 0.0)
        a = generate_stream(params, 1e5, seed=3)
        b = generate_stream(params, 1e5, seed=4)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", range(5))
    def test_timestamps_sorted_first_at_least_location(self, seed):
        params = GpdParams(0.1, 100.0, 25.0)
        stream = generate_stream(params, 1e5, seed=seed)
        assert stream.dtype == np.float64 and stream.ndim == 1
        assert np.all(np.diff(stream) >= 0.0)
        assert stream[0] >= params.location
        assert stream[-1] <= 1e5
        assert np.all(np.diff(stream, prepend=0.0) >= params.location)

    def test_astronomical_horizon_is_refused_before_drawing(self):
        # Sized from the horizon, the first batch raised numpy's raw ValueError.
        with pytest.raises(ResourceLimitError, match=r"^stream needs ~1e\+297 events"):
            generate_stream(CONTROL_TRAFFIC_DEFAULT, 1e300, seed=1)

    @pytest.mark.parametrize("params,cap_horizon", [
        (GpdParams(0.0, 1000.0, 0.0), 1e6),           # 1000 mean gaps
        (GpdParams(1.5, 1.0, 0.0), 1000 * (2.0 ** 1.5 - 1.0) / 1.5),  # 1000 median gaps
    ], ids=["mean", "median"])
    def test_event_cap_is_checked_before_drawing(self, monkeypatch, params, cap_horizon):
        below = generate_stream(params, cap_horizon * 0.999, seed=2)
        monkeypatch.setattr(traffic, "MAX_EVENTS", 1000)
        assert np.array_equal(generate_stream(params, cap_horizon * 0.999, seed=2), below)
        with pytest.raises(ResourceLimitError, match=r"events \(cap 1000\)$"):
            generate_stream(params, cap_horizon * 1.001, seed=2)

class TestFitGpd:
    def test_round_trip_recovers_generating_parameters(self):
        params = GpdParams(0.1, 500.0, 0.0)
        horizon = _gpd_mean(params) * 1.2e5
        stream = generate_stream(params, horizon, seed=11)
        gaps = np.diff(stream, prepend=0.0)[:100_000]
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
            _, ok = ks_test(np.diff(stream, prepend=0.0), params, 0.05)
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
        gaps = np.diff(stream, prepend=0.0)
        stat, _ = ks_test(gaps, params, 0.05)
        ref = scipy.stats.kstest(
            gaps, lambda x: scipy.stats.genpareto.cdf(x, c=0.2, scale=3.0)
        ).statistic
        assert stat == pytest.approx(ref, rel=1e-9)

    # An inf gap passed at 0.045, a gap of -5 passed too, and a nan gap
    # returned (nan, False).
    @pytest.mark.parametrize("bad", [np.inf, -5.0, np.nan])
    def test_rejects_bad_inter_arrivals(self, bad):
        gaps = np.diff(generate_stream(GpdParams(0.1, 900.0, 0.0), 5e6, seed=1), prepend=0.0)
        gaps[10] = bad
        with pytest.raises(ParameterError, match="^inter_arrivals must be"):
            ks_test(gaps, GpdParams(0.1, 900.0, 0.0), 0.05)
        with pytest.raises(ParameterError, match="^inter_arrivals must be"):
            fit_gpd(gaps)

    def test_critical_value_formula(self):
        # pass iff statistic < sqrt(-ln(alpha/2)/2)/sqrt(n)
        params = GpdParams(0.0, 1.0, 0.0)
        stream = generate_stream(params, 2e4, seed=2)
        gaps = np.diff(stream, prepend=0.0)
        n = gaps.size
        stat, ok = ks_test(gaps, params, 0.05)
        crit = math.sqrt(-math.log(0.025) / 2.0) / math.sqrt(n)
        assert ok == (stat < crit)
