"""Tests for the XG-PON latency model: DES engines, Kingman, round trips."""

import dataclasses
import functools
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gladsim import pon, traffic
from gladsim.errors import ConfigError, ParameterError, ResourceLimitError, SaturationError
from gladsim.experiments import ScenarioConfig, run_latency_sweep
from gladsim.pon import (
    DOWNSTREAM,
    NO_AI,
    UPSTREAM,
    WITH_AI,
    LoadPoint,
    PonConfig,
    _kingman_wait,
    _transmission_time,
    fifo_waits,
    queueing_cross_check,
    round_trips,
)
from gladsim.traffic import CONTROL_TRAFFIC_DEFAULT, GpdParams, _gpd_mean, generate_stream


def _stream(horizon=3e5, seed=5):
    return generate_stream(CONTROL_TRAFFIC_DEFAULT, horizon, seed)


class TestElementaryDelays:
    @pytest.mark.parametrize("km,per_km,expected", [
        (5.0, 5.0, 25.0), (20.0, 5.0, 100.0), (30.0, 2.0, 60.0)])
    def test_propagation(self, km, per_km, expected):
        # Each fiber crossing of a span adds km * per_km to the sweep's means:
        # four crossings without AI, two with.
        config = ScenarioConfig(pon=PonConfig(fiber_delay_us_per_km=per_km), load_grid=(0.3,),
                                span_grid_km=(0.0, km), seeds=(1,), n_loops=200)
        rows = run_latency_sweep(config).tables["latency"].rows
        means = {(row[0], row[2]): row[3] for row in rows}
        for mode, crossings in ((NO_AI, 4), (WITH_AI, 2)):
            assert means[km, mode] - means[0.0, mode] == pytest.approx(crossings * expected)

    def test_transmission_examples(self):
        assert _transmission_time(1250, 1e9) == pytest.approx(10.0)
        # 128 bytes on the upstream line: 1024 bits / 2.48832e9 bps
        assert _transmission_time(128, 2.48832e9) == pytest.approx(128 * 8 / 2.48832e9 * 1e6)
        assert _transmission_time(128, 2.48832e9) == pytest.approx(0.4115, abs=1e-4)


class TestKingman:
    def test_empty_system(self):
        assert _kingman_wait(0.0, 1.0, 1.0, 10.0) == 0.0

    def test_empty_system_with_huge_variability(self):
        # ca2 + cs2 overflows to inf here: 0 * inf would be NaN, and at
        # rho 0.5 the wait, 1e308 us, would read inf.
        assert _kingman_wait(0.0, 1e308, 1e308, 10.0) == 0.0
        assert _kingman_wait(0.5, 1e308, 1e308, 1.0) == 1e308

    def test_mm1_like_symmetry(self):
        # ca2 = cs2 = 1 gives exactly rho/(1-rho) * E[S].
        assert _kingman_wait(0.5, 1.0, 1.0, 10.0) == pytest.approx(10.0)

    # About 100 gaps of some 1e154 us: the sum of their squares is inf.  At
    # 3e-155 the square of the mean gap overflowed with a raw OverflowError.
    @pytest.mark.parametrize("rho,horizon", [(1e-154, 1e156), (3e-155, 3e156)])
    def test_overflowing_arrival_variability_is_refused(self, rho, horizon):
        with pytest.raises(ParameterError, match="^ca2 must be finite and >= 0, got inf"):
            queueing_cross_check(PonConfig(), LoadPoint(rho), 1, horizon_us=horizon)

    def test_utilization_rounded_up_to_one_saturates(self):
        # At the largest load below 1, this line's measured utilization,
        # rho * rate / bits * bits / rate, rounds up to exactly 1.
        cfg = PonConfig(downstream_rate_bps=994621889135.2457, background_packet_bytes=64011)
        load = LoadPoint(math.nextafter(1.0, 0.0))
        with pytest.raises(SaturationError, match="^no stationary wait at rho=1.0"):
            queueing_cross_check(cfg, load, 1, horizon_us=600.0)

    def test_gpd_fed_deterministic_queue_cross_validation(self):
        """Kingman vs a simulated G/D/1 queue fed by GPD arrivals at rho=0.8.

        The arrival law keeps the default shape xi = 0.1 scaled to a 5 us
        mean gap; service is fixed at 4 us, i.e. rho = 0.8.  A GPD gap has
        mean sigma / (1 - xi) and variance sigma^2 / ((1 - xi)^2 (1 - 2 xi)),
        so ca2 = 1 / (1 - 2 xi) = 1.25.
        """
        params = GpdParams(0.1, 4.5, 0.0)
        assert _gpd_mean(params) == pytest.approx(5.0)
        ca2 = 1.25

        stream = generate_stream(params, 3e6, seed=21)
        waits = fifo_waits(stream, np.full(len(stream), 4.0))
        analytical = _kingman_wait(0.8, ca2, 0.0, 4.0)
        assert analytical == pytest.approx(10.0)
        assert waits.mean() == pytest.approx(analytical, rel=0.2)


def _lindley_loop(arrivals, services):
    """The textbook sequential recursion W[i+1] = max(0, W[i] + S[i] - A[i])."""
    waits = [0.0]
    for i in range(1, len(arrivals)):
        waits.append(max(0.0, waits[-1] + services[i - 1] - (arrivals[i] - arrivals[i - 1])))
    return np.array(waits)


class TestFifoWaits:
    def test_matches_direct_lindley_recursion(self):
        rng = np.random.Generator(np.random.PCG64(3))
        arrivals = np.cumsum(rng.exponential(2.0, size=500))
        services = rng.uniform(0.5, 2.5, size=500)
        np.testing.assert_allclose(fifo_waits(arrivals, services),
                                   _lindley_loop(arrivals, services), atol=1e-9)

    def test_no_contention_when_sparse(self):
        arrivals = np.arange(10) * 100.0
        services = np.full(10, 1.0)
        assert np.all(fifo_waits(arrivals, services) == 0.0)

    def test_rejects_unsorted_arrivals(self):
        with pytest.raises(ParameterError, match="^arrival times must be non-decreasing$"):
            fifo_waits(np.array([1.0, 0.5]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("arrivals", [[np.nan, 1.0], [0.0, np.nan, 2.0], [0.0, 1.0, np.nan]])
    def test_rejects_nan_arrivals(self, arrivals):
        with pytest.raises(ParameterError, match="^arrival_times must be finite"):
            fifo_waits(np.array(arrivals), np.ones(len(arrivals)))

    @pytest.mark.parametrize("arrivals,services,name", [
        ([0.0, 1.0, np.inf], [1.0, 1.0, 1.0], "arrival_times"),
        ([0.0, 1.0, 2.0], [1.0, np.nan, 1.0], "service_times"),
        ([0.0, 1.0, 2.0], [1.0, -5.0, 1.0], "service_times"),
    ])
    def test_rejects_bad_times_by_name(self, arrivals, services, name):
        # An inf arrival gave a nan wait with a RuntimeWarning, a nan service
        # nan waits and a negative service waits of 0.
        with pytest.raises(ParameterError, match=f"^{name} must be"):
            fifo_waits(np.array(arrivals), np.array(services))

    @pytest.mark.parametrize("arrivals,services", [
        (np.array([[0.0, 1.0]]), np.array([[1.0, 1.0]])),
        (np.array(0.0), np.array(1.0)),
    ], ids=["2d", "0d"])
    def test_rejects_arrays_that_are_not_1d(self, arrivals, services):
        with pytest.raises(ParameterError, match=r"^arrival_times must be \(n,\)"):
            fifo_waits(arrivals, services)

    def test_rejects_service_times_of_another_length(self):
        with pytest.raises(ParameterError,
                           match=r"^service_times must be \(3,\), got shape \(2,\)$"):
            fifo_waits(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0]))

    def test_single_arrival_waits_nothing(self):
        assert fifo_waits(np.array([5.0]), np.array([1.0])).tolist() == [0.0]


# Gaps include exact zeros so that arrivals tie.
_queue_jobs = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 10.0)), st.floats(0.01, 10.0)),
    min_size=1, max_size=60,
)


@pytest.mark.thorough
class TestFifoWaitsProperties:
    @given(jobs=_queue_jobs)
    def test_matches_lindley_loop(self, jobs):
        gaps, services = (np.array(column) for column in zip(*jobs))
        arrivals = np.cumsum(gaps)
        waits = fifo_waits(arrivals, services)
        scale = services.sum() + arrivals[-1] + 1.0
        np.testing.assert_allclose(waits, _lindley_loop(arrivals, services),
                                   rtol=0.0, atol=1e-12 * scale)
        assert waits[0] == 0.0 and np.all(waits >= 0.0)


@pytest.mark.thorough
class TestLindleySum:
    # A busy period 1999 arrivals long, and one where every arrival finds
    # the server idle, so V ties its minimum throughout.
    @given(jobs=_queue_jobs, origin=st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
           low=st.one_of(st.just(math.inf), st.floats(-1e6, 1e6)),
           picks=st.lists(st.integers(0, 2**16), max_size=40))
    @example(jobs=[(0.0, 0.01), (10.0, 1.0)] + [(0.0, 1.0)] * 1998, origin=0.0, low=math.inf,
             picks=[0, 1, 1, 1999, 1999])
    @example(jobs=[(0.0, 1.0)] + [(1.0, 1.0)] * 3, origin=0.0, low=math.inf, picks=[1, 2, 3])
    def test_sparse_waits_match_whole_reflection(self, jobs, origin, low, picks):
        gaps, services = (np.array(column) for column in zip(*jobs))
        arrivals = np.cumsum(gaps)
        idx = np.sort(np.array(picks, dtype=np.intp) % arrivals.size)  # repeats kept
        v = pon._lindley_sum(arrivals, services, origin, np.empty(arrivals.size))
        # V less its running minimum, which starts from `low`.
        whole = v - np.minimum.accumulate(np.minimum(v, low))
        assert pon._waits_at(v, idx, low).tobytes() == whole[idx].tobytes()
        if origin == 0.0 and low == math.inf:
            assert whole.tobytes() == fifo_waits(arrivals, services).tobytes()

    @given(jobs=_queue_jobs, cut=st.integers(0, 60))
    def test_continuing_from_carried_state_is_bit_identical(self, jobs, cut):
        # The sum is cut after arrival `cut` and continued from the carried
        # state: that arrival, its V as origin and the minimum of V up to it.
        gaps, services = (np.array(column) for column in zip(*jobs))
        arrivals = np.cumsum(gaps)
        whole = fifo_waits(arrivals, services)
        cut = min(cut, arrivals.size - 1)
        first = pon._lindley_sum(arrivals[:cut + 1], services[:cut + 1], 0.0, np.empty(cut + 1))
        rest = pon._lindley_sum(arrivals[cut:], services[cut:], float(first[-1]),
                                np.empty(arrivals.size - cut))
        waits = np.concatenate((pon._waits_at(first, np.arange(first.size), math.inf),
                                pon._waits_at(rest, np.arange(1, rest.size), float(first.min()))))
        assert waits.tobytes() == whole.tobytes()


@pytest.mark.thorough
class TestGatedGrants:
    @given(arrived=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=60),
           cap=st.floats(1.0, 5e3))
    def test_matches_backlog_loop(self, arrived, cap):
        # Q[0] = 0, Q[k+1] = max(Q[k] - cap, 0) + A[k]; cycle k grants min(Q[k], cap).
        backlog, expected = 0.0, []
        for a in arrived:
            expected.append(min(backlog, cap))
            backlog = max(backlog - cap, 0.0) + a
        grants = pon._gated_grants(np.array(arrived), cap, pon._GrantState())
        scale = sum(arrived) + cap * len(arrived)
        np.testing.assert_allclose(grants, expected, rtol=0.0, atol=1e-12 * scale)

    @given(arrived=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e4)), min_size=1, max_size=60),
           cap=st.floats(1.0, 5e3), cut=st.integers(0, 60))
    def test_continuing_from_carried_state_is_bit_identical(self, arrived, cap, cut):
        arrived = np.array(arrived)
        whole = pon._gated_grants(arrived, cap, pon._GrantState())
        assert np.array_equal(whole, _whole_array_grants(arrived, cap))
        state = pon._GrantState()
        first = pon._gated_grants(arrived[:cut], cap, state)
        rest = pon._gated_grants(arrived[cut:], cap, state)
        assert np.array_equal(np.concatenate((first, rest)), whole)


def _whole_array_backlog(arrived, cap):
    """The backlog Q[k] reported at every boundary k = 0..n, by one reflection."""
    prev_arrivals = np.concatenate(([0.0], arrived))          # A[k-1] at index k
    u = np.concatenate(([0.0], np.cumsum(prev_arrivals[:-1] - cap)))
    return u - np.minimum.accumulate(u) + prev_arrivals


def _whole_array_grants(arrived, cap):
    """The gated grant recursion solved by one reflection over every cycle."""
    return np.minimum(_whole_array_backlog(arrived, cap)[:-1], cap)


def _whole_array_arrivals(rng, rate_per_us, horizon_us):
    """The background drawn whole: n_est gaps, then extensions of n_est // 10.

    At a rate near the smallest normal double the gaps near 1e308 and their
    sum overflows to inf, an instant past the horizon either way.
    """
    n_est = int(rate_per_us * horizon_us * 1.05) + 64
    with np.errstate(over="ignore"):
        times = np.cumsum(rng.exponential(1.0 / rate_per_us, size=n_est))
        while times[-1] < horizon_us:
            extra = np.cumsum(rng.exponential(1.0 / rate_per_us, size=max(64, n_est // 10)))
            times = np.concatenate([times, times[-1] + extra])
    return times[times <= horizon_us]


def _whole_array_downstream(config, rho, probe_times, rng):
    """Reference downstream leg: one draw and one reflection over all arrivals."""
    rate = config.downstream_rate_bps
    service = _transmission_time(config.background_packet_bytes, rate)
    horizon = float(probe_times[-1]) + 10.0 * service
    lam = rho * rate / (config.background_packet_bytes * 8.0) * 1e-6
    times = _whole_array_arrivals(rng, lam, horizon) if lam > 0.0 else np.empty(0)
    if not times.size:
        return np.zeros(probe_times.size), times, np.empty(0)
    v = np.concatenate(([0.0], np.cumsum(np.full(times.size - 1, service) - np.diff(times))))
    waits = v - np.minimum.accumulate(v)
    departures = times + waits + service
    idx = np.searchsorted(times, probe_times, side="right") - 1
    queueing = np.where(
        idx >= 0, np.maximum(0.0, departures[np.clip(idx, 0, None)] - probe_times), 0.0)
    return queueing, times, waits


def _whole_array_upstream(config, rho, probe_times, rng):
    """Reference upstream leg: every ONU's arrivals and grants held for all cycles.

    Returns the queueing and DBA wait columns, the tagged ONU's background
    instants, the number of empty cycles added to drain its queue, the bytes
    granted to it in all and each probe's grant cycle.
    """
    cycle = config.dba_cycle_us
    rate = config.upstream_rate_bps
    bg_bytes = config.background_packet_bytes
    cap = rate * cycle * 1e-6 / 8.0 / config.split_ratio
    preceding = config.split_ratio // 2
    horizon = float(probe_times[-1])
    n_cycles = int(math.ceil(horizon / cycle)) + 8
    lam_onu = rho * rate / (bg_bytes * 8.0) * 1e-6 / config.split_ratio
    per_onu_cycle_mean = lam_onu * cycle

    if preceding and per_onu_cycle_mean > 0.0:
        preceding_arrivals = rng.poisson(
            per_onu_cycle_mean, size=(preceding, n_cycles)).astype(float) * bg_bytes
    else:
        preceding_arrivals = np.zeros((0, n_cycles))
    bg_times = _whole_array_arrivals(rng, lam_onu, horizon) if lam_onu > 0.0 else np.empty(0)
    arrived = np.zeros(n_cycles)
    if bg_times.size:
        cycles_of = np.minimum((bg_times / cycle).astype(int), n_cycles - 1)
        arrived = np.bincount(cycles_of, minlength=n_cycles).astype(float) * bg_bytes

    # One extension with the empty cycles that grant the backlog reported at
    # the last boundary.
    extended = math.ceil(_whole_array_backlog(arrived, cap)[-1] / cap)
    arrived = np.concatenate([arrived, np.zeros(extended)])
    preceding_arrivals = np.concatenate(
        [preceding_arrivals, np.zeros((preceding_arrivals.shape[0], extended))], axis=1)
    grants = _whole_array_grants(arrived, cap)
    cum_grants = np.cumsum(grants)
    offset_bytes = np.zeros(arrived.size)
    for row in preceding_arrivals:
        offset_bytes += _whole_array_grants(row, cap)

    byte_rate_us = rate * 1e-6 / 8.0
    window_start = cycle * np.arange(arrived.size) + offset_bytes / byte_rate_us
    cum_before = cum_grants - grants
    report_cycle = (probe_times / cycle).astype(int) + 1
    ahead_bytes = np.minimum(
        np.searchsorted(bg_times, probe_times, side="right") * float(bg_bytes), cum_grants[-1])
    drained_at = np.searchsorted(cum_grants, ahead_bytes, side="left")
    grant_cycle = np.maximum(drained_at, report_cycle)
    position = np.maximum(0.0, ahead_bytes - cum_before[grant_cycle])
    tx_start = window_start[grant_cycle] + position / byte_rate_us
    return (tx_start - report_cycle * cycle, report_cycle * cycle - probe_times,
            bg_times, extended, cum_grants[-1], grant_cycle)


class _HalfGaps:
    """A generator whose gaps are half the asked mean, so the first group of a
    draw falls short of its horizon and extension groups are needed."""

    def __init__(self, seed):
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def exponential(self, scale, size):
        return 0.5 * self._rng.exponential(scale, size=size)

    def standard_exponential(self, out):
        self._rng.standard_exponential(out=out)
        out *= 0.5
        return out


# Chunk sizes for the whole-array comparisons: cuts on every event, at odd
# and round strides, at the library's chunk, and at the former 1 << 18 chunk,
# which holds a whole small leg in one chunk.
_WHOLE_ARRAY_CHUNKS = [1, 7, 1000, pon.CHUNK_EVENTS, 1 << 18]


def _drawn_chunks(rng, rate_per_us, horizon_us):
    """Copies of the chunks the upstream leg draws into its one reused buffer."""
    draw = pon._poisson_draw(rng, rate_per_us, horizon_us)
    buffer, chunks = np.empty(draw.next_size()), []
    while not draw.done:
        chunks.append(pon._poisson_arrivals(draw, buffer).copy())
    return chunks


class TestStreamedBackground:
    # Per rho, a seed whose background ends before the last probe, so the
    # last probes follow every background arrival.
    SEEDS = {0.0: 11, 0.5: 11, 0.9: 11986, 0.999: 20011}

    @pytest.mark.parametrize("chunk", _WHOLE_ARRAY_CHUNKS)
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 0.999])
    def test_downstream_leg_matches_whole_array(self, monkeypatch, chunk, rho):
        cfg, seed = PonConfig(), self.SEEDS[rho]
        probes = np.linspace(0.0, 2000.0, 201)
        _, times, _ = _whole_array_downstream(cfg, rho, probes, pon._spawn_rngs(seed, 1)[0])
        if times.size:
            assert probes[0] < times[0] and times[-1] < probes[-1]
            # A probe on every arrival instant, chunk cuts included; the last
            # probe, and so the draw, stays.
            probes = np.sort(np.concatenate((probes, times)))
        expected, times, waits = _whole_array_downstream(
            cfg, rho, probes, pon._spawn_rngs(seed, 1)[0])

        monkeypatch.setattr(pon, "CHUNK_EVENTS", chunk)
        leg = pon._downstream_leg(cfg, rho, probes, pon._spawn_rngs(seed, 1)[0])
        assert np.array_equal(leg["queueing"], expected)

    @pytest.mark.parametrize("chunk", [1, 7, 1000, pon.CHUNK_EVENTS])
    @pytest.mark.parametrize("rho", [0.3, 0.9])
    def test_downstream_leg_matches_lindley_loop(self, monkeypatch, chunk, rho):
        # Each probe's queueing rebuilt from the sequential recursion over
        # every background arrival: the leg reads waits at probes only.
        cfg, seed = PonConfig(), 8
        rate = cfg.downstream_rate_bps
        service = _transmission_time(cfg.background_packet_bytes, rate)
        lam = rho * rate / (cfg.background_packet_bytes * 8.0) * 1e-6
        probes = np.sort(np.random.Generator(np.random.PCG64(seed)).uniform(0.0, 2e4, 500))
        probes[0] = 0.0          # before every arrival
        times = _whole_array_arrivals(pon._spawn_rngs(seed, 1)[0], lam, probes[-1] + 10.0 * service)
        # Probes on some arrival instants too, which they queue behind.
        probes = np.sort(np.concatenate((probes, times[::50])))
        waits = _lindley_loop(times, np.full(times.size, service))
        expected = []
        for t in probes:
            k = int(np.searchsorted(times, t, side="right")) - 1
            expected.append(max(0.0, times[k] + waits[k] + service - t) if k >= 0 else 0.0)

        monkeypatch.setattr(pon, "CHUNK_EVENTS", chunk)
        leg = pon._downstream_leg(cfg, rho, probes, pon._spawn_rngs(seed, 1)[0])
        assert np.count_nonzero(leg["queueing"]) > probes.size * rho / 2
        np.testing.assert_allclose(leg["queueing"], expected, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("chunk", _WHOLE_ARRAY_CHUNKS)
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 0.999])
    def test_cross_check_matches_whole_array(self, monkeypatch, chunk, rho):
        cfg, seed, horizon = PonConfig(), 11, 2000.0
        # The cross-check draws the background of a leg probed up to 0.99 of
        # its horizon.
        _, times, waits = _whole_array_downstream(
            cfg, rho, np.array([horizon * 0.99]), pon._spawn_rngs(seed, 1)[0])
        assert (times.size > 1000) == (rho > 0.0)

        yielded = []
        chunks = pon._fifo_chunks

        def counted(draw, service_us):
            for arrivals, v, low in chunks(draw, service_us):
                yielded.append(arrivals.copy())
                yield arrivals, v, low

        monkeypatch.setattr(pon, "CHUNK_EVENTS", chunk)
        monkeypatch.setattr(pon, "_fifo_chunks", counted)
        out = queueing_cross_check(cfg, LoadPoint(rho), seed, horizon_us=horizon)
        # Each chunk after the first begins with the last arrival of the one
        # before, so without it every arrival comes once.
        assert all(after[0] == before[-1] for before, after in zip(yielded, yielded[1:]))
        settled = [c[1:] if i else c for i, c in enumerate(yielded)]
        assert np.array_equal(np.concatenate([np.empty(0), *settled]), times)
        service = _transmission_time(cfg.background_packet_bytes, cfg.downstream_rate_bps)
        assert out["mean_service_us"] == service and out["cs2"] == 0.0
        if times.size > 2:
            gaps = np.diff(times)
            assert out["simulated_mean_wait_us"] == pytest.approx(waits.mean(), rel=1e-12)
            assert out["ca2"] == pytest.approx(np.var(gaps) / np.mean(gaps) ** 2, rel=1e-12)
            assert out["utilization"] == pytest.approx(rho, rel=1e-12)
        else:
            assert out["simulated_mean_wait_us"] == out["ca2"] == out["utilization"] == 0.0

    def test_background_past_the_horizon_queues_nothing(self):
        # A light background whose first arrival falls past the draw's
        # horizon: the draw is made, and no chunk is yielded.
        cfg, rho, probes = PonConfig(), 1e-6, np.linspace(0.0, 2000.0, 201)
        _, times, _ = _whole_array_downstream(cfg, rho, probes, pon._spawn_rngs(5, 1)[0])
        assert times.size == 0
        leg = pon._downstream_leg(cfg, rho, probes, pon._spawn_rngs(5, 1)[0])
        assert not leg["queueing"].any()
        out = queueing_cross_check(cfg, LoadPoint(rho), 5, horizon_us=2000.0)
        assert out["simulated_mean_wait_us"] == out["utilization"] == 0.0

    @pytest.mark.parametrize("chunk", _WHOLE_ARRAY_CHUNKS)
    def test_chunked_draw_matches_whole_draw(self, monkeypatch, chunk):
        monkeypatch.setattr(pon, "CHUNK_EVENTS", chunk)
        chunks = _drawn_chunks(_HalfGaps(4), 0.9, 2000.0)
        assert all(c.size <= chunk for c in chunks)
        expected = _whole_array_arrivals(_HalfGaps(4), 0.9, 2000.0)
        assert np.array_equal(np.concatenate(chunks), expected)

    @pytest.mark.parametrize("seed", range(5))
    def test_draw_into_buffer_matches_exponential(self, monkeypatch, seed):
        monkeypatch.setattr(pon, "CHUNK_EVENTS", 1000)
        rng, reference = pon._spawn_rngs(seed, 1)[0], pon._spawn_rngs(seed, 1)[0]
        draw = pon._poisson_draw(rng, 0.9, 5000.0)
        buffer, chunks = np.full(1300, np.nan), []
        while not draw.done:
            chunk = pon._poisson_arrivals(draw, buffer[300:])
            assert np.shares_memory(chunk, buffer)
            chunks.append(chunk.copy())
        expected = _whole_array_arrivals(reference, 0.9, 5000.0)
        assert np.array_equal(np.concatenate(chunks), expected)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(rng.exponential(2.0, 3), reference.exponential(2.0, 3))

    def test_event_cap(self, monkeypatch):
        cfg = PonConfig()
        # About 0.9 events per us: the cap is checked before anything is drawn.
        probes = np.array([0.0, 1.2 * pon.MAX_EVENTS])
        rng = pon._spawn_rngs(1, 1)[0]
        state = rng.bit_generator.state
        with pytest.raises(ResourceLimitError, match="downstream"):
            pon._downstream_leg(cfg, 0.9, probes, rng)
        with pytest.raises(ResourceLimitError, match="downstream"):
            queueing_cross_check(cfg, LoadPoint(0.9), 1, horizon_us=1.2 * pon.MAX_EVENTS)
        # 16 ONUs x 10M cycles of 0.01 us, each counted as at least one event.
        with pytest.raises(ResourceLimitError, match="upstream"):
            pon._upstream_leg(PonConfig(dba_cycle_us=0.01), 0.9, np.array([0.0, 1e5]), rng)
        assert rng.bit_generator.state == state
        # Extensions count towards the cap too.
        monkeypatch.setattr(pon, "MAX_EVENTS", 3000)
        with pytest.raises(ResourceLimitError):
            _drawn_chunks(_HalfGaps(4), 1.0, 2000.0)

    @pytest.mark.parametrize("n_loops", [5_000, 20_000])
    def test_downstream_memory_is_flat_in_loops(self, n_loops):
        # The sweep's path: the leg carries only its delay columns (the
        # background statistics live in the cross-check).
        probes = generate_stream(CONTROL_TRAFFIC_DEFAULT, n_loops * 1000.0, 3)
        tracemalloc.start()
        try:
            leg = pon._downstream_leg(PonConfig(), 0.9, probes,
                                      pon._spawn_rngs(3, 1)[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert set(leg) == {"queueing", "dba_wait", "transmission"}
        # A whole-array leg holds several arrays of ~0.9 events per us of horizon:
        # about 200 MiB at 5k loops and 800 MiB at 20k.  The streamed leg peaks
        # at 1.09 and 1.31 MiB: two rows (the arrivals and the Lindley sum),
        # each one chunk of 1 << 16 arrivals and the carried one long, plus
        # the per-probe columns.  The bound leaves 2.7 MiB for them.  With
        # fresh chunk temporaries (the draw, the waits, the running minimum
        # and the gaps) a leg took 12.7 MiB, and 18.5 MiB with the
        # concatenated arrivals and filled services too.
        assert peak < 4 * 2**20
        if n_loops == 5_000:     # a third row, once held for the cross-check: 1.59 MiB
            assert peak < 1.4 * 2**20

    def test_downstream_memory_is_flat_near_saturation(self):
        # At rho 0.999 busy periods run past a million arrivals.  Cutting each
        # chunk at its last idle arrival held the open busy period in a
        # buffer that grew with it, to 67 MiB over these 1.1e7 us; carrying
        # one arrival across each cut holds 1.17 MiB.
        probes = generate_stream(CONTROL_TRAFFIC_DEFAULT, 1.1e7, 3)
        tracemalloc.start()
        try:
            pon._downstream_leg(PonConfig(), 0.999, probes, pon._spawn_rngs(3, 1)[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_cross_check_memory_is_flat(self):
        tracemalloc.start()
        try:
            queueing_cross_check(PonConfig(), LoadPoint(0.9), 1, horizon_us=2e7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # About 18M events, streamed through the leg's two rows, with the
        # running minimum, the waits and then the gaps in a work row of the
        # cross-check's own: 1.50 MiB for the three.  The bound leaves 2.5 MiB.
        assert peak < 4 * 2**20

    def test_cross_check_memory_is_flat_near_saturation(self):
        tracemalloc.start()
        try:
            queueing_cross_check(PonConfig(), LoadPoint(0.999), 1, horizon_us=1.1e7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # About 11M events in busy periods up to 4M arrivals long.
        # Cut at idle arrivals, the open busy period's buffers peaked at
        # 220 MiB; with one carried arrival they hold 1.50 MiB.
        assert peak < 4 * 2**20


# Cycle chunk sizes for the upstream whole-array comparisons: cuts on every
# cycle, at odd and round strides, and at the library's chunk.
_CYCLE_CHUNKS = [1, 7, 1000, pon.CHUNK_CYCLES]


def _md1_workload_cdf(x, rho):
    """P(V <= x) for the M/D/1 workload V, in units of the service time.

    Erlang's formula, (1 - rho) * sum over k <= x of (rho (k - x))^k / k!
    * exp(-rho (k - x)), is the law of Benes: a Geometric(rho) count of
    Uniform(0, 1) residuals.  Its terms cancel heavily, so it is summed in
    80-digit decimals.
    """
    with localcontext() as context:
        context.prec = 80
        r, x = Decimal(rho), Decimal(x)
        total = sum((r * (k - x)) ** k / math.factorial(k) * (r * (x - k)).exp()
                    for k in range(int(x) + 1))
        return float((1 - r) * total)


def _md1_workload_quantile(q, rho):
    lo, hi = 0.0, 1.0
    while _md1_workload_cdf(hi, rho) < q:
        lo, hi = hi, 2.0 * hi
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _md1_workload_cdf(mid, rho) < q else (lo, mid)
    return hi


class TestDownstreamLaw:
    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.95])
    def test_probe_queueing_follows_the_md1_workload(self, rho):
        # A probe's queueing is the FIFO's workload at its instant.  Per seed:
        # P(V = 0), the mean and the 95th and 99th percentiles, in services,
        # from 4,000 probes 1 ms apart after a 10 ms warm-up.  Probes that
        # close are correlated near saturation, so the standard errors come
        # from the spread over seeds.
        cfg, seeds = PonConfig(), range(1, 9)
        service = _transmission_time(cfg.background_packet_bytes, cfg.downstream_rate_bps)
        probes = 1000.0 * np.arange(10, 4010)
        per_seed = []
        for seed in seeds:
            queueing = pon._downstream_leg(cfg, rho, probes,
                                           pon._spawn_rngs(seed, 1)[0])["queueing"] / service
            per_seed.append([np.mean(queueing == 0.0), queueing.mean(),
                             *np.quantile(queueing, [0.95, 0.99])])
        per_seed = np.array(per_seed)
        exact = [1.0 - rho, rho / (2.0 * (1.0 - rho)),
                 _md1_workload_quantile(0.95, rho), _md1_workload_quantile(0.99, rho)]
        stderr = per_seed.std(axis=0, ddof=1) / math.sqrt(len(seeds))
        z = (per_seed.mean(axis=0) - exact) / stderr
        assert np.all(np.abs(z) <= 5.0), z


@functools.cache
def _upstream_peak(n_loops):
    """The tracemalloc peak of one rho 0.9 upstream leg, its cycles and its probes."""
    probes = generate_stream(CONTROL_TRAFFIC_DEFAULT, n_loops * 1000.0, 3)
    tracemalloc.start()
    try:
        pon._upstream_leg(PonConfig(), 0.9, probes, pon._spawn_rngs(3, 1)[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    _, n_cycles = pon._leg_plan(PonConfig(), 0.9, UPSTREAM, float(probes[-1]))
    return peak, n_cycles, probes.size


class TestStreamedUpstream:
    # Per rho, a seed; at rho 0.9 the tagged ONU's queue outlasts the eight
    # spare cycles, so the schedule is extended with empty cycles.
    SEEDS = {0.0: 11, 0.5: 11, 0.9: 203}

    @staticmethod
    def _check_whole_array(monkeypatch, chunk, cfg, rho, seed, span=2000.0):
        """Compare the leg with the reference at every cycle chunk size.

        Returns the reference's drain cycles, how far its total grant falls
        short of the bytes queued, and its grant cycles.
        """
        probes = np.linspace(0.0, span, 201)
        times = _whole_array_upstream(cfg, rho, probes, pon._spawn_rngs(seed, 1)[0])[2]
        # Probes on every cycle boundary and every background arrival instant,
        # chunk cuts included; the last probe, and so the draw, stays.
        probes = np.sort(np.concatenate((probes, np.arange(0.0, span, cfg.dba_cycle_us), times)))
        queueing, dba_wait, times, extended, granted, grant_cycle = _whole_array_upstream(
            cfg, rho, probes, pon._spawn_rngs(seed, 1)[0])

        drawn, arrivals = [], pon._poisson_arrivals

        def recorded(draw, out):
            chunk = arrivals(draw, out)
            drawn.append(chunk.copy())
            return chunk

        monkeypatch.setattr(pon, "CHUNK_EVENTS", chunk)
        monkeypatch.setattr(pon, "_poisson_arrivals", recorded)
        for cycles in _CYCLE_CHUNKS:
            monkeypatch.setattr(pon, "CHUNK_CYCLES", cycles)
            drawn.clear()
            leg = pon._upstream_leg(cfg, rho, probes, pon._spawn_rngs(seed, 1)[0])
            assert np.array_equal(leg["queueing"], queueing)
            assert np.array_equal(leg["dba_wait"], dba_wait)
            # Each of the tagged ONU's arrivals is drawn once: the leg's share
            # of the background events the benchmark counts.
            assert np.array_equal(np.concatenate([np.empty(0), *drawn]), times)
        return extended, times.size * float(cfg.background_packet_bytes) - granted, grant_cycle

    @pytest.mark.parametrize("chunk", _WHOLE_ARRAY_CHUNKS)
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_upstream_leg_matches_whole_array(self, monkeypatch, chunk, rho):
        extended, short, _ = self._check_whole_array(
            monkeypatch, chunk, PonConfig(), rho, self.SEEDS[rho])
        assert (extended > 0) == (rho == 0.9)
        assert short == 0.0

    # Grant caps that are not whole bytes: 2527.2 at a 130 us cycle, 1302.08
    # at 1 Gb/s over 12 ONUs.  On these seeds the running sum of the grants
    # ends a hair short of the bytes queued, so a drain that waited for it to
    # reach them never ended; at rho 0.8 the queue also outlasts the spare
    # cycles.
    @pytest.mark.parametrize("chunk", _WHOLE_ARRAY_CHUNKS)
    @pytest.mark.parametrize("cfg,rho,seed,extends", [
        (PonConfig(dba_cycle_us=130.0), 0.5, 114, False),
        (PonConfig(dba_cycle_us=130.0), 0.8, 100, True),
        (PonConfig(upstream_rate_bps=1e9, split_ratio=12), 0.5, 15, False),
    ], ids=["cycle130-0.5", "cycle130-0.8", "1Gbps-split12-0.5"])
    def test_non_integer_cap_matches_whole_array(self, monkeypatch, chunk, cfg, rho, seed,
                                                 extends):
        extended, short, _ = self._check_whole_array(
            monkeypatch, chunk, cfg, rho, seed)
        assert (extended > 0) == extends
        assert short > 0.0

    @pytest.mark.parametrize("chunk", _WHOLE_ARRAY_CHUNKS)
    def test_grants_in_the_drain_match_whole_array(self, monkeypatch, chunk):
        # Over 20 ms at rho 0.9 on this seed the tagged queue outlasts the
        # spare cycles by seven, so the probes that report in the last cycles
        # are granted in the drain, which one-cycle chunks split into seven.
        cfg, span = PonConfig(), 20_000.0
        extended, short, grant_cycle = self._check_whole_array(
            monkeypatch, chunk, cfg, 0.9, 50, span)
        n_cycles = math.ceil(span / cfg.dba_cycle_us) + 8
        assert extended == 7 and short == 0.0
        assert np.count_nonzero(grant_cycle >= n_cycles) > 8
        assert grant_cycle[-1] > n_cycles

    @pytest.mark.thorough
    @given(split=st.integers(1, 64),
           cycle=st.sampled_from([62.5, 97.3, 125.0, 130.0, 250.0]),
           rate=st.sampled_from([1e9, 2.48832e9, 9.95328e9]),
           rho=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
           seed=st.integers(0, 2**32 - 1),
           span=st.floats(100.0, 2000.0),
           chunkings=st.lists(st.tuples(st.sampled_from([1, 7, 1000, pon.CHUNK_EVENTS]),
                                        st.sampled_from([1, 3, 7, pon.CHUNK_CYCLES])),
                              min_size=3, max_size=3))
    def test_random_networks_match_whole_array(self, split, cycle, rate, rho, seed, span,
                                               chunkings):
        # Odd splits, 1 Gb/s and cycles such as 130 us give grant caps that
        # are not binary fractions, where the running grant can end short of
        # the bytes queued and the reference clamps the bytes ahead.
        cfg = PonConfig(upstream_rate_bps=rate, split_ratio=split, dba_cycle_us=cycle)
        probes = np.sort(np.random.Generator(np.random.PCG64(seed)).uniform(0.0, span, 60))
        times = _whole_array_upstream(cfg, rho, probes, pon._spawn_rngs(seed, 1)[0])[2]
        # Probes on cycle boundaries and background arrival instants too; the
        # last probe, and so the draw, stays.
        probes = np.sort(np.concatenate((probes, np.arange(0.0, probes[-1], cycle), times)))
        queueing, dba_wait = _whole_array_upstream(
            cfg, rho, probes, pon._spawn_rngs(seed, 1)[0])[:2]
        for events, cycles in chunkings:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pon, "CHUNK_EVENTS", events)
                patch.setattr(pon, "CHUNK_CYCLES", cycles)
                leg = pon._upstream_leg(cfg, rho, probes, pon._spawn_rngs(seed, 1)[0])
            assert np.array_equal(leg["queueing"], queueing)
            assert np.array_equal(leg["dba_wait"], dba_wait)

    @pytest.mark.parametrize("n_loops", [30_000, 100_000])
    def test_upstream_memory_is_flat_in_loops(self, n_loops):
        peak = _upstream_peak(n_loops)[0]
        # Holding every ONU's draws and grants for all cycles took 37.6 MiB at
        # 30k loops and 125.8 MiB at 100k; with three per-cycle columns
        # (6.1 MiB each at 100k loops), 7.9 and 25.3 MiB.  Streamed, the leg
        # holds the preceding ONUs' offsets (240k and 800k cycles), its two
        # output columns and about 0.8 MiB of one draw buffer and one cycle
        # chunk: 3.06 and 8.39 MiB.  The bounds leave 0.44 and 0.61 MiB.
        assert peak < {30_000: 3.5, 100_000: 9.0}[n_loops] * 2**20

    def test_upstream_memory_grows_by_one_column_per_cycle(self):
        # From 30k to 100k loops the peak grows by at most 8 bytes per added
        # cycle (the offsets) and 16 per added probe (the two output
        # columns): nothing else the leg holds spans the horizon.  The chunk
        # work memory at the peak moves by up to about 20 KiB with the chunk
        # and with what earlier tests left cached, hence 64 KiB of margin;
        # one more per-probe column would add 0.54 MiB.
        (low, low_cycles, low_probes), (high, high_cycles, high_probes) = (
            _upstream_peak(30_000), _upstream_peak(100_000))
        columns = 8 * (high_cycles - low_cycles) + 16 * (high_probes - low_probes)
        assert high - low <= columns + 64 * 2**10

    @pytest.mark.parametrize("cycle", [
        125.0,
        pytest.param(130.0, marks=pytest.mark.xfail(strict=True, reason=(
            "the float running grant of a 2527.2-byte cap ends a hair short of the bytes "
            "ahead, so the probe waits for a later grant"))),
    ])
    def test_probe_cleared_by_its_report_cycle_is_granted_in_it(self, cycle):
        # The tagged ONU's grant schedule in exact rational arithmetic: a
        # probe whose bytes ahead it grants by the probe's report cycle is
        # granted in that cycle.  The leg's grant cycle shows in its queueing:
        # granted in its report cycle, a probe waits for at most the windows
        # of the ONUs before it and its own, less than a cycle; granted later,
        # a cycle or more.  At a 125 us cycle the cap is 2430 bytes and the
        # float sums are exact.  At 130 us, on this seed, 164 of the 315
        # probes so cleared wait a cycle or more.
        cfg, rho, seed = PonConfig(dba_cycle_us=cycle), 0.1, 2
        probes = _stream(3e5, seed)
        leg = pon._upstream_leg(cfg, rho, probes, pon._spawn_rngs(seed, 1)[0])
        times = _whole_array_upstream(cfg, rho, probes, pon._spawn_rngs(seed, 1)[0])[2]
        bg_bytes = cfg.background_packet_bytes
        cap = Fraction(cfg.upstream_rate_bps) * Fraction(cycle) / (8 * 10**6 * cfg.split_ratio)
        report_cycle = (probes / cycle).astype(int) + 1
        arrived = np.bincount((times / cycle).astype(int), minlength=int(report_cycle[-1]) + 1)
        backlog, granted, cum_grants = Fraction(0), Fraction(0), []
        for count in arrived.tolist():
            grant = min(backlog, cap)
            granted += grant
            cum_grants.append(granted)
            backlog += count * bg_bytes - grant
        ahead = np.searchsorted(times, probes, side="right") * bg_bytes
        cleared = np.array([cum_grants[r] >= a for r, a in zip(report_cycle.tolist(),
                                                               ahead.tolist())])
        assert cleared.sum() > probes.size * 0.9
        assert np.all(leg["queueing"][cleared] < cycle)


def _leg_at(leg, cfg, rho, probes, seed):
    """One leg's columns from its own generator, as `validate` draws it."""
    return leg(cfg, rho, probes, pon._spawn_rngs(seed, 1)[0])


class TestLegs:
    def test_zero_load_upstream_component_bounds(self):
        cfg = PonConfig()
        stream = _stream()
        leg = _leg_at(pon._upstream_leg, cfg, 0.0, stream + cfg.wireless_hop_us, 42)
        assert leg["transmission"] == pytest.approx(
            _transmission_time(cfg.packet_bytes, cfg.upstream_rate_bps))
        assert leg["queueing"].shape == leg["dba_wait"].shape == (len(stream),)
        assert np.all(leg["queueing"] == 0.0)
        assert np.all((leg["dba_wait"] >= 0.0) & (leg["dba_wait"] <= cfg.dba_cycle_us))

    def test_zero_load_downstream(self):
        cfg = PonConfig()
        stream = _stream()
        leg = _leg_at(pon._downstream_leg, cfg, 0.0, stream, 42)
        assert leg["queueing"].shape == leg["dba_wait"].shape == (len(stream),)
        assert np.all(leg["queueing"] == 0.0)
        assert np.all(leg["dba_wait"] == 0.0)
        assert leg["transmission"] == pytest.approx(
            _transmission_time(cfg.packet_bytes, cfg.downstream_rate_bps))

    @pytest.mark.parametrize("leg", [pon._upstream_leg, pon._downstream_leg],
                             ids=[UPSTREAM, DOWNSTREAM])
    def test_deterministic(self, leg):
        a, b = (_leg_at(leg, PonConfig(), 0.6, _stream(), 7) for _ in range(2))
        assert a.keys() == b.keys()
        for key in ("queueing", "dba_wait"):
            assert np.array_equal(a[key], b[key])
        assert a["transmission"] == b["transmission"]

    @pytest.mark.parametrize("leg", [pon._upstream_leg, pon._downstream_leg],
                             ids=[UPSTREAM, DOWNSTREAM])
    @pytest.mark.parametrize("rho", [0.0, 0.4, 0.8])
    def test_components_non_negative(self, leg, rho):
        stream = _stream(1e5, 9)
        out = _leg_at(leg, PonConfig(), rho, stream, 3)
        for key in ("queueing", "dba_wait"):
            assert out[key].shape == (len(stream),)
            assert np.all(out[key] >= 0.0)
        assert out["transmission"] >= 0.0

    @pytest.mark.parametrize("leg", [pon._upstream_leg, pon._downstream_leg],
                             ids=[UPSTREAM, DOWNSTREAM])
    def test_vanishing_load_draws_no_background(self, leg):
        # At rho 2.55e-307 the mean background gap is about 1e306 us.  Scaling
        # the upstream draws overflowed in multiply, and summing the
        # downstream ones in accumulate; pytest turns either RuntimeWarning
        # into an error.  Every instant lies past the horizon, so the leg
        # reads as at zero load.
        cfg = PonConfig(upstream_rate_bps=1e9, split_ratio=1, dba_cycle_us=62.5)
        stream = _stream()
        out = _leg_at(leg, cfg, 2.55e-307, stream, 0)
        zero = _leg_at(leg, cfg, 0.0, stream, 0)
        for key in ("queueing", "dba_wait"):
            assert np.array_equal(out[key], zero[key])

    def test_dba_wait_bounded_at_any_load(self):
        cfg = PonConfig()
        for rho in (0.0, 0.5, 0.9):
            dba = _leg_at(pon._upstream_leg, cfg, rho, _stream(1e5, 2), 4)["dba_wait"]
            assert np.all((dba >= 0.0) & (dba <= cfg.dba_cycle_us))

    @pytest.mark.thorough
    @given(seed=st.integers(0, 2**32 - 1),
           horizon=st.floats(2e3, 2e5),
           cycle=st.floats(10.0, 1000.0))
    def test_zero_load_upstream_oracle(self, seed, horizon, cycle):
        # With nothing queued, a message reports at the next cycle boundary
        # after it reaches the ONU (one wireless hop after generation).
        cfg = PonConfig(dba_cycle_us=cycle)
        stream = _stream(horizon, seed)
        assume(len(stream) > 0)
        t = stream + cfg.wireless_hop_us
        leg = _leg_at(pon._upstream_leg, cfg, 0.0, t, seed)
        assert np.all(leg["queueing"] == 0.0)
        assert np.array_equal(leg["dba_wait"], cycle * (np.floor(t / cycle) + 1.0) - t)

    def test_saturated_load_rejected(self):
        with pytest.raises(SaturationError):
            LoadPoint(1.0)

    def test_downstream_mean_queueing_matches_kingman(self):
        out = queueing_cross_check(PonConfig(), LoadPoint(0.5), seed=1)
        assert out["relative_gap"] <= 0.2


def _loop_totals(cfg, rho, seed, n_loops):
    """Each mode's per-loop totals at the span of `cfg`."""
    prop = cfg.span_km * cfg.fiber_delay_us_per_km
    return {mode: base + legs * prop
            for mode, (base, legs) in round_trips(cfg, LoadPoint(rho), seed,
                                                  n_loops=n_loops).items()}


class TestRoundTrips:
    def test_modes_leg_counts_and_warm_up(self):
        loops = round_trips(PonConfig(), LoadPoint(0.0), seed=2, n_loops=2000)
        assert list(loops) == [NO_AI, WITH_AI]
        assert [legs for _, legs in loops.values()] == [4, 2]
        assert all(base.shape == (1800,) for base, _ in loops.values())
        # The span does not enter the totals.
        again = round_trips(PonConfig(span_km=35.0), LoadPoint(0.0), seed=2, n_loops=2000)
        assert all(np.array_equal(loops[mode][0], again[mode][0]) for mode in loops)

    def test_zero_load_no_ai_decomposition(self):
        """At rho=0 the loop is 4 propagation + 4 wireless + 2 DBA waits + tx."""
        cfg = PonConfig(span_km=20.0)
        totals = _loop_totals(cfg, 0.0, seed=2, n_loops=2000)[NO_AI]
        tx = 2 * _transmission_time(cfg.packet_bytes, cfg.upstream_rate_bps) \
            + 2 * _transmission_time(cfg.packet_bytes, cfg.downstream_rate_bps)
        floor = 4 * 100.0 + 4 * 50.0 + tx
        ceiling = floor + 2 * cfg.dba_cycle_us
        assert floor < totals.mean() < ceiling
        assert np.percentile(totals, 99) <= ceiling
        assert ceiling < 1000.0

    def test_zero_load_with_ai_decomposition(self):
        """At rho=0 the AI loop is 2 propagation + 2 wireless + 1 DBA + inference."""
        cfg = PonConfig(span_km=30.0)
        totals = _loop_totals(cfg, 0.0, seed=2, n_loops=2000)[WITH_AI]
        tx = _transmission_time(cfg.packet_bytes, cfg.upstream_rate_bps) \
            + _transmission_time(cfg.packet_bytes, cfg.downstream_rate_bps)
        floor = 2 * 150.0 + 2 * 50.0 + tx + cfg.ai_inference_us
        assert floor < totals.mean() < floor + cfg.dba_cycle_us

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_with_ai_dominates(self, rho):
        totals = _loop_totals(PonConfig(span_km=20.0), rho, seed=6, n_loops=2000)
        assert totals[WITH_AI].mean() < totals[NO_AI].mean()

    def test_mean_monotone_in_load(self):
        cfg = PonConfig(span_km=20.0)
        means = [
            _loop_totals(cfg, rho, seed=8, n_loops=3000)[NO_AI].mean()
            for rho in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert all(b >= a for a, b in zip(means, means[1:]))

    def test_deterministic_summary(self):
        a = round_trips(PonConfig(), LoadPoint(0.6), seed=4, n_loops=1500)
        b = round_trips(PonConfig(), LoadPoint(0.6), seed=4, n_loops=1500)
        assert a.keys() == b.keys()
        for mode in a:
            assert np.array_equal(a[mode][0], b[mode][0]) and a[mode][1] == b[mode][1]

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_with_ai_totals_are_no_ai_legs_0_and_3(self, monkeypatch, rho):
        # The with-AI loop is the no-AI loop's control upstream (leg 0) and
        # feedback downstream (leg 3) plus the inference, bit for bit, so the
        # four no-AI legs alone determine both modes.
        cfg, legs = PonConfig(), []

        def recorded(leg):
            def call(*args):
                legs.append(leg(*args))
                return legs[-1]
            return call

        monkeypatch.setattr(pon, "_upstream_leg", recorded(pon._upstream_leg))
        monkeypatch.setattr(pon, "_downstream_leg", recorded(pon._downstream_leg))
        loops = round_trips(cfg, LoadPoint(rho), seed=5, n_loops=1000)
        expected = np.zeros(1000)
        for no_ai_leg in (legs[0], legs[3]):
            expected += (no_ai_leg["queueing"] + no_ai_leg["dba_wait"]
                         + no_ai_leg["transmission"] + cfg.wireless_hop_us)
        expected += cfg.ai_inference_us
        assert np.array_equal(loops[WITH_AI][0], expected[int(1000 * pon.WARMUP_FRACTION):])


def _bytes_scaled(cfg, factor):
    return dataclasses.replace(
        cfg, downstream_rate_bps=factor * cfg.downstream_rate_bps,
        upstream_rate_bps=factor * cfg.upstream_rate_bps, packet_bytes=factor * cfg.packet_bytes,
        background_packet_bytes=factor * cfg.background_packet_bytes)


def _time_scaled(cfg, factor):
    return dataclasses.replace(
        cfg, dba_cycle_us=factor * cfg.dba_cycle_us, wireless_hop_us=factor * cfg.wireless_hop_us,
        ai_inference_us=factor * cfg.ai_inference_us,
        fiber_delay_us_per_km=factor * cfg.fiber_delay_us_per_km,
        downstream_rate_bps=cfg.downstream_rate_bps / factor,
        upstream_rate_bps=cfg.upstream_rate_bps / factor)


def _law_scaled(law, factor):
    return dataclasses.replace(law, scale=factor * law.scale, location=factor * law.location)


class TestMetamorphic:
    """Whole-model relations that hold bit for bit, because every factor is a power of 2.

    M1 (bytes against rate): doubling both line rates and both packet sizes
    leaves every per-loop total unchanged.  M2 (time): doubling the DBA
    cycle, the wireless hop, the inference time and the control law's scale
    and location, and halving both line rates, doubles every total.  A
    constant written where a config field belongs breaks one of them.  The
    downstream cross-check keeps both too, with its horizon doubled under M2,
    and the latency sweep keeps M2 at other factors, with the per-km fiber
    delay and the deadline scaled too: every crossing stays.
    """

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1), n_loops=st.integers(10, 400))
    def test_bytes_against_rate(self, rho, seed, n_loops):
        cfg = PonConfig()
        base = round_trips(cfg, LoadPoint(rho), seed, n_loops=n_loops)
        scaled = round_trips(_bytes_scaled(cfg, 2), LoadPoint(rho), seed, n_loops=n_loops)
        for mode in (NO_AI, WITH_AI):
            assert np.array_equal(scaled[mode][0], base[mode][0]), mode
            assert scaled[mode][1] == base[mode][1]

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**32 - 1), n_loops=st.integers(10, 400))
    def test_time_doubles_every_total(self, rho, seed, n_loops):
        cfg, law = PonConfig(), CONTROL_TRAFFIC_DEFAULT
        base = round_trips(cfg, LoadPoint(rho), seed, n_loops=n_loops, traffic=law)
        scaled = round_trips(_time_scaled(cfg, 2), LoadPoint(rho), seed, n_loops=n_loops,
                             traffic=_law_scaled(law, 2))
        for mode in (NO_AI, WITH_AI):
            assert np.array_equal(scaled[mode][0], 2 * base[mode][0]), mode
            assert scaled[mode][1] == base[mode][1]

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 0.999])
    @settings(max_examples=5)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=1)
    @example(seed=7)
    def test_cross_check_bytes_against_rate(self, rho, seed):
        base = queueing_cross_check(PonConfig(), LoadPoint(rho), seed, horizon_us=2e5)
        scaled = queueing_cross_check(_bytes_scaled(PonConfig(), 2), LoadPoint(rho), seed,
                                      horizon_us=2e5)
        assert scaled == base

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 0.999])
    @settings(max_examples=5)
    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=1)
    @example(seed=7)
    def test_cross_check_time_doubles_waits(self, rho, seed):
        base = queueing_cross_check(PonConfig(), LoadPoint(rho), seed, horizon_us=2e5)
        scaled = queueing_cross_check(_time_scaled(PonConfig(), 2), LoadPoint(rho), seed,
                                      horizon_us=4e5)
        times = {"simulated_mean_wait_us", "kingman_wait_us", "mean_service_us"}
        ratios = {"utilization", "ca2", "cs2", "relative_gap"}
        assert set(base) == set(scaled) == times | ratios
        for key in times:
            assert scaled[key] == 2 * base[key], key
        for key in ratios:
            assert scaled[key] == base[key], key

    @pytest.mark.parametrize("factor", [0.5, 2, 4])
    @pytest.mark.parametrize("cycle", [125.0, 130.0])
    def test_sweep_time_scales_latency_and_keeps_crossings(self, factor, cycle):
        def sweep(cfg, law, deadline_us):
            return run_latency_sweep(ScenarioConfig(
                pon=cfg, load_grid=(0.0, 0.5, 0.9, 1.0), span_grid_km=(5.0, 40.0), seeds=(1, 2),
                control_traffic=law, n_loops=200, deadline_us=deadline_us)).tables

        cfg, law = PonConfig(dba_cycle_us=cycle), CONTROL_TRAFFIC_DEFAULT
        base = sweep(cfg, law, 1000.0)
        scaled = sweep(_time_scaled(cfg, factor), _law_scaled(law, factor), factor * 1000.0)
        crossings = base["deadline_crossing"].rows
        assert any(0.0 < row[2] < 100.0 for row in crossings)
        assert any(row[3] for row in crossings)      # rho 1.0 is flagged saturated
        assert scaled["deadline_crossing"] == base["deadline_crossing"]
        # The time cells scale; spans, loads, modes and flags stay.
        for name, times in (("latency", (3, 4, 5)), ("ai_dominance", (2, 3))):
            assert scaled[name].columns == base[name].columns
            expected = tuple(
                tuple(factor * cell if i in times and cell != "" else cell
                      for i, cell in enumerate(row))
                for row in base[name].rows)
            assert scaled[name].rows == expected, name


_LEG_CONFIGS = {
    "default": PonConfig(),
    # The grant caps that are not whole bytes (see TestStreamedUpstream).
    "cycle130": PonConfig(dba_cycle_us=130.0),
    "1Gbps-split12": PonConfig(upstream_rate_bps=1e9, split_ratio=12),
}


class TestLegMetamorphic:
    """M1 and M2 (see TestMetamorphic) for each leg on its own, bit for bit.

    Under M1, with the line rates and both packet sizes multiplied by 2 or
    4, every delay column is unchanged.  Under M2, with the DBA cycle and
    the probe times multiplied and the line rates divided by f, for f = 1/2,
    2 and 4, the queueing, DBA wait and transmission columns are f times the
    originals.
    """

    LEGS = {UPSTREAM: pon._upstream_leg, DOWNSTREAM: pon._downstream_leg}
    # At rho 0.9 the tagged ONU's queue outlasts the spare cycles on seed 92
    # at the 125 and 130 us cycles and on seed 6 at 1 Gb/s, so the upstream
    # leg's drain is covered too.
    SEEDS = (1, 6, 92)

    @classmethod
    def _run(cls, direction, cfg, rho, probes, seed):
        return cls.LEGS[direction](cfg, rho, probes, pon._spawn_rngs(seed, 1)[0])

    @pytest.mark.parametrize("factor", [2, 4])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("cfg", _LEG_CONFIGS.values(), ids=_LEG_CONFIGS)
    @pytest.mark.parametrize("direction", [UPSTREAM, DOWNSTREAM])
    def test_bytes_against_rate(self, direction, cfg, rho, factor):
        for seed in self.SEEDS:
            probes = _stream(1e5, seed)
            base = self._run(direction, cfg, rho, probes, seed)
            scaled = self._run(direction, _bytes_scaled(cfg, factor), rho, probes, seed)
            assert set(scaled) == set(base) == {"queueing", "dba_wait", "transmission"}
            for key, column in base.items():
                assert np.array_equal(scaled[key], column), (seed, key)

    @pytest.mark.parametrize("factor", [0.5, 2, 4])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("cfg", _LEG_CONFIGS.values(), ids=_LEG_CONFIGS)
    @pytest.mark.parametrize("direction", [UPSTREAM, DOWNSTREAM])
    def test_time_scales_every_delay(self, direction, cfg, rho, factor):
        for seed in self.SEEDS:
            probes = _stream(1e5, seed)
            base = self._run(direction, cfg, rho, probes, seed)
            scaled = self._run(direction, _time_scaled(cfg, factor), rho, factor * probes, seed)
            assert set(scaled) == set(base) == {"queueing", "dba_wait", "transmission"}
            for key, column in base.items():
                assert np.array_equal(scaled[key], factor * column), (seed, key)


class TestEventBudget:
    @pytest.mark.parametrize("rho", [0.0, 0.5])
    def test_probe_stream_is_capped_before_drawing(self, monkeypatch, rho):
        # The probe stream's first batch was sized from n_loops alone: at
        # n_loops = 10**9 it asked for 9.83 GiB before any leg was planned.
        monkeypatch.setattr(traffic, "MAX_EVENTS", 10_000)
        with pytest.raises(ResourceLimitError, match="^stream needs ~1.1e\\+04 events"):
            round_trips(PonConfig(), LoadPoint(rho), seed=1, n_loops=10_000)

    # At rho 0.9 the downstream leg draws about 0.9 events per us of probe
    # horizon and the upstream leg about 0.22 at the default 125 us cycle.
    # With 10 us cycles each ONU's count per cycle, 0.14 packets on average,
    # is counted as one event, 1.6 per us, so the upstream leg binds.
    @pytest.mark.parametrize("cfg,leg", [
        (PonConfig(), "downstream"),
        (PonConfig(dba_cycle_us=10.0), "upstream"),
    ], ids=["downstream", "upstream"])
    def test_largest_accepted_scenario_runs(self, monkeypatch, cfg, leg):
        monkeypatch.setattr(pon, "MAX_EVENTS", 30_000)
        seeds = tuple(range(6))

        def scenario(n_loops):
            return ScenarioConfig(pon=cfg, load_grid=(0.5, 0.9), seeds=seeds, n_loops=n_loops)

        n_loops = 10
        while True:
            try:
                scenario(n_loops + 1)
            except ConfigError as exc:
                assert f"{leg} leg needs" in str(exc) and "rho = 0.9" in str(exc)
                break
            n_loops += 1
        assert n_loops > 10
        scenario(n_loops)
        # At this size some seeds' control streams are drawn past the first
        # horizon, so their legs are probed further than it.
        horizon = pon._probe_horizon(CONTROL_TRAFFIC_DEFAULT, n_loops)
        assert any(len(generate_stream(CONTROL_TRAFFIC_DEFAULT, horizon, seed)) < n_loops
                   for seed in seeds)
        for seed in seeds:
            loops = round_trips(cfg, LoadPoint(0.9), seed, n_loops=n_loops)
            assert loops[NO_AI][0].size == n_loops - int(n_loops * pon.WARMUP_FRACTION)


def _bisect_reference(base_mean_us, fiber_legs, per_km_us, deadline_us):
    """The bisection over the 0.5 km grid of [0, 100] km that the closed form replaced."""
    def mean_at(span_km):
        return base_mean_us + fiber_legs * span_km * per_km_us

    lo_steps, hi_steps = 0, 200
    if mean_at(0.0) > deadline_us:
        return 0.0
    if mean_at(hi_steps * 0.5) <= deadline_us:
        return 100.0
    while hi_steps - lo_steps > 1:
        mid = (lo_steps + hi_steps) // 2
        if mean_at(mid * 0.5) <= deadline_us:
            lo_steps = mid
        else:
            hi_steps = mid
    return lo_steps * 0.5


@st.composite
def _crossing_inputs(draw):
    """Bases on a grid boundary, one ulp either side of it, or anywhere."""
    legs = draw(st.sampled_from([2, 4]))
    per_km = draw(st.one_of(st.sampled_from([5.0, 4.9, 0.1]), st.floats(1e-3, 50.0)))
    deadline = draw(st.one_of(st.just(1000.0), st.floats(1.0, 1e5)))
    steps = draw(st.integers(-5, 205))
    base = deadline - legs * (steps * 0.5) * per_km
    base = draw(st.sampled_from([base, np.nextafter(base, -np.inf), np.nextafter(base, np.inf),
                                 draw(st.floats(-1e4, 2e5))]))
    return float(base), legs, per_km, deadline


class TestMaxSpan:
    @settings(max_examples=500)
    @given(_crossing_inputs())
    @example((1000.0 - 4 * 13.5 * 5.0, 4, 5.0, 1000.0))
    @example((float(np.nextafter(1000.0 - 2 * 77.0 * 4.9, np.inf)), 2, 4.9, 1000.0))
    def test_closed_form_equals_bisection(self, inputs):
        assert pon._bisect_max_span(*inputs) == _bisect_reference(*inputs)

    @staticmethod
    def _sweep(rho, seed, n_loops, deadline_us, spans=(20.0,)):
        return run_latency_sweep(ScenarioConfig(
            load_grid=(rho,), span_grid_km=spans, seeds=(seed,),
            n_loops=n_loops, deadline_us=deadline_us)).tables

    @staticmethod
    def _crossings(tables):
        return {row[1]: row[2] for row in tables["deadline_crossing"].rows}

    def test_trivially_feasible_hits_search_bound(self):
        crossings = self._crossings(self._sweep(0.0, 1, 500, 1e6))
        assert crossings == {NO_AI: 100.0, WITH_AI: 100.0}

    def test_result_is_boundary_on_half_km_grid(self):
        span = self._crossings(self._sweep(0.5, 3, 1500, 900.0))[NO_AI]
        assert span % 0.5 == 0.0 and span < 100.0
        # The latency table's no-AI means at the crossing and one step beyond.
        tables = self._sweep(0.5, 3, 1500, 900.0, spans=(span, span + 0.5))
        means = {row[0]: row[3] for row in tables["latency"].rows if row[2] == NO_AI}
        assert means[span] <= 900.0
        assert means[span + 0.5] > 900.0

    def test_infeasible_returns_zero(self):
        crossings = self._crossings(self._sweep(0.0, 1, 500, 150.0))
        assert crossings == {NO_AI: 0.0, WITH_AI: 0.0}


class TestRecordInvariants:
    def test_numpy_integers_are_stored_as_python_ints(self):
        names = ("split_ratio", "packet_bytes", "background_packet_bytes")
        cfg = PonConfig(split_ratio=np.int64(16), packet_bytes=np.int32(128),
                        background_packet_bytes=np.uint16(1250))
        assert [type(getattr(cfg, name)) for name in names] == [int, int, int]
        assert cfg == PonConfig()

    @pytest.mark.parametrize("shape", [1.0, 2.5])
    def test_traffic_mean_must_exist(self, shape):
        # The mean gap sets the probe horizon; it is undefined from shape 1.
        with pytest.raises(ParameterError, match="^shape must be finite and < 1"):
            round_trips(PonConfig(), LoadPoint(0.1), seed=1, n_loops=100,
                        traffic=GpdParams(shape, 900.0))

    def test_numpy_loop_count_accepted(self):
        out = round_trips(PonConfig(), LoadPoint(0.1), seed=1, n_loops=np.int64(100))
        plain = round_trips(PonConfig(), LoadPoint(0.1), seed=1, n_loops=100)
        for mode, (totals, legs) in plain.items():
            assert out[mode][1] == legs and np.array_equal(out[mode][0], totals)
