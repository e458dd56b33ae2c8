"""Tests for the XG-PON latency model: DES engines, Kingman, round trips."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gladsim import pon
from gladsim.errors import ParameterError, ResourceLimitError, SaturationError
from gladsim.experiments import ScenarioConfig, run_latency_sweep
from gladsim.pon import (
    DOWNSTREAM,
    NO_AI,
    UPSTREAM,
    WITH_AI,
    LoadPoint,
    PonConfig,
    fifo_waits,
    kingman_wait,
    propagation_delay,
    queueing_cross_check,
    round_trips,
    simulate_pon,
    transmission_time,
)
from gladsim.traffic import CONTROL_TRAFFIC_DEFAULT, GpdParams, generate_stream, gpd_mean, gpd_variance


def _stream(horizon=3e5, seed=5):
    return generate_stream(CONTROL_TRAFFIC_DEFAULT, horizon, seed)


class TestElementaryDelays:
    @pytest.mark.parametrize("km,per_km,expected", [
        (0.0, 5.0, 0.0),
        (20.0, 5.0, 100.0),
        (30.0, 5.0, 150.0),
    ])
    def test_propagation(self, km, per_km, expected):
        assert propagation_delay(km, per_km) == pytest.approx(expected)

    def test_propagation_negative_distance(self):
        with pytest.raises(ParameterError):
            propagation_delay(-1.0, 5.0)

    def test_transmission_examples(self):
        assert transmission_time(1250, 1e9) == pytest.approx(10.0)
        # 128 bytes on the upstream line: 1024 bits / 2.48832e9 bps
        assert transmission_time(128, 2.48832e9) == pytest.approx(128 * 8 / 2.48832e9 * 1e6)
        assert transmission_time(128, 2.48832e9) == pytest.approx(0.4115, abs=1e-4)

    def test_transmission_zero_bytes(self):
        with pytest.raises(ParameterError):
            transmission_time(0, 1e9)


class TestKingman:
    def test_empty_system(self):
        assert kingman_wait(0.0, 1.0, 1.0, 10.0) == 0.0

    def test_mm1_like_symmetry(self):
        # ca2 = cs2 = 1 gives exactly rho/(1-rho) * E[S].
        assert kingman_wait(0.5, 1.0, 1.0, 10.0) == pytest.approx(10.0)

    def test_saturation(self):
        with pytest.raises(SaturationError):
            kingman_wait(1.0, 1.0, 1.0, 10.0)

    def test_negative_rho(self):
        with pytest.raises(ParameterError):
            kingman_wait(-0.1, 1.0, 1.0, 10.0)

    def test_gpd_fed_deterministic_queue_cross_validation(self):
        """Kingman vs a simulated G/D/1 queue fed by GPD arrivals at rho=0.8.

        The arrival law keeps the default shape (so ca2 = 1.25) scaled to a
        5 us mean gap; service is fixed at 4 us, i.e. rho = 0.8.
        """
        params = GpdParams(0.1, 4.5, 0.0)
        assert gpd_mean(params) == pytest.approx(5.0)
        ca2 = gpd_variance(params) / gpd_mean(params) ** 2
        assert ca2 == pytest.approx(1.25)

        stream = generate_stream(params, 3e6, seed=21)
        waits = fifo_waits(stream.timestamps, np.full(len(stream), 4.0))
        analytical = kingman_wait(0.8, ca2, 0.0, 4.0)
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
        with pytest.raises(ParameterError):
            fifo_waits(np.array([1.0, 0.5]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("arrivals", [[np.nan, 1.0], [0.0, np.nan, 2.0], [0.0, 1.0, np.nan]])
    def test_rejects_nan_arrivals(self, arrivals):
        with pytest.raises(ParameterError):
            fifo_waits(np.array(arrivals), np.ones(len(arrivals)))

    def test_single_arrival_waits_nothing(self):
        assert fifo_waits(np.array([5.0]), np.array([1.0]), origin=3.0).tolist() == [0.0]

    @pytest.mark.parametrize("shape", [(2, 2), (3, 5), (5,), (1, 5)])
    def test_rejects_short_work_memory(self, shape):
        with pytest.raises(ParameterError):
            fifo_waits(np.arange(3.0), np.ones(3), out=np.empty(shape))


# Gaps include exact zeros so that arrivals tie.
_queue_jobs = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 10.0)), st.floats(0.01, 10.0)),
    min_size=1, max_size=60,
)


class TestFifoWaitsProperties:
    @given(jobs=_queue_jobs, origin=st.one_of(st.just(0.0), st.floats(-1e6, 1e6)))
    def test_matches_lindley_loop(self, jobs, origin):
        gaps, services = (np.array(column) for column in zip(*jobs))
        arrivals = np.cumsum(gaps)
        waits = fifo_waits(arrivals, services, origin)
        scale = abs(origin) + services.sum() + arrivals[-1] + 1.0
        np.testing.assert_allclose(waits, _lindley_loop(arrivals, services),
                                   rtol=0.0, atol=1e-12 * scale)
        assert waits[0] == 0.0 and np.all(waits >= 0.0)

    @given(jobs=_queue_jobs, origin=st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
           extra=st.integers(0, 5), stale=st.sampled_from([0.0, -1.0, 1e300, np.nan, np.inf]))
    def test_work_memory_is_bit_identical(self, jobs, origin, extra, stale):
        gaps, services = (np.array(column) for column in zip(*jobs))
        arrivals = np.cumsum(gaps)
        n = arrivals.size
        work = np.full((2, n + extra), stale)
        waits = fifo_waits(arrivals, services, origin, out=work)
        assert np.shares_memory(waits, work[0]) and waits.size == n
        assert np.array_equal(waits, fifo_waits(arrivals, services, origin))
        # The second row is the running minimum M of V, so at every idle
        # arrival it is the V that continues the sequence from there.
        v = np.cumsum(np.concatenate(([origin], services[:-1] - np.diff(arrivals))))
        assert np.array_equal(work[1, :n], np.minimum.accumulate(v))
        idle = np.flatnonzero(waits == 0.0)
        assert np.array_equal(work[1, idle], v[idle])
        if extra:
            assert np.array_equal(work[:, n:], np.full((2, extra), stale), equal_nan=True)

    @given(jobs=_queue_jobs)
    def test_continuing_at_an_idle_arrival_is_bit_identical(self, jobs):
        gaps, services = (np.array(column) for column in zip(*jobs))
        arrivals = np.cumsum(gaps)
        whole = fifo_waits(arrivals, services)
        v = np.concatenate(([0.0], np.cumsum(services[:-1] - np.diff(arrivals))))
        for k in np.flatnonzero(whole == 0.0):
            part = fifo_waits(arrivals[k:], services[k:], origin=v[k])
            assert np.array_equal(part, whole[k:])


class TestGatedGrants:
    @given(arrived=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=60),
           cap=st.floats(1.0, 5e3))
    def test_matches_backlog_loop(self, arrived, cap):
        # Q[0] = 0, Q[k+1] = max(Q[k] - cap, 0) + A[k]; cycle k grants min(Q[k], cap).
        backlog, expected = 0.0, []
        for a in arrived:
            expected.append(min(backlog, cap))
            backlog = max(backlog - cap, 0.0) + a
        grants = pon._gated_grants(np.array(arrived), cap)
        scale = sum(arrived) + cap * len(arrived)
        np.testing.assert_allclose(grants, expected, rtol=0.0, atol=1e-12 * scale)

    @given(arrived=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e4)), min_size=1, max_size=60),
           cap=st.floats(1.0, 5e3), cut=st.integers(0, 60))
    def test_continuing_from_carried_state_is_bit_identical(self, arrived, cap, cut):
        arrived = np.array(arrived)
        whole = pon._gated_grants(arrived, cap)
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
    """The background drawn whole: n_est gaps, then extensions of n_est // 10."""
    n_est = int(rate_per_us * horizon_us * 1.05) + 64
    times = np.cumsum(rng.exponential(1.0 / rate_per_us, size=n_est))
    while times[-1] < horizon_us:
        extra = np.cumsum(rng.exponential(1.0 / rate_per_us, size=max(64, n_est // 10)))
        times = np.concatenate([times, times[-1] + extra])
    return times[times <= horizon_us]


def _whole_array_downstream(config, load, probe_times, rng):
    """Reference downstream leg: one draw and one reflection over all arrivals."""
    rate = config.downstream_rate_bps
    service = transmission_time(config.background_packet_bytes, rate)
    horizon = float(probe_times[-1]) + 10.0 * service
    lam = load.rho * rate / (config.background_packet_bytes * 8.0) * 1e-6
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


def _whole_array_upstream(config, load, probe_times, rng):
    """Reference upstream leg: every ONU's arrivals and grants held for all cycles.

    Returns the queueing and DBA wait columns, the tagged ONU's background
    instants, the number of empty cycles added to drain its queue and the
    bytes granted to it in all.
    """
    cycle = config.dba_cycle_us
    rate = config.upstream_rate_bps
    bg_bytes = config.background_packet_bytes
    cap = rate * cycle * 1e-6 / 8.0 / config.split_ratio
    preceding = config.split_ratio // 2
    horizon = float(probe_times[-1])
    n_cycles = int(math.ceil(horizon / cycle)) + 8
    lam_onu = load.rho * rate / (bg_bytes * 8.0) * 1e-6 / config.split_ratio
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
            bg_times, extended, cum_grants[-1])


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


def _drawn_chunks(rng, rate_per_us, horizon_us):
    """Copies of the chunks `_tagged_background` draws into its one buffer."""
    draw = pon._poisson_draw(rng, rate_per_us, horizon_us)
    buffer, chunks = np.empty(draw.next_size()), []
    while not draw.done:
        chunks.append(pon._poisson_arrivals(draw, buffer).copy())
    return chunks


class TestStreamedBackground:
    # Per rho, a seed whose background ends before the last probe, so the
    # last probes follow every background arrival.
    SEEDS = {0.0: 11, 0.5: 11, 0.9: 11986}

    @pytest.mark.parametrize("chunk", [1, 7, 1000, pon.CHUNK_EVENTS])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_downstream_leg_matches_whole_array(self, monkeypatch, chunk, rho):
        cfg, load, seed = PonConfig(), LoadPoint(rho), self.SEEDS[rho]
        probes = np.linspace(0.0, 2000.0, 201)
        _, times, _ = _whole_array_downstream(cfg, load, probes, pon._spawn_rngs(seed, 1)[0])
        if times.size:
            assert probes[0] < times[0] and times[-1] < probes[-1]
            # A probe on every arrival instant, chunk cuts included; the last
            # probe, and so the draw, stays.
            probes = np.sort(np.concatenate((probes, times)))
        expected, times, waits = _whole_array_downstream(
            cfg, load, probes, pon._spawn_rngs(seed, 1)[0])

        monkeypatch.setattr(pon, "CHUNK_EVENTS", chunk)
        leg = pon._downstream_leg(cfg, load, probes, pon._spawn_rngs(seed, 1)[0])
        assert np.array_equal(leg["queueing"], expected)

    @pytest.mark.parametrize("chunk", [1, 7, 1000, pon.CHUNK_EVENTS])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_cross_check_matches_whole_array(self, monkeypatch, chunk, rho):
        cfg, load, seed, horizon = PonConfig(), LoadPoint(rho), 11, 2000.0
        # The cross-check draws the background of a leg probed up to 0.99 of
        # its horizon.
        _, times, waits = _whole_array_downstream(
            cfg, load, np.array([horizon * 0.99]), pon._spawn_rngs(seed, 1)[0])
        assert (times.size > 1000) == (rho > 0.0)

        settled = []
        chunks = pon._fifo_chunks

        def counted(draw, service_us):
            for arrivals, chunk_waits, final in chunks(draw, service_us):
                settled.append(final)
                yield arrivals, chunk_waits, final

        monkeypatch.setattr(pon, "CHUNK_EVENTS", chunk)
        monkeypatch.setattr(pon, "_fifo_chunks", counted)
        out = queueing_cross_check(cfg, load, seed, horizon_us=horizon)
        assert sum(settled) == times.size
        service = transmission_time(cfg.background_packet_bytes, cfg.downstream_rate_bps)
        assert out["mean_service_us"] == service and out["cs2"] == 0.0
        if times.size > 2:
            gaps = np.diff(times)
            assert out["simulated_mean_wait_us"] == pytest.approx(waits.mean(), rel=1e-12)
            assert out["ca2"] == pytest.approx(np.var(gaps) / np.mean(gaps) ** 2, rel=1e-12)
            assert out["utilization"] == pytest.approx(rho, rel=1e-12)
        else:
            assert out["simulated_mean_wait_us"] == out["ca2"] == out["utilization"] == 0.0

    @pytest.mark.parametrize("chunk", [1, 7, 1000, pon.CHUNK_EVENTS])
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
        cfg, load = PonConfig(), LoadPoint(0.9)
        # About 0.9 events per us: the cap is checked before anything is drawn.
        probes = np.array([0.0, 1.2 * pon.MAX_EVENTS])
        rng = pon._spawn_rngs(1, 1)[0]
        state = rng.bit_generator.state
        with pytest.raises(ResourceLimitError, match="downstream"):
            pon._downstream_leg(cfg, load, probes, rng)
        with pytest.raises(ResourceLimitError, match="downstream"):
            queueing_cross_check(cfg, load, 1, horizon_us=1.2 * pon.MAX_EVENTS)
        # 16 ONUs x 10M cycles of 0.01 us, each counted as at least one event.
        with pytest.raises(ResourceLimitError, match="upstream"):
            pon._upstream_leg(PonConfig(dba_cycle_us=0.01), load, np.array([0.0, 1e5]), rng)
        assert rng.bit_generator.state == state
        # Extensions count towards the cap too.
        monkeypatch.setattr(pon, "MAX_EVENTS", 3000)
        with pytest.raises(ResourceLimitError):
            _drawn_chunks(_HalfGaps(4), 1.0, 2000.0)

    @pytest.mark.parametrize("n_loops", [5_000, 20_000])
    def test_downstream_memory_is_flat_in_loops(self, n_loops):
        probes = generate_stream(CONTROL_TRAFFIC_DEFAULT, n_loops * 1000.0, 3).timestamps
        tracemalloc.start()
        try:
            pon._downstream_leg(PonConfig(), LoadPoint(0.9), probes, pon._spawn_rngs(3, 1)[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A whole-array leg holds several arrays of ~0.9 events per us of horizon:
        # about 200 MiB at 5k loops and 800 MiB at 20k.  The streamed leg peaks
        # at 7.8 MiB: one arrivals buffer and fifo_waits' two rows of work
        # memory, each 1.25 chunks long.  With fresh chunk temporaries (the
        # draw, the waits, the running minimum and the gaps) it took 12.7 MiB,
        # and 18.5 MiB with the concatenated arrivals and filled services too.
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("n_loops", [5_000, 20_000])
    def test_statistics_free_leg_memory_is_flat_in_loops(self, n_loops):
        # The sweep's path: the downstream leg through _leg carries only its
        # delay columns (the background statistics live in the cross-check)
        # and holds no more than the bare leg.
        probes = generate_stream(CONTROL_TRAFFIC_DEFAULT, n_loops * 1000.0, 3).timestamps
        tracemalloc.start()
        try:
            leg = pon._leg(PonConfig(), LoadPoint(0.9), DOWNSTREAM, probes,
                           pon._spawn_rngs(3, 1)[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert set(leg) == {"queueing", "dba_wait", "transmission", "wireless", "propagation"}
        assert peak < 10 * 2**20

    def test_cross_check_memory_is_flat(self):
        tracemalloc.start()
        try:
            queueing_cross_check(PonConfig(), LoadPoint(0.9), 1, horizon_us=2e7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # About 18M events, streamed through the leg's buffers (8.18 MiB), with
        # the gaps in the settled waits; a fresh np.diff per chunk took 12.18.
        assert peak <= 8.19 * 2**20


class TestStreamedUpstream:
    # Per rho, a seed; at rho 0.9 the tagged ONU's queue outlasts the eight
    # spare cycles, so the schedule is extended with empty cycles.
    SEEDS = {0.0: 11, 0.5: 11, 0.9: 203}

    @staticmethod
    def _check_whole_array(monkeypatch, chunk, cfg, load, seed):
        """Compare the leg with the reference.

        Returns the reference's drain cycles and how far its total grant falls
        short of the bytes queued.
        """
        probes = np.linspace(0.0, 2000.0, 201)
        _, _, times, _, _ = _whole_array_upstream(cfg, load, probes, pon._spawn_rngs(seed, 1)[0])
        # Probes on every cycle boundary and every background arrival instant,
        # chunk cuts included; the last probe, and so the draw, stays.
        probes = np.sort(np.concatenate((probes, np.arange(0.0, 2000.0, cfg.dba_cycle_us), times)))
        queueing, dba_wait, times, extended, granted = _whole_array_upstream(
            cfg, load, probes, pon._spawn_rngs(seed, 1)[0])

        monkeypatch.setattr(pon, "CHUNK_EVENTS", chunk)
        leg = pon._upstream_leg(cfg, load, probes, pon._spawn_rngs(seed, 1)[0])
        assert np.array_equal(leg["queueing"], queueing)
        assert np.array_equal(leg["dba_wait"], dba_wait)
        return extended, times.size * float(cfg.background_packet_bytes) - granted

    @pytest.mark.parametrize("chunk", [1, 7, 1000, pon.CHUNK_EVENTS])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
    def test_upstream_leg_matches_whole_array(self, monkeypatch, chunk, rho):
        extended, short = self._check_whole_array(
            monkeypatch, chunk, PonConfig(), LoadPoint(rho), self.SEEDS[rho])
        assert (extended > 0) == (rho == 0.9)
        assert short == 0.0

    # Grant caps that are not whole bytes: 2527.2 at a 130 us cycle, 1302.08
    # at 1 Gb/s over 12 ONUs.  On these seeds the running sum of the grants
    # ends a hair short of the bytes queued, so a drain that waited for it to
    # reach them never ended; at rho 0.8 the queue also outlasts the spare
    # cycles.
    @pytest.mark.parametrize("chunk", [1, 7, 1000, pon.CHUNK_EVENTS])
    @pytest.mark.parametrize("cfg,rho,seed,extends", [
        (PonConfig(dba_cycle_us=130.0), 0.5, 114, False),
        (PonConfig(dba_cycle_us=130.0), 0.8, 100, True),
        (PonConfig(upstream_rate_bps=1e9, split_ratio=12), 0.5, 15, False),
    ], ids=["cycle130-0.5", "cycle130-0.8", "1Gbps-split12-0.5"])
    def test_non_integer_cap_matches_whole_array(self, monkeypatch, chunk, cfg, rho, seed,
                                                 extends):
        extended, short = self._check_whole_array(monkeypatch, chunk, cfg, LoadPoint(rho), seed)
        assert (extended > 0) == extends
        assert short > 0.0

    @pytest.mark.parametrize("n_loops", [30_000, 100_000])
    def test_upstream_memory_is_flat_in_loops(self, n_loops):
        probes = generate_stream(CONTROL_TRAFFIC_DEFAULT, n_loops * 1000.0, 3).timestamps
        tracemalloc.start()
        try:
            pon._upstream_leg(PonConfig(), LoadPoint(0.9), probes, pon._spawn_rngs(3, 1)[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Holding every ONU's draws and grants for all cycles took 37.6 MiB at
        # 30k loops and 125.8 MiB at 100k.  Streamed, the leg holds one cycle
        # chunk's temporaries plus three per-cycle columns (6.1 MiB each at
        # 100k loops): 13.3 and 25.3 MiB.
        assert peak < {30_000: 20, 100_000: 34}[n_loops] * 2**20


class TestSimulatePon:
    def test_zero_load_upstream_component_bounds(self):
        cfg = PonConfig(span_km=20.0)
        stream = _stream()
        leg = simulate_pon(cfg, LoadPoint(0.0), UPSTREAM, stream, seed=42)
        assert leg["wireless"] == 50.0
        assert leg["transmission"] == pytest.approx(
            transmission_time(cfg.packet_bytes, cfg.upstream_rate_bps))
        assert leg["propagation"] == 100.0
        assert leg["queueing"].shape == leg["dba_wait"].shape == (len(stream),)
        assert np.all(leg["queueing"] == 0.0)
        assert np.all((leg["dba_wait"] >= 0.0) & (leg["dba_wait"] <= cfg.dba_cycle_us))

    def test_zero_load_downstream(self):
        cfg = PonConfig(span_km=20.0)
        stream = _stream()
        leg = simulate_pon(cfg, LoadPoint(0.0), DOWNSTREAM, stream, seed=42)
        assert leg["queueing"].shape == leg["dba_wait"].shape == (len(stream),)
        assert np.all(leg["queueing"] == 0.0)
        assert np.all(leg["dba_wait"] == 0.0)
        assert leg["wireless"] + leg["propagation"] + leg["transmission"] == pytest.approx(
            50.0 + 100.0 + transmission_time(cfg.packet_bytes, cfg.downstream_rate_bps)
        )

    def test_deterministic(self):
        cfg = PonConfig()
        a = simulate_pon(cfg, LoadPoint(0.6), UPSTREAM, _stream(), seed=7)
        b = simulate_pon(cfg, LoadPoint(0.6), UPSTREAM, _stream(), seed=7)
        assert a.keys() == b.keys()
        for key in ("queueing", "dba_wait"):
            assert np.array_equal(a[key], b[key])
        for key in ("transmission", "wireless", "propagation"):
            assert a[key] == b[key]

    @pytest.mark.parametrize("direction", [UPSTREAM, DOWNSTREAM])
    @pytest.mark.parametrize("rho", [0.0, 0.4, 0.8])
    def test_component_additivity(self, direction, rho):
        cfg = PonConfig(span_km=12.5)
        stream = _stream(1e5, 9)
        leg = simulate_pon(cfg, LoadPoint(rho), direction, stream, seed=3)
        for key in ("queueing", "dba_wait"):
            assert leg[key].shape == (len(stream),)
            assert np.all(leg[key] >= 0.0)
        for key in ("transmission", "wireless", "propagation"):
            assert leg[key] >= 0.0

    def test_dba_wait_bounded_at_any_load(self):
        cfg = PonConfig()
        for rho in (0.0, 0.5, 0.9):
            dba = simulate_pon(cfg, LoadPoint(rho), UPSTREAM, _stream(1e5, 2), seed=4)["dba_wait"]
            assert np.all((dba >= 0.0) & (dba <= cfg.dba_cycle_us))

    def test_empty_stream_rejected(self):
        empty = generate_stream(GpdParams(0.1, 10.0, 100.0), 50.0, seed=1)
        with pytest.raises(ParameterError):
            simulate_pon(PonConfig(), LoadPoint(0.0), UPSTREAM, empty, seed=1)

    def test_bad_direction(self):
        with pytest.raises(ParameterError):
            simulate_pon(PonConfig(), LoadPoint(0.0), "sideways", _stream(), seed=1)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1),
           horizon=st.floats(2e3, 2e5),
           cycle=st.floats(10.0, 1000.0))
    def test_zero_load_upstream_oracle(self, seed, horizon, cycle):
        # With nothing queued, a message reports at the next cycle boundary
        # after it reaches the ONU (one wireless hop after generation).
        cfg = PonConfig(dba_cycle_us=cycle)
        stream = _stream(horizon, seed)
        assume(len(stream) > 0)
        leg = simulate_pon(cfg, LoadPoint(0.0), UPSTREAM, stream, seed=seed)
        t = stream.timestamps + cfg.wireless_hop_us
        assert np.all(leg["queueing"] == 0.0)
        assert np.array_equal(leg["dba_wait"], cycle * (np.floor(t / cycle) + 1.0) - t)

    def test_saturated_load_rejected(self):
        with pytest.raises(SaturationError):
            LoadPoint(1.0)

    def test_downstream_mean_queueing_matches_kingman(self):
        out = queueing_cross_check(PonConfig(), LoadPoint(0.5), seed=1)
        assert out["relative_gap"] <= 0.2

    @pytest.mark.parametrize("horizon", [-1e9, -1.0, 0.0, np.nan, np.inf, -np.inf])
    def test_cross_check_rejects_bad_horizon(self, horizon):
        with pytest.raises(ParameterError, match="horizon_us"):
            queueing_cross_check(PonConfig(), LoadPoint(0.5), seed=1, horizon_us=horizon)


def _loop_totals(cfg, rho, seed, n_loops):
    """Each mode's per-loop totals at the span of `cfg`."""
    prop = propagation_delay(cfg.span_km, cfg.fiber_delay_us_per_km)
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
        tx = 2 * transmission_time(cfg.packet_bytes, cfg.upstream_rate_bps) \
            + 2 * transmission_time(cfg.packet_bytes, cfg.downstream_rate_bps)
        floor = 4 * 100.0 + 4 * 50.0 + tx
        ceiling = floor + 2 * cfg.dba_cycle_us
        assert floor < totals.mean() < ceiling
        assert np.percentile(totals, 99) <= ceiling
        assert ceiling < 1000.0

    def test_zero_load_with_ai_decomposition(self):
        """At rho=0 the AI loop is 2 propagation + 2 wireless + 1 DBA + inference."""
        cfg = PonConfig(span_km=30.0)
        totals = _loop_totals(cfg, 0.0, seed=2, n_loops=2000)[WITH_AI]
        tx = transmission_time(cfg.packet_bytes, cfg.upstream_rate_bps) \
            + transmission_time(cfg.packet_bytes, cfg.downstream_rate_bps)
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
    def test_config_validation(self):
        with pytest.raises(ParameterError):
            PonConfig(split_ratio=0)
        with pytest.raises(ParameterError):
            PonConfig(span_km=-1.0)
        with pytest.raises(ParameterError):
            PonConfig(downstream_rate_bps=0.0)
