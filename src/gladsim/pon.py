"""XG-PON one-way and round-trip latency models.

Two routes to the same quantity are implemented and cross-validated:

* a packet-level simulation of the shared medium (downstream: a single FIFO
  at the OLT; upstream: per-ONU queues drained by gated round-robin grants,
  one grant opportunity per ONU per DBA cycle), and
* the Kingman G/G/1 heavy-traffic approximation for fast analytical checks.

Tagged H2M messages are transparent probes: they sample the queues built by
the background load without consuming capacity themselves.  Their own offered
load (~1 Mb/s of 128-byte messages at ~1 kHz) is three orders of magnitude
below the line rates, so the perturbation they would cause is negligible,
while probe transparency makes zero-load component bounds exact and lets the
four traversals of a closed loop compose independently.

Queueing, grant and transmission delays do not depend on the fiber span in
this model (ranging offsets are out of scope), so round-trip statistics for
any span derive from one set of direction simulations plus the span's
propagation term.  `round_trips` therefore returns span-free loop totals
with each mode's fiber leg count, and a span adds legs x span x per-km delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResourceLimitError, SaturationError, array, integer, real
from .traffic import CONTROL_TRAFFIC_DEFAULT, MAX_EVENTS, GpdParams, _gpd_mean, generate_stream

__all__ = [
    "PonConfig",
    "LoadPoint",
    "NO_AI",
    "WITH_AI",
    "fifo_waits",
    "queueing_cross_check",
    "round_trips",
]

UPSTREAM = "upstream"
DOWNSTREAM = "downstream"

# Loop modes: the machine in the loop, or the edge AI answering in its place.
NO_AI = "no_ai"
WITH_AI = "with_ai"

# Background arrivals drawn per chunk.  The downstream FIFO holds one chunk
# plus the last arrival of the chunk before, so its temporaries do not grow
# with the horizon.  At 1 << 16 a chunk's arrivals and Lindley sum (512 KiB
# each) fit together in a 2 MiB per-core L2 cache.
CHUNK_EVENTS = 1 << 16

# DBA cycles solved per chunk.  The upstream grant solvers hold a handful of
# columns this long, 32 KiB each, whatever the horizon.
CHUNK_CYCLES = 1 << 12

# Fraction of loops `round_trips` discards as simulation warm-up.
WARMUP_FRACTION = 0.1


@dataclass(frozen=True)
class PonConfig:
    """Line rates, topology and per-hop delays of one fiber-wireless path."""

    downstream_rate_bps: float = 9.95328e9
    upstream_rate_bps: float = 2.48832e9
    split_ratio: int = 16
    span_km: float = 20.0
    fiber_delay_us_per_km: float = 5.0
    dba_cycle_us: float = 125.0
    wireless_hop_us: float = 50.0
    ai_inference_us: float = 10.0
    packet_bytes: int = 128
    background_packet_bytes: int = 1250

    def __post_init__(self):
        # Stored as Python ints, so a numpy integer hashes into a scenario as an int does.
        for name in ("split_ratio", "packet_bytes", "background_packet_bytes"):
            object.__setattr__(self, name, integer(name, getattr(self, name), above=0))
        real("span_km", self.span_km, at_least=0)
        positive = (
            "downstream_rate_bps",
            "upstream_rate_bps",
            "fiber_delay_us_per_km",
            "dba_cycle_us",
            "wireless_hop_us",
            "ai_inference_us",
        )
        for name in positive:
            real(name, getattr(self, name), above=0)


@dataclass(frozen=True)
class LoadPoint:
    """Offered background load as a fraction of line rate per direction."""

    rho: float = 0.0

    def __post_init__(self):
        if real("rho", self.rho, at_least=0) >= 1.0:
            raise SaturationError(f"offered load rho={self.rho} saturates the line")


def _transmission_time(nbytes: int, rate_bps: float) -> float:
    """Serialization time of `nbytes` at `rate_bps`, in microseconds."""
    return nbytes * 8.0 / rate_bps * 1e6


def _kingman_wait(rho: float, ca2: float, cs2: float, mean_service_us: float) -> float:
    """Kingman G/G/1 mean waiting time: rho/(1-rho) * (ca2+cs2)/2 * E[S]."""
    # A utilization measured from a load just below 1 can round up to 1.
    if rho >= 1.0:
        raise SaturationError(f"no stationary wait at rho={rho}")
    # Halved before they are added, the coefficients cannot overflow to inf,
    # so zero load waits 0.0 whatever they are.
    return rho / (1.0 - rho) * (0.5 * ca2 + 0.5 * cs2) * mean_service_us


def _lindley_sum(a: np.ndarray, s: np.ndarray, origin: float, out: np.ndarray) -> np.ndarray:
    """Lindley's running sum V of arrivals `a` with services `s`, in `out[:n]`.

    V[0] = origin and V[i] = origin + sum(S[j] - A[j] for j < i), with
    A[j] = a[j+1] - a[j] the gaps.  By Lindley's reflection the waits are
    W = V - M, with M[i] = min(V[0..i]) the running minimum.  A sum cut
    after any arrival continues from that arrival with its V as `origin`:
    every V keeps the bits of one whole solve, and M carries the minimum of
    V before the cut (see _fifo_chunks).  The arrivals must not decrease;
    the callers see to that.
    """
    n = a.size
    v = out[:n]
    if n:
        v[0] = origin
        # S[j] - A[j] is exactly (a[j] - a[j+1]) + S[j].
        np.subtract(a[:-1], a[1:], out=v[1:])
        v[1:] += s[:-1]
        np.cumsum(v, out=v)
    return v


def fifo_waits(arrival_times, service_times) -> np.ndarray:
    """Waiting times in a work-conserving single-server FIFO queue.

    Solves the Lindley recursion W[i+1] = max(0, W[i] + S[i] - A[i]) in closed
    form as W = V - M, from Lindley's running sum V and its running minimum M
    (see _lindley_sum), which vectorizes.
    """
    a = array("arrival_times", arrival_times, (None,))
    s = array("service_times", service_times, a.shape, at_least=0)
    if np.any(a[1:] < a[:-1]):
        raise ParameterError("arrival times must be non-decreasing")
    v = _lindley_sum(a, s, 0.0, np.empty(a.size))
    # fmin runs faster than minimum here and differs from it only where V is
    # NaN, and there the wait is NaN either way.
    v -= np.fmin.accumulate(v)
    return v


# ---------------------------------------------------------------------------
# Direction engines
# ---------------------------------------------------------------------------


def _spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(seed).spawn(n)]


@dataclass
class _PoissonDraw:
    """Where the draw of one Poisson process on [0, horizon_us] stands.

    Gaps are drawn in groups: the expected event count plus 5% and 64 first,
    then extensions of a tenth of that while the last instant falls short of
    the horizon.  A group's instants are the running sum of its gaps plus the
    last instant of the group before, so drawing a group in chunks leaves
    every instant's bits as drawing it whole would.
    """

    rng: np.random.Generator
    scale_us: float              # mean gap
    horizon_us: float
    extension: int               # gaps per extension group
    left: int                    # gaps of the current group still to draw
    drawn: int                   # gaps in the groups begun so far
    base_us: float = 0.0         # last instant of the group before
    partial_us: float = 0.0      # running sum of the current group's gaps
    done: bool = False

    def next_size(self) -> int:
        """Gaps the next `_poisson_arrivals` call draws."""
        return min(CHUNK_EVENTS, self.left or self.extension)


def _poisson_draw(rng: np.random.Generator, rate_per_us: float,
                  horizon_us: float) -> _PoissonDraw:
    """A draw of a Poisson process on [0, horizon_us]; done from the start at rate 0."""
    if rate_per_us <= 0.0:
        return _PoissonDraw(rng, math.inf, horizon_us, extension=0, left=0, drawn=0, done=True)
    n_est = int(rate_per_us * horizon_us * 1.05) + 64
    return _PoissonDraw(rng, 1.0 / rate_per_us, horizon_us,
                        extension=max(64, n_est // 10), left=n_est, drawn=n_est)


def _poisson_arrivals(draw: _PoissonDraw, out: np.ndarray) -> np.ndarray:
    """The next at most CHUNK_EVENTS arrival instants of a draw, up to its horizon.

    They are drawn into the front of `out`, which needs room for
    `draw.next_size()` of them; the first call's size is the largest.
    Filling standard exponentials and scaling them gives the bits and the
    generator state of `rng.exponential(scale_us, size)`.
    """
    size = draw.next_size()
    if draw.left == 0:
        draw.base_us += draw.partial_us
        draw.partial_us = 0.0
        draw.left = draw.extension
        draw.drawn += draw.extension
        if draw.drawn > MAX_EVENTS:
            raise ResourceLimitError("background process exceeded the event cap")
    times = out[:size]
    draw.rng.standard_exponential(out=times)
    # At a vanishing rate the gaps overflow to inf; such instants lie past
    # any horizon, so they are cut as any late arrival is.
    with np.errstate(over="ignore"):
        times *= draw.scale_us
        times[0] += draw.partial_us
        np.cumsum(times, out=times)
    draw.partial_us = float(times[-1])
    draw.left -= times.size
    if draw.base_us:
        times += draw.base_us
    last = times[-1]
    # Instants equal to the horizon still count, so a group ending exactly on
    # it is not extended but one with more gaps to draw goes on.
    draw.done = last > draw.horizon_us or (draw.left == 0 and last >= draw.horizon_us)
    return times[:np.searchsorted(times, draw.horizon_us, side="right")]


def _leg_plan(config: PonConfig, load: LoadPoint, direction: str,
              last_probe_us: float) -> tuple[float, float | int]:
    """The background rate and extent of one leg probed up to `last_probe_us`.

    The rate is in packets per us at one queue: the OLT's, or an ONU's.  The
    extent is downstream the Poisson draw's horizon, ten background services
    past the last probe, and upstream the count of DBA cycles solved, eight
    past the last probe's.  Raises ResourceLimitError before anything is
    drawn where the leg exceeds MAX_EVENTS: downstream the rate times the
    horizon, upstream one Poisson count per ONU and cycle, each at least one.
    """
    bg_bytes = config.background_packet_bytes
    rate = config.downstream_rate_bps if direction == DOWNSTREAM else config.upstream_rate_bps
    lam = load.rho * rate / (bg_bytes * 8.0) * 1e-6            # pkts/us, all ONUs
    if direction == DOWNSTREAM:
        extent = last_probe_us + 10.0 * _transmission_time(bg_bytes, rate)
        events = lam * extent
    else:
        cycle, n_onus = config.dba_cycle_us, config.split_ratio
        lam /= n_onus
        extent = math.ceil(last_probe_us / cycle) + 8
        events = extent * max(lam * cycle, 1.0) * n_onus
    if events > MAX_EVENTS:
        raise ResourceLimitError(f"{direction} leg needs ~{events:.0f} events (cap {MAX_EVENTS})")
    return lam, extent


@dataclass
class _GrantState:
    """Where one ONU's grant recursion stands after the cycles solved so far.

    `u` is the running sum of (A[k-1] - cap) at the next cycle and `u_min` its
    minimum so far (see _gated_grants).  As in the downstream FIFO's chunks
    (see _fifo_chunks), carrying the sequential sum and the exact minimum
    across a cut leaves every grant's bits as solving the cycles whole
    would.  So the upstream leg solves each ONU one cycle chunk at a time,
    and the backlog left at the last boundary, u - u_min + last_arrived,
    sizes its drain.
    """

    last_arrived: float = 0.0    # bytes arrived in the last cycle solved
    u: float = 0.0
    u_min: float = 0.0


def _gated_grants(arrived_bytes_per_cycle: np.ndarray, cap_bytes: float,
                  state: _GrantState | None = None) -> np.ndarray:
    """Per-cycle granted bytes of one ONU under gated, capped service.

    Bytes arriving during cycle k are first reported at boundary k+1.  The
    reported backlog follows Q[k+1] = max(Q[k] - cap, 0) + A[k], a
    Lindley-type recursion solved in closed form by reflection.

    `state`, when given, continues the recursion from the cycles solved
    before these and is advanced past them.
    """
    a = np.asarray(arrived_bytes_per_cycle, dtype=float)
    state = _GrantState() if state is None else state
    n = a.size
    if n == 0:
        return np.empty(0)
    prev_arrivals = np.empty(n)                           # A[k-1] at index k
    prev_arrivals[0] = state.last_arrived
    prev_arrivals[1:] = a[:-1]
    # s[k] = Q[k] - A[k-1] obeys s[k+1] = max(s[k] + A[k-1] - cap, 0).
    u = np.empty(n + 1)
    u[0] = state.u
    np.subtract(prev_arrivals, cap_bytes, out=u[1:])
    np.cumsum(u, out=u)
    low = np.fmin.accumulate(u)
    np.minimum(low, state.u_min, out=low)
    state.last_arrived, state.u, state.u_min = float(a[-1]), float(u[-1]), float(low[-1])
    s = np.subtract(u, low, out=u)[:n]
    reported = np.add(s, prev_arrivals, out=prev_arrivals)  # Q[k]
    return np.minimum(reported, cap_bytes, out=reported)


def _waits_at(v: np.ndarray, idx: np.ndarray, low: float) -> np.ndarray:
    """The waits V[idx] - M[idx] of a Lindley sum at non-decreasing indices `idx`.

    M is V's running minimum, which starts from `low`, the minimum of V
    before v[0].  It is needed at the distinct indices only: the minima of V
    over the segments that end at each of them, then a running minimum over
    those few.  So V is read once up to the last index and never
    accumulated, and since min is exact, every wait is bit-identical to
    fifo_waits'.  Indices that repeat share one value of M.
    """
    if not idx.size:
        return np.empty(0)
    new = np.empty(idx.size, dtype=bool)     # where idx takes a new value
    new[0] = True
    np.not_equal(idx[1:], idx[:-1], out=new[1:])
    ends = idx[new]
    segment_low = np.fmin.reduceat(v[:ends[-1] + 1], np.concatenate(([0], ends[:-1] + 1)))
    segment_low[0] = min(segment_low[0], low)
    np.fmin.accumulate(segment_low, out=segment_low)
    return v[idx] - segment_low[np.cumsum(new) - 1]


def _fifo_chunks(draw: _PoissonDraw, service_us: float):
    """Stream a Poisson background through a fixed-service FIFO, one chunk at a time.

    Yields `(arrivals, v, low)` for each drawn chunk.  `v` is the
    whole draw's Lindley sum at the chunk's arrivals (see _lindley_sum) and
    `low` the minimum of V before them, so the waits are V less
    min(low, V's running minimum), which is left to the consumer to take
    where it needs it.  Every chunk but the first begins with the last
    arrival of the chunk before, whose V is the origin of its sum, so every
    V and wait is bit-identical to one whole solve.  Both are views of two
    rows allocated once for the draw, so memory does not grow with the
    horizon; the consumer reads them only.
    """
    rows = np.empty((2, draw.next_size() + 1))       # arrivals, V
    carried, origin, low = 0, 0.0, math.inf
    while not draw.done:
        n = carried + _poisson_arrivals(draw, rows[0, carried:]).size
        if not n:                # the draw ended before its first arrival
            return
        arrivals = rows[0, :n]
        v = _lindley_sum(arrivals, np.broadcast_to(service_us, n), origin, rows[1])
        yield arrivals, v, low
        low = min(low, float(v.min()))
        rows[0, 0], origin, carried = arrivals[-1], float(v[-1]), 1


def _downstream_leg(config: PonConfig, load: LoadPoint, probe_times: np.ndarray,
                    rng: np.random.Generator) -> dict:
    """Probe delays through the OLT downstream FIFO.

    Background: Poisson arrivals of `background_packet_bytes` packets sized so
    the offered load equals rho of the downstream rate.  A probe arriving at t
    waits for the workload present at t, then serializes itself.  Probe times
    are non-decreasing; each is answered in the first chunk whose last
    arrival follows it, or in the draw's last chunk, and only the waits of
    the arrivals just before probes are taken from the chunk's Lindley sum
    (see _waits_at).
    """
    rate = config.downstream_rate_bps
    bg_service = _transmission_time(config.background_packet_bytes, rate)
    last_probe = float(probe_times[-1]) if probe_times.size else 0.0
    draw = _poisson_draw(rng, *_leg_plan(config, load, DOWNSTREAM, last_probe))

    queueing = np.zeros(probe_times.size)
    answered = -1                # probes before this index have their queueing
    for arrivals, v, low in _fifo_chunks(draw, bg_service):
        if answered < 0:         # those before the first arrival find no queue
            answered = int(np.searchsorted(probe_times, arrivals[0], side="left"))
        # Probes before the chunk's last arrival wait behind one of these; the
        # rest wait for a later chunk, the next one starting with that arrival.
        stop = (probe_times.size if draw.done
                else int(np.searchsorted(probe_times, arrivals[-1], side="left")))
        probes = probe_times[answered:stop]
        idx = np.searchsorted(arrivals, probes, side="right") - 1
        departures = arrivals[idx] + _waits_at(v, idx, low) + bg_service
        queueing[answered:stop] = np.maximum(0.0, departures - probes)
        answered = stop

    return {
        "queueing": queueing,
        "dba_wait": np.zeros(probe_times.size),
        "transmission": _transmission_time(config.packet_bytes, rate),
    }


def _upstream_leg(config: PonConfig, load: LoadPoint, probe_times: np.ndarray,
                  rng: np.random.Generator) -> dict:
    """Probe delays through the gated round-robin upstream grant cycle.

    The windows of the split_ratio // 2 ONUs granted before the tagged one
    precede its own in each cycle.  A probe reports at the first cycle
    boundary after arrival.  It transmits in the first cycle from then on
    whose running grant covers the background bytes ahead of it, right
    behind those bytes.  Grants that are not whole bytes can sum to a hair
    short of the bytes queued: a probe the running grant never reaches
    takes the final grant as its bytes ahead.  Probe times are non-decreasing.

    The preceding ONUs' grants per cycle are the one column held over every
    cycle.  The tagged ONU is solved in cycle chunks from carried
    `_GrantState`s, binning its streamed draw, then in the empty cycles that
    drain its backlog.  Grant cycles never decrease in probe order, so each
    probe is answered in the chunk of its grant cycle.  Besides that column
    and the two output columns, the leg holds one draw buffer and one
    chunk's columns.
    """
    cycle = config.dba_cycle_us
    rate = config.upstream_rate_bps
    bg_bytes = float(config.background_packet_bytes)
    cap = rate * cycle * 1e-6 / 8.0 / config.split_ratio     # fair-share grant cap, bytes
    byte_rate_us = rate * 1e-6 / 8.0                      # bytes per us
    horizon = float(probe_times[-1]) if probe_times.size else cycle
    lam_onu, n_cycles = _leg_plan(config, load, UPSTREAM, horizon)

    # The preceding ONUs' arrivals are drawn in cycle chunks, in the row-major
    # order of one (ONU, cycle) draw, and their grants added in ONU order.
    preceding = [_GrantState() for _ in range(config.split_ratio // 2) if lam_onu * cycle > 0.0]
    offset_bytes = np.zeros(n_cycles)
    for state in preceding:
        for start in range(0, n_cycles, CHUNK_CYCLES):
            arrived = rng.poisson(lam_onu * cycle, size=min(CHUNK_CYCLES, n_cycles - start))
            offset_bytes[start:start + arrived.size] += _gated_grants(
                arrived * bg_bytes, cap, state)

    # Each probe's bytes ahead (none until drawn) until answered, then its queueing.
    queueing = np.zeros(probe_times.size)
    # Each probe's report cycle, then its DBA wait.
    report = np.divide(probe_times, cycle)
    np.trunc(report, out=report)
    report += 1.0
    draw = _poisson_draw(rng, lam_onu, horizon)
    buffer = np.empty(draw.next_size())
    drawn, binned = buffer[:0], 0        # the drawn chunk, and how much of it is binned
    n_background = known = 0             # arrivals before `drawn`; probes with bytes ahead
    tagged = _GrantState()
    n_total = n_cycles           # the planned cycles, then the drain's
    start = answered = 0
    granted = 0.0                # the tagged bytes granted before `start`
    reached = None               # (grant cycle, send time) of a probe with `granted` ahead
    while start < n_total:
        end = min(start + CHUNK_CYCLES, n_total)
        arrived = np.zeros(end - start)
        if start < n_cycles:
            while True:
                upto = binned + int(np.searchsorted(drawn[binned:], end, side="left"))
                arrived += np.bincount(drawn[binned:upto].astype(int) - start,
                                       minlength=arrived.size)
                binned = upto
                if binned < drawn.size or draw.done:
                    break
                drawn, binned = _poisson_arrivals(draw, buffer), 0
                # Probes before the draw's last arrival (all once it ends) precede later ones.
                stop = (probe_times.size if draw.done
                        else int(np.searchsorted(probe_times, drawn[-1], side="left")))
                queueing[known:stop] = bg_bytes * (n_background + np.searchsorted(
                    drawn, probe_times[known:stop], side="right"))
                known = stop
                n_background += drawn.size
                drawn /= cycle           # an arrival at t falls in cycle int(t / cycle)
            arrived *= bg_bytes
            offset = offset_bytes[start:end]
        else:
            # Traffic stops at the horizon and the queues drain: no arrivals.
            offset = np.zeros(arrived.size)
            for state in preceding:
                offset += _gated_grants(arrived, cap, state)
        grants = _gated_grants(arrived, cap, tagged)
        if end == n_cycles:
            # Then the empty cycles that grant the last backlog, u - u_min + A[-1].
            n_total += math.ceil((tagged.u - tagged.u_min + tagged.last_arrived) / cap)
        # Led by the carry, every running grant has the bits of one cumsum over all cycles.
        cum_grants = np.cumsum(np.concatenate(([granted], grants)))[1:]
        before = np.subtract(cum_grants, grants, out=grants)   # granted in earlier cycles
        # Each cycle's tagged window opens after the bytes of the ONUs granted before it.
        window = offset / byte_rate_us
        window += cycle * np.arange(start, end)
        if reached is None or cum_grants[-1] > granted:        # the running grant rose
            granted = float(cum_grants[-1])
            k = int(np.searchsorted(cum_grants, granted, side="left"))
            reached = (start + k, window[k] + max(0.0, granted - before[k]) / byte_rate_us)
        # The probes reported before `end` whose bytes are granted by then.
        reported = int(np.searchsorted(report, end, side="left"))
        stop = answered + int(np.searchsorted(queueing[answered:reported], granted, side="right"))
        ahead = queueing[answered:stop]
        report_cycle = report[answered:stop]
        k = np.maximum(np.searchsorted(cum_grants, ahead, side="left"),
                       report_cycle.astype(int) - start)
        position = np.maximum(0.0, ahead - before[k])
        queueing[answered:stop] = window[k] + position / byte_rate_us - report_cycle * cycle
        answered = stop
        start = end

    # The probes left wait behind the final grant, in its cycle or a later report cycle.
    last, last_start = reached
    report_cycle = report[answered:]
    starts = np.where(report_cycle <= last, last_start,
                      offset_bytes[report_cycle.astype(int)] / byte_rate_us + cycle * report_cycle)
    queueing[answered:] = starts - report_cycle * cycle

    report *= cycle                      # the DBA wait, report_cycle * cycle - probe_times
    report -= probe_times
    return {
        "queueing": queueing,
        "dba_wait": report,
        "transmission": _transmission_time(config.packet_bytes, rate),
    }


def queueing_cross_check(config: PonConfig, load: LoadPoint, seed: int,
                         horizon_us: float = 2e6) -> dict:
    """Compare the downstream FIFO's simulated mean wait with Kingman's formula.

    The background is that of a downstream leg probed up to 0.99 of
    `horizon_us`.  Its moments are measured from the simulation's own arrival
    and service processes, so the comparison validates the queue dynamics.
    `horizon_us` must span at least 1000 background services (about 1 ms at
    the defaults).
    """
    service = _transmission_time(config.background_packet_bytes, config.downstream_rate_bps)
    # Shorter horizons draw a handful of events, whose mean wait says nothing.
    if real("horizon_us", horizon_us) < 1000.0 * service:
        raise ParameterError(f"horizon_us must be at least 1000 background "
                             f"services ({1000.0 * service:g} us), got {horizon_us}")
    lam, until = _leg_plan(config, load, DOWNSTREAM, horizon_us * 0.99)
    draw = _poisson_draw(_spawn_rngs(integer("seed", seed, at_least=0), 1)[0], lam, until)

    n = 0
    first = last = wait_sum = gap_square_sum = 0.0
    work = np.empty(draw.next_size() + 1)        # one chunk and its carried arrival
    for arrivals, v, low in _fifo_chunks(draw, service):
        if n == 0:
            first = float(arrivals[0])
        skip = min(n, 1)         # later chunks begin with an arrival counted before
        n += arrivals.size - skip
        last = float(arrivals[-1])
        # The waits: V less its running minimum from `low` (see fifo_waits).
        m = np.fmin.accumulate(v, out=work[:v.size])
        np.fmin(m, low, out=m)
        wait_sum += float(np.subtract(v[skip:], m[skip:], out=m[skip:]).sum())
        # The chunk's gaps, from the carried arrival on, over the waits.
        gaps = np.subtract(arrivals[1:], arrivals[:-1], out=m[:-1])
        gap_square_sum += float(np.einsum("i,i->", gaps, gaps))  # no BLAS threads

    ca2 = 0.0
    if n > 2:
        mean_gap = (last - first) / (n - 1)
        ca2 = max(0.0, gap_square_sum / (n - 1) / mean_gap / mean_gap - 1.0)
    # Gaps of about 1e154 us overflow the sum of their squares.
    real("ca2", ca2, at_least=0)
    utilization = lam * service if n else 0.0
    simulated = wait_sum / n if n else 0.0
    analytical = _kingman_wait(utilization, ca2, 0.0, service)  # deterministic service
    gap = abs(simulated - analytical) / analytical if analytical > 0 else 0.0
    return {"simulated_mean_wait_us": simulated, "kingman_wait_us": analytical,
            "relative_gap": gap, "utilization": utilization, "ca2": ca2, "cs2": 0.0,
            "mean_service_us": service}


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


def _probe_horizon(traffic: GpdParams, n_loops: int) -> float:
    """Where `_probe_stream` first draws to: 10% past the mean span of n_loops gaps."""
    return n_loops * _gpd_mean(traffic) * 1.1 + 10.0


def _probe_stream(traffic: GpdParams, n_loops: int, seed: int) -> np.ndarray:
    horizon = _probe_horizon(traffic, n_loops)
    stream = generate_stream(traffic, horizon, seed)
    while stream.size < n_loops:
        horizon *= 1.5
        stream = generate_stream(traffic, horizon, seed)
    return stream[:n_loops]


def _check_event_budget(config: PonConfig, load: LoadPoint, traffic: GpdParams,
                        n_loops: int, seeds) -> None:
    """Raise ResourceLimitError where a leg of `round_trips` would exceed MAX_EVENTS.

    The legs are planned as probed up to where `_probe_stream` first draws,
    before any probe is drawn, then up to each seed's last probe, which lies
    beyond that where the first draw falls short.  Upstream, probes reach the
    ONU queue one wireless hop later.
    """
    horizon = _probe_horizon(traffic, n_loops)
    for seed in (None, *seeds):
        last_probe = horizon if seed is None else float(_probe_stream(traffic, n_loops, seed)[-1])
        _leg_plan(config, load, DOWNSTREAM, last_probe)
        _leg_plan(config, load, UPSTREAM, last_probe + config.wireless_hop_us)


def _round_trip_base(config: PonConfig, load: LoadPoint, seed: int,
                     probes: np.ndarray, with_ai: bool) -> tuple[np.ndarray, int]:
    """Per-loop totals excluding fiber propagation, plus the fiber leg count.

    `probes` is the control stream drawn from `seed`, and the four legs'
    background seeds derive from `seed` too, so both modes share identical
    leg realizations: the with-AI loop reuses the control upstream and
    feedback downstream legs of the no-AI loop and skips the two machine-side
    legs.  Each leg adds one wireless hop; upstream, probes cross it first.
    """
    rngs = _spawn_rngs(seed, 4)
    upstream = probes + config.wireless_hop_us
    legs = [(_upstream_leg, upstream, 0), (_downstream_leg, probes, 1),
            (_upstream_leg, upstream, 2), (_downstream_leg, probes, 3)]
    if with_ai:
        legs = [legs[0], legs[3]]

    totals = np.zeros(probes.size)
    for leg, times, rng_idx in legs:
        out = leg(config, load, times, rngs[rng_idx])
        totals += (out["queueing"] + out["dba_wait"]
                   + out["transmission"] + config.wireless_hop_us)
    if with_ai:
        totals += config.ai_inference_us
    return totals, len(legs)


def round_trips(config: PonConfig, load: LoadPoint, seed: int, *,
                n_loops: int = 10_000,
                traffic: GpdParams | None = None) -> dict[str, tuple[np.ndarray, int]]:
    """Per-loop round-trip totals of both loop modes, after warm-up.

    Returns `{NO_AI: (totals, 4), WITH_AI: (totals, 2)}`: each mode's
    per-loop totals in us, without fiber propagation, and its number of fiber
    traversals.  At a span of d km a loop takes totals + legs * d * per-km
    delay, so `config.span_km` does not enter.  Both modes probe the one
    control stream drawn from `seed`.  The first WARMUP_FRACTION of the
    `n_loops` loops is dropped.

    * NO_AI: the machine in the loop.  Control upstream and downstream to the
      machine, then feedback upstream and downstream back to the operator,
      with a wireless hop at each of the four air crossings.
    * WITH_AI: edge forecasting short-circuits the machine.  Control upstream
      to the central office, forecast inference, and the forecast feedback
      downstream to the operator: two wireless hops plus the inference time.
    """
    integer("n_loops", n_loops, at_least=10)
    seed = integer("seed", seed, at_least=0)
    traffic = traffic or CONTROL_TRAFFIC_DEFAULT
    # The mean inter-arrival, which sets the probe horizon, is undefined from shape 1.
    real("shape", traffic.shape, below=1)
    probes = _probe_stream(traffic, n_loops, seed)
    out = {}
    for mode, with_ai in ((NO_AI, False), (WITH_AI, True)):
        base, legs = _round_trip_base(config, load, seed, probes, with_ai)
        out[mode] = (base[int(base.size * WARMUP_FRACTION):], legs)
    return out


def _bisect_max_span(base_mean_us: float, fiber_legs: int, per_km_us: float,
                     deadline_us: float) -> float:
    """Largest span on the 0.5 km grid of [0, 100] whose mean meets the deadline.

    The mean is linear in span, so the crossing has a closed form; stepping
    from it with the exact comparison snaps it to the grid wherever rounding
    put it a step off.
    """
    def fits(steps: int) -> bool:  # span = steps * 0.5 km
        return base_mean_us + fiber_legs * (steps * 0.5) * per_km_us <= deadline_us

    ratio = (deadline_us - base_mean_us) / (fiber_legs * per_km_us * 0.5)
    steps = int(min(max(ratio, 0.0), 200.0))
    while steps > 0 and not fits(steps):
        steps -= 1
    while steps < 200 and fits(steps + 1):
        steps += 1
    return steps * 0.5
