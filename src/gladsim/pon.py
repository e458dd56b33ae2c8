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

from .errors import ParameterError, ResourceLimitError, SaturationError
from .traffic import CONTROL_TRAFFIC_DEFAULT, ArrivalStream, GpdParams, generate_stream, gpd_mean

__all__ = [
    "PonConfig",
    "LoadPoint",
    "UPSTREAM",
    "DOWNSTREAM",
    "NO_AI",
    "WITH_AI",
    "propagation_delay",
    "transmission_time",
    "kingman_wait",
    "fifo_waits",
    "simulate_pon",
    "queueing_cross_check",
    "round_trips",
]

UPSTREAM = "upstream"
DOWNSTREAM = "downstream"

# Loop modes: the machine in the loop, or the edge AI answering in its place.
NO_AI = "no_ai"
WITH_AI = "with_ai"

# Hard cap on background packets per simulated leg.
MAX_EVENTS = 50_000_000

# Background arrivals drawn per chunk, and DBA cycles solved per chunk.  The
# downstream FIFO holds one chunk plus the busy period still open at the end
# of the chunk before, and the upstream grant solvers one chunk of cycles, so
# their temporaries do not grow with the horizon.
CHUNK_EVENTS = 1 << 18

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
        positive = (
            "downstream_rate_bps",
            "upstream_rate_bps",
            "fiber_delay_us_per_km",
            "dba_cycle_us",
            "wireless_hop_us",
            "ai_inference_us",
            "packet_bytes",
            "background_packet_bytes",
        )
        for name in positive:
            if not getattr(self, name) > 0:
                raise ParameterError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.split_ratio < 1:
            raise ParameterError(f"split_ratio must be >= 1, got {self.split_ratio}")
        if self.span_km < 0:
            raise ParameterError(f"span_km must be >= 0, got {self.span_km}")


@dataclass(frozen=True)
class LoadPoint:
    """Offered background load as a fraction of line rate per direction."""

    rho: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.rho) or self.rho < 0.0:
            raise ParameterError(f"rho must be finite and >= 0, got {self.rho}")
        if self.rho >= 1.0:
            raise SaturationError(f"offered load rho={self.rho} saturates the line")


def propagation_delay(distance_km: float, per_km_us: float) -> float:
    """Fiber propagation delay over `distance_km` at `per_km_us` per km."""
    if distance_km < 0:
        raise ParameterError(f"distance must be >= 0, got {distance_km}")
    if per_km_us <= 0:
        raise ParameterError(f"per-km delay must be > 0, got {per_km_us}")
    return distance_km * per_km_us


def transmission_time(nbytes: int, rate_bps: float) -> float:
    """Serialization time of `nbytes` at `rate_bps`, in microseconds."""
    if nbytes <= 0:
        raise ParameterError(f"packet size must be > 0 bytes, got {nbytes}")
    if rate_bps <= 0:
        raise ParameterError(f"rate must be > 0, got {rate_bps}")
    return nbytes * 8.0 / rate_bps * 1e6


def kingman_wait(rho: float, ca2: float, cs2: float, mean_service_us: float) -> float:
    """Kingman G/G/1 mean waiting time: rho/(1-rho) * (ca2+cs2)/2 * E[S]."""
    if rho < 0:
        raise ParameterError(f"rho must be >= 0, got {rho}")
    if rho >= 1.0:
        raise SaturationError(f"no stationary wait at rho={rho}")
    if ca2 < 0 or cs2 < 0:
        raise ParameterError("squared coefficients of variation must be >= 0")
    if mean_service_us <= 0:
        raise ParameterError(f"mean service time must be > 0, got {mean_service_us}")
    if rho == 0.0:
        return 0.0
    return rho / (1.0 - rho) * (ca2 + cs2) / 2.0 * mean_service_us


def fifo_waits(arrival_times, service_times, origin: float = 0.0, *,
               out: np.ndarray | None = None) -> np.ndarray:
    """Waiting times in a work-conserving single-server FIFO queue.

    Solves the Lindley recursion W[i+1] = max(0, W[i] + S[i] - A[i]) in closed
    form via the reflection identity W[i] = V[i] - M[i] with
    V[i] = origin + sum(S[j] - A[j] for j < i) and M[i] = min(V[0..i]),
    which vectorizes.

    `origin` continues a longer arrival sequence whose arrival at index 0
    finds the server idle: passing V of the longer sequence at that arrival
    makes the sequential sum, and so every returned wait, bit-identical to
    solving the longer sequence whole.  The waits do not depend on it
    otherwise; the first wait is always 0.  Where W[k] == 0, V[k] == M[k]
    exactly, so M[k] is the origin that continues the sequence from k.

    `out`, when given, is float work memory of shape (2, m) with m at least
    the number of arrivals n, whatever it holds: the waits are written to
    `out[0, :n]` and returned as that view, and M to `out[1, :n]`.  Without
    it both are fresh arrays.  Either way the waits are bit-identical.
    """
    a = np.asarray(arrival_times, dtype=float)
    s = np.asarray(service_times, dtype=float)
    if a.shape != s.shape:
        raise ParameterError("arrival and service arrays must have equal length")
    n = a.size
    if n == 0:
        return np.empty(0)
    if out is None:
        v, low = np.empty(n), np.empty(n)
    elif out.dtype != float or out.ndim != 2 or out.shape[0] != 2 or out.shape[1] < n:
        raise ParameterError(f"out must be a float (2, >= {n}) array, got {out.dtype} {out.shape}")
    else:
        v, low = out[0, :n], out[1, :n]
    v[0] = origin
    # S[j] - A[j] with A[j] = a[j+1] - a[j] is exactly (a[j] - a[j+1]) + S[j].
    np.subtract(a[:-1], a[1:], out=v[1:])
    # One reduction; a NaN arrival makes the maximum NaN and fails it too.
    if n > 1 and not v[1:].max() <= 0.0:
        raise ParameterError("arrival times must be non-decreasing and not NaN")
    v[1:] += s[:-1]
    np.cumsum(v, out=v)
    # fmin runs faster than minimum here and differs from it only where V is
    # NaN, and there the wait is NaN either way.
    np.fmin.accumulate(v, out=low)
    v -= low
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


def _check_event_cap(config: PonConfig, load: LoadPoint, direction: str,
                     last_probe_us: float) -> None:
    """Raise ResourceLimitError where a leg probed up to `last_probe_us` exceeds MAX_EVENTS.

    Downstream it draws Poisson events up to ten background services later;
    upstream, one Poisson count per ONU and cycle up to eight cycles later,
    each counted as at least one event.  Both grow with rho.
    """
    bg_bytes = config.background_packet_bytes
    if direction == DOWNSTREAM:
        rate = config.downstream_rate_bps
        horizon = last_probe_us + 10.0 * transmission_time(bg_bytes, rate)
        events = load.rho * rate / (bg_bytes * 8.0) * 1e-6 * horizon
    else:
        cycle, n_onus = config.dba_cycle_us, config.split_ratio
        per_cycle = load.rho * config.upstream_rate_bps / (bg_bytes * 8.0) * 1e-6 / n_onus * cycle
        events = (math.ceil(last_probe_us / cycle) + 8) * max(per_cycle, 1.0) * n_onus
    if events > MAX_EVENTS:
        raise ResourceLimitError(f"{direction} leg needs ~{events:.0f} events (cap {MAX_EVENTS})")


@dataclass
class _GrantState:
    """Where one ONU's grant recursion stands after the cycles solved so far.

    `u` is the running sum of (A[k-1] - cap) at the next cycle and `u_min` its
    minimum so far (see _gated_grants).  Like fifo_waits' origin, carrying the
    sequential sum and the exact minimum across a cut leaves every grant's
    bits as solving the cycles whole would.
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
    low = np.minimum.accumulate(u)
    np.minimum(low, state.u_min, out=low)
    state.last_arrived, state.u, state.u_min = float(a[-1]), float(u[-1]), float(low[-1])
    s = np.subtract(u, low, out=u)[:n]
    reported = np.add(s, prev_arrivals, out=prev_arrivals)  # Q[k]
    return np.minimum(reported, cap_bytes, out=reported)


def _last_idle(waits: np.ndarray) -> int:
    """Index of the last arrival after the first that found the server idle, or 0.

    Scans back from the end in blocks that double, so the usual short search
    allocates nothing of the chunk's size.
    """
    stop, width = waits.size, 256
    while stop > 1:
        start = max(1, stop - width)
        idle = np.flatnonzero(waits[start:stop] == 0.0)
        if idle.size:
            return start + int(idle[-1])
        stop, width = start, 2 * width
    return 0


def _fifo_chunks(draw: _PoissonDraw, service_us: float):
    """Stream a Poisson background through a fixed-service FIFO in settled chunks.

    Yields `(arrivals, waits, final)`: the waits before `final`, the chunk's
    last idle arrival, are settled, and the arrivals from it on begin the next
    chunk, solved from there with V's running minimum as origin (see
    fifo_waits); at the draw's end they are yielded whole.  So every wait is
    bit-identical to one whole solve.  All are views of buffers reused for
    every chunk, so memory does not grow with the horizon, and a consumer may
    overwrite what lies before `final`.
    """
    # `work` is fifo_waits' memory: the waits, then V's running minimum.
    buffer, work = np.empty(0), np.empty((2, 0))
    tail, tail_waits, origin = 0, work[0], 0.0
    while tail or not draw.done:
        if draw.done:
            # The background has ended, so the whole tail is final.
            arrivals, waits, final = buffer[:tail], tail_waits, tail
        else:
            need = tail + draw.next_size()
            if need > buffer.size:
                grown = np.empty(need + need // 4)
                grown[:tail] = buffer[:tail]
                buffer, work = grown, np.empty((2, grown.size))
            size = tail + _poisson_arrivals(draw, buffer[tail:]).size
            arrivals = buffer[:size]
            waits = fifo_waits(arrivals, np.broadcast_to(service_us, size), origin, out=work)
            final = _last_idle(waits)
            if final == 0:
                tail, tail_waits = size, waits
                continue
            origin = float(work[1, final])
        yield arrivals, waits, final
        tail = arrivals.size - final
        buffer[:tail] = arrivals[final:]
        tail_waits = waits[final:]


def _downstream_leg(config: PonConfig, load: LoadPoint, probe_times: np.ndarray,
                    rng: np.random.Generator) -> dict:
    """Probe delays through the OLT downstream FIFO.

    Background: Poisson arrivals of `background_packet_bytes` packets sized so
    the offered load equals rho of the downstream rate.  A probe arriving at t
    waits for the workload present at t, then serializes itself.  Probe times
    are non-decreasing; each falls among the settled arrivals of one chunk.
    """
    rate = config.downstream_rate_bps
    bg_service = transmission_time(config.background_packet_bytes, rate)
    last_probe = float(probe_times[-1]) if probe_times.size else 0.0
    _check_event_cap(config, load, DOWNSTREAM, last_probe)
    lam = load.rho * rate / (config.background_packet_bytes * 8.0) * 1e-6  # pkts/us
    draw = _poisson_draw(rng, lam, last_probe + 10.0 * bg_service)

    queueing = np.zeros(probe_times.size)
    answered = -1                # probes before this index have their queueing
    for arrivals, waits, final in _fifo_chunks(draw, bg_service):
        if answered < 0:         # those before the first arrival find no queue
            answered = int(np.searchsorted(probe_times, arrivals[0], side="left"))
        # Probes up to the next chunk's first arrival wait behind one of these.
        stop = (int(np.searchsorted(probe_times, arrivals[final], side="left"))
                if final < arrivals.size else probe_times.size)
        probes = probe_times[answered:stop]
        idx = np.searchsorted(arrivals[:final], probes, side="right") - 1
        departures = arrivals[idx] + waits[idx] + bg_service
        queueing[answered:stop] = np.maximum(0.0, departures - probes)
        answered = stop

    return {
        "queueing": queueing,
        "dba_wait": np.zeros(probe_times.size),
        "transmission": transmission_time(config.packet_bytes, rate),
    }


def _tagged_background(draw: _PoissonDraw, probe_times: np.ndarray, cycle: float,
                       n_cycles: int) -> tuple[np.ndarray, np.ndarray]:
    """Bin the tagged ONU's background into per-cycle packet counts.

    Returns the packets arrived in each cycle and the packets arrived at or
    before each probe.  The draw goes chunk by chunk into one buffer, which
    is freed on return, before the grant schedule.
    """
    arrived = np.zeros(n_cycles)
    ahead = np.empty(probe_times.size)
    n_background = answered = 0
    buffer = np.empty(draw.next_size())
    while not draw.done:
        chunk = _poisson_arrivals(draw, buffer)
        if not chunk.size:
            continue
        # Probes before this chunk's last arrival precede every later chunk.
        stop = int(np.searchsorted(probe_times, chunk[-1], side="left"))
        ahead[answered:stop] = n_background + np.searchsorted(
            chunk, probe_times[answered:stop], side="right")
        answered = stop
        cycles_of = np.minimum((chunk / cycle).astype(int), n_cycles - 1)
        first = int(cycles_of[0])
        counts = np.bincount(cycles_of - first)
        arrived[first:first + counts.size] += counts
        n_background += chunk.size
    ahead[answered:] = n_background
    return arrived, ahead


def _upstream_leg(config: PonConfig, load: LoadPoint, probe_times: np.ndarray,
                  rng: np.random.Generator) -> dict:
    """Probe delays through the gated round-robin upstream grant cycle.

    The tagged ONU sits mid-order in the fixed grant sequence, so the windows
    of split_ratio // 2 other ONUs precede its own window inside each cycle.
    A probe reports at the first cycle boundary after arrival, waits for the
    background bytes ahead of it in its ONU queue to be granted, then
    transmits inside its ONU's window.  Probe times are non-decreasing.

    Every ONU's grants are solved in cycle chunks from a carried state, and
    the tagged ONU's background is drawn chunk by chunk into one reused
    buffer, so the leg holds a few per-cycle and per-probe columns plus one
    chunk's temporaries.
    """
    cycle = config.dba_cycle_us
    n_onus = config.split_ratio
    rate = config.upstream_rate_bps
    bg_bytes = config.background_packet_bytes
    cycle_capacity = rate * cycle * 1e-6 / 8.0      # bytes per full cycle
    cap = cycle_capacity / n_onus                    # fair-share grant cap
    preceding = n_onus // 2

    horizon = float(probe_times[-1]) if probe_times.size else cycle
    _check_event_cap(config, load, UPSTREAM, horizon)
    n_cycles = int(math.ceil(horizon / cycle)) + 8

    lam_total = load.rho * rate / (bg_bytes * 8.0) * 1e-6   # pkts/us, all ONUs
    lam_onu = lam_total / n_onus
    per_onu_cycle_mean = lam_onu * cycle                    # pkts/cycle

    # ONUs granted before the tagged one only matter through their granted
    # bytes per cycle, which set the tagged window's offset in each cycle.
    # Each ONU's arrivals are drawn in cycle chunks, in the row-major order of
    # one (preceding, n_cycles) draw, and its grants are added in ONU order.
    offset_bytes = np.zeros(n_cycles)
    preceding_states = []
    for _ in range(preceding if per_onu_cycle_mean > 0.0 else 0):
        state = _GrantState()
        for start in range(0, n_cycles, CHUNK_EVENTS):
            size = min(CHUNK_EVENTS, n_cycles - start)
            arrived = rng.poisson(per_onu_cycle_mean, size=size) * float(bg_bytes)
            offset_bytes[start:start + size] += _gated_grants(arrived, cap, state)
        preceding_states.append(state)

    # Tagged ONU's own background needs exact arrival instants.
    grants, ahead_bytes = _tagged_background(
        _poisson_draw(rng, lam_onu, horizon), probe_times, cycle, n_cycles)
    ahead_bytes *= float(bg_bytes)
    grants *= bg_bytes                           # arrived bytes, then granted bytes

    tagged = _GrantState()
    for start in range(0, n_cycles, CHUNK_EVENTS):
        cut = slice(start, start + CHUNK_EVENTS)
        grants[cut] = _gated_grants(grants[cut], cap, tagged)
    # Extend with the empty cycles that grant the backlog reported at the last
    # boundary, Q = u - u_min + A[-1].  No new arrivals are drawn; traffic
    # simply stops at the horizon and the queues drain.
    drain = np.zeros(math.ceil((tagged.u - tagged.u_min + tagged.last_arrived) / cap))
    if drain.size:
        grants = np.concatenate((grants, _gated_grants(drain, cap, tagged)))
        offset_bytes = np.concatenate((offset_bytes, drain))
        for state in preceding_states:
            offset_bytes[n_cycles:] += _gated_grants(drain, cap, state)
    cum_grants = np.cumsum(grants)
    # A running sum of grants that are not whole bytes can end a hair short of
    # the bytes queued; the probes behind every one of them wait for the last
    # grant.  Every report cycle precedes the schedule's end, so no lookup
    # runs off it.
    np.minimum(ahead_bytes, cum_grants[-1], out=ahead_bytes)

    byte_rate_us = rate * 1e-6 / 8.0                      # bytes per us
    report_cycle = (probe_times / cycle).astype(int) + 1
    grant_cycle = np.searchsorted(cum_grants, ahead_bytes, side="left")
    np.maximum(grant_cycle, report_cycle, out=grant_cycle)
    # The window start and the bytes granted before it, at the grant cycles.
    cum_before = cum_grants[grant_cycle] - grants[grant_cycle]
    window_start = cycle * grant_cycle + offset_bytes[grant_cycle] / byte_rate_us
    position = np.maximum(0.0, ahead_bytes - cum_before)
    report_at = report_cycle * cycle

    return {
        "queueing": window_start + position / byte_rate_us - report_at,
        "dba_wait": report_at - probe_times,
        "transmission": transmission_time(config.packet_bytes, rate),
    }


def _leg(config: PonConfig, load: LoadPoint, direction: str,
         probe_times: np.ndarray, rng: np.random.Generator) -> dict:
    """One leg's delay columns, with its wireless hop and fiber propagation."""
    if direction == UPSTREAM:
        # Probes reach the ONU queue one wireless hop after generation.
        out = _upstream_leg(config, load, probe_times + config.wireless_hop_us, rng)
    elif direction == DOWNSTREAM:
        out = _downstream_leg(config, load, probe_times, rng)
    else:
        raise ParameterError(f"direction must be '{UPSTREAM}' or '{DOWNSTREAM}'")
    out["wireless"] = config.wireless_hop_us
    out["propagation"] = propagation_delay(config.span_km, config.fiber_delay_us_per_km)
    return out


def simulate_pon(config: PonConfig, load: LoadPoint, direction: str,
                 h2m_stream: ArrivalStream, seed: int) -> dict:
    """Packet-level delay components of each tagged message in one direction.

    Returns the leg's columns in us: `queueing` and `dba_wait` hold one entry
    per message; `transmission`, `wireless` and `propagation` are constants.
    """
    if len(h2m_stream) == 0:
        raise ParameterError("h2m_stream must contain at least one arrival")
    rng = _spawn_rngs(seed, 1)[0]
    return _leg(config, load, direction, h2m_stream.timestamps, rng)


def queueing_cross_check(config: PonConfig, load: LoadPoint, seed: int,
                         horizon_us: float = 2e6) -> dict:
    """Compare the downstream FIFO's simulated mean wait with Kingman's formula.

    The background is that of a downstream leg probed up to 0.99 of
    `horizon_us`.  Its moments are measured from the simulation's own arrival
    and service processes, so the comparison validates the queue dynamics.
    """
    if not (math.isfinite(horizon_us) and horizon_us > 0.0):
        raise ParameterError(f"horizon_us must be finite and > 0, got {horizon_us}")
    _check_event_cap(config, load, DOWNSTREAM, horizon_us * 0.99)
    rate = config.downstream_rate_bps
    service = transmission_time(config.background_packet_bytes, rate)
    lam = load.rho * rate / (config.background_packet_bytes * 8.0) * 1e-6  # pkts/us
    draw = _poisson_draw(_spawn_rngs(seed, 1)[0], lam, horizon_us * 0.99 + 10.0 * service)

    n = 0
    first = last = wait_sum = gap_square_sum = 0.0
    for arrivals, waits, final in _fifo_chunks(draw, service):
        if n == 0:
            first = float(arrivals[0])
        n += final
        last = float(arrivals[final - 1])
        wait_sum += float(waits[:final].sum())
        # The gaps up to the next chunk's first arrival, over the settled waits.
        n_gaps = min(final + 1, arrivals.size) - 1
        gaps = np.subtract(arrivals[1:n_gaps + 1], arrivals[:n_gaps], out=waits[:n_gaps])
        gap_square_sum += float(np.einsum("i,i->", gaps, gaps))  # no BLAS threads

    ca2 = 0.0
    if n > 2:
        mean_gap = (last - first) / (n - 1)
        ca2 = max(0.0, gap_square_sum / (n - 1) / mean_gap ** 2 - 1.0)
    utilization = lam * service if n else 0.0
    simulated = wait_sum / n if n else 0.0
    analytical = kingman_wait(utilization, ca2, 0.0, service)  # deterministic service
    gap = abs(simulated - analytical) / analytical if analytical > 0 else 0.0
    return {"simulated_mean_wait_us": simulated, "kingman_wait_us": analytical,
            "relative_gap": gap, "utilization": utilization, "ca2": ca2, "cs2": 0.0,
            "mean_service_us": service}


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


def _probe_horizon(traffic: GpdParams, n_loops: int) -> float:
    """Where `_probe_stream` first draws to: 10% past the mean span of n_loops gaps."""
    return n_loops * gpd_mean(traffic) * 1.1 + 10.0


def _probe_stream(traffic: GpdParams, n_loops: int, seed: int) -> np.ndarray:
    horizon = _probe_horizon(traffic, n_loops)
    stream = generate_stream(traffic, horizon, seed)
    while len(stream) < n_loops:
        horizon *= 1.5
        stream = generate_stream(traffic, horizon, seed)
    return stream.timestamps[:n_loops]


def _round_trip_base(config: PonConfig, load: LoadPoint, seed: int,
                     probes: np.ndarray, with_ai: bool) -> tuple[np.ndarray, int]:
    """Per-loop totals excluding fiber propagation, plus the fiber leg count.

    `probes` is the control stream drawn from `seed`, and the four legs'
    background seeds derive from `seed` too, so both modes share identical
    leg realizations: the with-AI loop reuses the control upstream and
    feedback downstream legs of the no-AI loop and simply skips the two
    machine-side legs.
    """
    rngs = _spawn_rngs(seed, 4)

    leg_plan = [(UPSTREAM, 0), (DOWNSTREAM, 1), (UPSTREAM, 2), (DOWNSTREAM, 3)]
    if with_ai:
        leg_plan = [(UPSTREAM, 0), (DOWNSTREAM, 3)]

    totals = np.zeros(probes.size)
    for direction, rng_idx in leg_plan:
        leg = _leg(config, load, direction, probes, rngs[rng_idx])
        totals += (leg["queueing"] + leg["dba_wait"]
                   + leg["transmission"] + leg["wireless"])
    if with_ai:
        totals += config.ai_inference_us
    return totals, len(leg_plan)


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
    if n_loops < 10:
        raise ParameterError(f"need at least 10 loops, got {n_loops}")
    probes = _probe_stream(traffic or CONTROL_TRAFFIC_DEFAULT, n_loops, seed)
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
