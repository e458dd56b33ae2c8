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
propagation term.  `max_span_meeting_deadline` exploits that directly.
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
    "LatencySummary",
    "UPSTREAM",
    "DOWNSTREAM",
    "propagation_delay",
    "transmission_time",
    "kingman_wait",
    "fifo_waits",
    "simulate_pon",
    "queueing_cross_check",
    "round_trip_no_ai",
    "round_trip_with_ai",
    "max_span_meeting_deadline",
]

UPSTREAM = "upstream"
DOWNSTREAM = "downstream"

# Hard cap on background packets per simulated leg.
MAX_EVENTS = 50_000_000

# Background arrivals drawn per chunk, and DBA cycles solved per chunk.  The
# downstream FIFO holds one chunk plus the busy period still open at the end
# of the chunk before, and the upstream grant solvers one chunk of cycles, so
# their temporaries do not grow with the horizon.
CHUNK_EVENTS = 1 << 18

# Fraction of loops discarded as simulation warm-up before summarizing.
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


@dataclass(frozen=True)
class LatencySummary:
    """Round-trip statistics over the simulated loops (after warm-up)."""

    mean_us: float
    p95_us: float
    p99_us: float
    n_loops: int


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
    expected = rate_per_us * horizon_us
    if expected > MAX_EVENTS:
        raise ResourceLimitError(
            f"background process needs ~{expected:.0f} events (cap {MAX_EVENTS})"
        )
    n_est = int(expected * 1.05) + 64
    return _PoissonDraw(rng, 1.0 / rate_per_us, horizon_us,
                        extension=max(64, n_est // 10), left=n_est, drawn=n_est)


def _poisson_arrivals(draw: _PoissonDraw, out: np.ndarray | None = None) -> np.ndarray:
    """The next at most CHUNK_EVENTS arrival instants of a draw, up to its horizon.

    They are drawn into the front of `out` when given, which needs room for
    `draw.next_size()` of them, and into a fresh array otherwise.  Filling
    standard exponentials and scaling them gives the bits and the generator
    state of `rng.exponential(scale_us, size)`.
    """
    size = draw.next_size()
    if draw.left == 0:
        draw.base_us += draw.partial_us
        draw.partial_us = 0.0
        draw.left = draw.extension
        draw.drawn += draw.extension
        if draw.drawn > MAX_EVENTS:
            raise ResourceLimitError("background process exceeded the event cap")
    times = np.empty(size) if out is None else out[:size]
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


def _background(rng: np.random.Generator, rate_per_us: float, horizon_us: float):
    """Arrival instants of a Poisson process on [0, horizon_us], in fresh chunks."""
    draw = _poisson_draw(rng, rate_per_us, horizon_us)
    while not draw.done:
        yield _poisson_arrivals(draw)


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


def _downstream_leg(config: PonConfig, load: LoadPoint, probe_times: np.ndarray,
                    rng: np.random.Generator, stats: bool = True) -> dict:
    """Probe delays through the OLT downstream FIFO.

    Background: Poisson arrivals of `background_packet_bytes` packets sized so
    the offered load equals rho of the downstream rate.  A probe arriving at t
    waits for the workload present at t, then serializes itself.  Probe times
    are non-decreasing.

    The background streams through the FIFO in chunks.  Each chunk is solved
    from the last arrival before it that found the server idle, where the
    queue holds no memory of the past, and the waits up to the chunk's own
    last idle arrival are final: they answer the probes that fall among them
    and are dropped.  Every chunk is drawn into, and solved in, buffers the
    leg reuses, so peak memory does not grow with the horizon.

    `stats` adds the background's mean wait and gap ca² under "stats"; they
    cost two more passes over every arrival.
    """
    rate = config.downstream_rate_bps
    bg_service = transmission_time(config.background_packet_bytes, rate)
    horizon = float(probe_times[-1]) + 10.0 * bg_service if probe_times.size else 0.0
    lam = load.rho * rate / (config.background_packet_bytes * 8.0) * 1e-6  # pkts/us

    queueing = np.zeros(probe_times.size)
    answered = 0                 # probes before this index have their queueing
    n_background = 0
    first_arrival = last_arrival = 0.0
    wait_sum = gap_square_sum = 0.0
    draw = _poisson_draw(rng, lam, horizon)
    # The arrivals from the last one found idle on (the tail) sit at the front
    # of `buffer`, and each chunk is drawn in behind them.  `work` is
    # fifo_waits' memory: the waits, then V's running minimum, whose value at
    # the last idle arrival is the origin the next chunk continues from.
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
            waits = fifo_waits(arrivals, np.broadcast_to(bg_service, size), origin, out=work)
            final = _last_idle(waits)
            if final == 0:
                tail, tail_waits = size, waits
                continue

        if n_background == 0:
            first_arrival = float(arrivals[0])
            answered = int(np.searchsorted(probe_times, first_arrival, side="left"))
        # Probes up to the next chunk's first arrival wait behind one of these.
        carried = final < arrivals.size
        stop = (int(np.searchsorted(probe_times, arrivals[final], side="left"))
                if carried else probe_times.size)
        probes = probe_times[answered:stop]
        idx = np.searchsorted(arrivals[:final], probes, side="right") - 1
        departures = arrivals[idx] + waits[idx] + bg_service
        queueing[answered:stop] = np.maximum(0.0, departures - probes)
        answered = stop

        n_background += final
        last_arrival = float(arrivals[final - 1])
        if carried:
            origin = float(work[1, final])
        if stats:
            wait_sum += float(waits[:final].sum())
            # The gaps up to the next chunk's first arrival, in M's row.
            n_gaps = min(final + 1, arrivals.size) - 1
            gaps = np.subtract(arrivals[1:n_gaps + 1], arrivals[:n_gaps], out=work[1, :n_gaps])
            gap_square_sum += float(np.einsum("i,i->", gaps, gaps))  # no BLAS threads
        tail = arrivals.size - final
        buffer[:tail] = arrivals[final:]
        tail_waits = waits[final:]

    out = {
        "queueing": queueing,
        "dba_wait": np.zeros(probe_times.size),
        "transmission": transmission_time(config.packet_bytes, rate),
    }
    if not stats:
        return out
    n_gaps = n_background - 1
    ca2 = 0.0
    if n_gaps > 1:
        mean_gap = (last_arrival - first_arrival) / n_gaps
        ca2 = max(0.0, gap_square_sum / n_gaps / mean_gap ** 2 - 1.0)
    out["stats"] = {
        "mean_queue_wait_us": wait_sum / n_background if n_background else 0.0,
        "ca2": ca2,
        "cs2": 0.0,  # deterministic background service
        "mean_service_us": bg_service,
        "utilization": lam * bg_service if n_background else 0.0,
        "n_background": n_background,
    }
    return out


def _schedule(grants: np.ndarray, cum_grants: np.ndarray, cap_bytes: float,
              state: _GrantState, granted_before: float) -> float:
    """Solve one ONU's grants in place, in cycle chunks, with their running sum.

    `grants` holds the bytes arrived per cycle on entry and the granted bytes
    on return; `cum_grants` receives the running sum continued from
    `granted_before`, which is returned advanced past these cycles.
    """
    for start in range(0, grants.size, CHUNK_EVENTS):
        part = grants[start:start + CHUNK_EVENTS]
        part[:] = _gated_grants(part, cap_bytes, state)
        run = cum_grants[start:start + CHUNK_EVENTS]
        run[:] = part
        run[0] += granted_before
        granted_before = float(np.cumsum(run, out=run)[-1])
    return granted_before


def _upstream_leg(config: PonConfig, load: LoadPoint, probe_times: np.ndarray,
                  rng: np.random.Generator) -> dict:
    """Probe delays through the gated round-robin upstream grant cycle.

    The tagged ONU sits mid-order in the fixed grant sequence, so the windows
    of split_ratio // 2 other ONUs precede its own window inside each cycle.
    A probe reports at the first cycle boundary after arrival, waits for the
    background bytes ahead of it in its ONU queue to be granted, then
    transmits inside its ONU's window.  Probe times are non-decreasing.

    Every ONU's grants are solved in cycle chunks from a carried state, and
    the tagged ONU's background is consumed chunk by chunk, so the leg holds
    a few per-cycle and per-probe columns plus one chunk's temporaries.
    """
    cycle = config.dba_cycle_us
    n_onus = config.split_ratio
    rate = config.upstream_rate_bps
    bg_bytes = config.background_packet_bytes
    cycle_capacity = rate * cycle * 1e-6 / 8.0      # bytes per full cycle
    cap = cycle_capacity / n_onus                    # fair-share grant cap
    preceding = n_onus // 2

    horizon = float(probe_times[-1]) if probe_times.size else cycle
    n_cycles = int(math.ceil(horizon / cycle)) + 8

    lam_total = load.rho * rate / (bg_bytes * 8.0) * 1e-6   # pkts/us, all ONUs
    lam_onu = lam_total / n_onus
    per_onu_cycle_mean = lam_onu * cycle                    # pkts/cycle

    if n_cycles * max(per_onu_cycle_mean, 1.0) * n_onus > MAX_EVENTS:
        raise ResourceLimitError("upstream background exceeds the event cap")

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

    # Tagged ONU's own background needs exact arrival instants: they are
    # binned into per-cycle arrivals, and each probe counts the packets that
    # arrived at or before it.
    grants = np.zeros(n_cycles)                  # arrived packets, then granted bytes
    ahead_bytes = np.empty(probe_times.size)
    n_background = answered = 0
    for chunk in _background(rng, lam_onu, horizon):
        if not chunk.size:
            continue
        # Probes before this chunk's last arrival precede every later chunk.
        stop = int(np.searchsorted(probe_times, chunk[-1], side="left"))
        ahead_bytes[answered:stop] = n_background + np.searchsorted(
            chunk, probe_times[answered:stop], side="right")
        answered = stop
        cycles_of = np.minimum((chunk / cycle).astype(int), n_cycles - 1)
        first = int(cycles_of[0])
        counts = np.bincount(cycles_of - first)
        grants[first:first + counts.size] += counts
        n_background += chunk.size
    ahead_bytes[answered:] = n_background
    ahead_bytes *= float(bg_bytes)
    grants *= bg_bytes

    bg_total = float(n_background) * bg_bytes
    tagged = _GrantState()
    cum_grants = np.empty(n_cycles)
    granted = _schedule(grants, cum_grants, cap, tagged, 0.0)
    # Extend with empty cycles until every queued byte has been granted, so
    # probe lookups never run off the end of the schedule.  No new arrivals
    # are drawn; traffic simply stops at the horizon and the queues drain.
    while bg_total > 0 and granted < bg_total:
        extra = max(16, int(math.ceil((bg_total - granted) / cap)) + 16)
        more_grants, more_cum = np.zeros(extra), np.empty(extra)
        granted = _schedule(more_grants, more_cum, cap, tagged, granted)
        more_offset = np.zeros(extra)
        for state in preceding_states:
            more_offset += _gated_grants(np.zeros(extra), cap, state)
        grants = np.concatenate((grants, more_grants))
        cum_grants = np.concatenate((cum_grants, more_cum))
        offset_bytes = np.concatenate((offset_bytes, more_offset))
        n_cycles += extra

    byte_rate_us = rate * 1e-6 / 8.0                      # bytes per us
    report_cycle = (probe_times / cycle).astype(int) + 1
    grant_cycle = np.searchsorted(cum_grants, ahead_bytes, side="left")
    np.maximum(grant_cycle, report_cycle, out=grant_cycle)
    if np.any(grant_cycle >= n_cycles):
        raise ResourceLimitError("grant schedule shorter than probe horizon")
    # The window start and the bytes granted before it, at the grant cycles.
    cum_before = cum_grants[grant_cycle] - grants[grant_cycle]
    window_start = cycle * grant_cycle + offset_bytes[grant_cycle] / byte_rate_us
    position = np.maximum(0.0, ahead_bytes - cum_before)
    report_at = report_cycle * cycle

    return {
        "queueing": window_start + position / byte_rate_us - report_at,
        "dba_wait": report_at - probe_times,
        "transmission": transmission_time(config.packet_bytes, rate),
        "stats": {
            "utilization": load.rho,
            "mean_service_us": transmission_time(bg_bytes, rate),
            "n_background": n_background,
        },
    }


def _leg(config: PonConfig, load: LoadPoint, direction: str,
         probe_times: np.ndarray, rng: np.random.Generator, stats: bool = True) -> dict:
    """One leg's columns; `stats=False` skips the downstream background's statistics."""
    if direction == UPSTREAM:
        # Probes reach the ONU queue one wireless hop after generation.
        out = _upstream_leg(config, load, probe_times + config.wireless_hop_us, rng)
    elif direction == DOWNSTREAM:
        out = _downstream_leg(config, load, probe_times, rng, stats)
    else:
        raise ParameterError(f"direction must be '{UPSTREAM}' or '{DOWNSTREAM}'")
    out["wireless"] = config.wireless_hop_us
    out["propagation"] = propagation_delay(config.span_km, config.fiber_delay_us_per_km)
    return out


def simulate_pon(config: PonConfig, load: LoadPoint, direction: str,
                 h2m_stream: ArrivalStream, seed: int) -> dict:
    """Packet-level delay components of each tagged message in one direction.

    Returns the leg's columns: `queueing` and `dba_wait` hold one entry per
    message (us); `transmission`, `wireless` and `propagation` are the
    per-message constants (us); `stats` describes the background.
    """
    if len(h2m_stream) == 0:
        raise ParameterError("h2m_stream must contain at least one arrival")
    rng = _spawn_rngs(seed, 1)[0]
    return _leg(config, load, direction, h2m_stream.timestamps, rng)


def queueing_cross_check(config: PonConfig, load: LoadPoint, seed: int,
                         horizon_us: float = 2e6) -> dict:
    """Compare the downstream FIFO's simulated mean wait with Kingman's formula.

    Moments are measured from the simulation's own arrival and service
    processes, so the comparison validates the queue dynamics rather than the
    input assumptions.  Returns both values and their relative gap.
    """
    rng = _spawn_rngs(seed, 1)[0]
    probes = np.linspace(horizon_us * 0.01, horizon_us * 0.99, 256)
    leg = _downstream_leg(config, load, probes, rng)
    stats = leg["stats"]
    analytical = kingman_wait(stats["utilization"], stats["ca2"], stats["cs2"],
                              stats["mean_service_us"])
    simulated = stats["mean_queue_wait_us"]
    gap = abs(simulated - analytical) / analytical if analytical > 0 else 0.0
    return {
        "simulated_mean_wait_us": simulated,
        "kingman_wait_us": analytical,
        "relative_gap": gap,
        "utilization": stats["utilization"],
        "ca2": stats["ca2"],
        "cs2": stats["cs2"],
        "mean_service_us": stats["mean_service_us"],
    }


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


def _probe_stream(traffic: GpdParams, n_loops: int, seed: int) -> np.ndarray:
    horizon = n_loops * gpd_mean(traffic) * 1.1 + 10.0
    stream = generate_stream(traffic, horizon, seed)
    while len(stream) < n_loops:
        horizon *= 1.5
        stream = generate_stream(traffic, horizon, seed)
    return stream.timestamps[:n_loops]


def _round_trip_base(config: PonConfig, load: LoadPoint, seed: int,
                     n_loops: int, traffic: GpdParams | None,
                     with_ai: bool) -> tuple[np.ndarray, int]:
    """Per-loop totals excluding fiber propagation, plus the fiber leg count.

    The control stream's own seed and the four legs' background seeds derive
    from `seed`, so both modes share identical leg realizations: the with-AI
    loop reuses the control upstream and feedback downstream legs of the
    no-AI loop and simply skips the two machine-side legs.
    """
    traffic = traffic or CONTROL_TRAFFIC_DEFAULT
    if n_loops < 10:
        raise ParameterError(f"need at least 10 loops, got {n_loops}")
    probes = _probe_stream(traffic, n_loops, seed)
    rngs = _spawn_rngs(seed, 4)

    leg_plan = [(UPSTREAM, 0), (DOWNSTREAM, 1), (UPSTREAM, 2), (DOWNSTREAM, 3)]
    if with_ai:
        leg_plan = [(UPSTREAM, 0), (DOWNSTREAM, 3)]

    totals = np.zeros(n_loops)
    for direction, rng_idx in leg_plan:
        leg = _leg(config, load, direction, probes, rngs[rng_idx], stats=False)
        totals += (leg["queueing"] + leg["dba_wait"]
                   + leg["transmission"] + leg["wireless"])
    if with_ai:
        totals += config.ai_inference_us
    return totals, len(leg_plan)


def _summarize(totals: np.ndarray) -> LatencySummary:
    start = int(totals.size * WARMUP_FRACTION)
    body = totals[start:]
    return LatencySummary(
        mean_us=float(body.mean()),
        p95_us=float(np.percentile(body, 95)),
        p99_us=float(np.percentile(body, 99)),
        n_loops=int(body.size),
    )


def round_trip_no_ai(config: PonConfig, load: LoadPoint, seed: int, *,
                     n_loops: int = 10_000,
                     traffic: GpdParams | None = None) -> LatencySummary:
    """Closed-loop latency with the machine in the loop.

    Four traversals per loop: control upstream and downstream to the machine,
    feedback upstream and downstream back to the operator, with a wireless
    hop at each of the four air crossings.
    """
    base, legs = _round_trip_base(config, load, seed, n_loops, traffic, with_ai=False)
    prop = propagation_delay(config.span_km, config.fiber_delay_us_per_km)
    return _summarize(base + legs * prop)


def round_trip_with_ai(config: PonConfig, load: LoadPoint, seed: int, *,
                       n_loops: int = 10_000,
                       traffic: GpdParams | None = None) -> LatencySummary:
    """Closed-loop latency with edge forecasting short-circuiting the machine.

    The loop is control upstream to the CO, forecast inference, and the
    forecast feedback downstream to the operator: two fiber traversals, two
    wireless hops, plus the inference time.
    """
    base, legs = _round_trip_base(config, load, seed, n_loops, traffic, with_ai=True)
    prop = propagation_delay(config.span_km, config.fiber_delay_us_per_km)
    return _summarize(base + legs * prop)


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


def max_span_meeting_deadline(config: PonConfig, load: LoadPoint,
                              deadline_us: float, with_ai: bool, *,
                              seed: int = 0, n_loops: int = 10_000,
                              traffic: GpdParams | None = None) -> float:
    """Largest span (km) whose mean round trip meets the deadline.

    Searches [0, 100] km at 0.5 km resolution.  Returns 0.0 when the
    deadline cannot be met even back-to-back.
    """
    if deadline_us <= 0:
        raise ParameterError(f"deadline must be > 0, got {deadline_us}")
    base, legs = _round_trip_base(config, load, seed, n_loops, traffic, with_ai)
    start = int(base.size * WARMUP_FRACTION)
    base_mean = float(base[start:].mean())
    return _bisect_max_span(base_mean, legs, config.fiber_delay_us_per_km, deadline_us)
