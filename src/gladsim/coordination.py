"""Global-local coordinated learning: profile sharing and machine onboarding.

Local AIs (one per central office) serve several machines/robots, each with
its own feedback forecaster.  After profiling an object, a Local AI uploads
the forecaster's profile to a global registry keyed by a quantized object
descriptor; the registry aggregates uploads per descriptor by sample-count
weighted averaging.  Onboarding a new machine either starts the forecaster
from zero (cold) or warm-starts it from the best matching aggregated profile
(glad mode), falling back to cold when nothing matches.

Every registry mutation bumps its version.  Local AI state is plain data
owned by the caller; onboarding never touches the forecasters of existing
machines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InsufficientDataError,
    NotReadyError,
    ParameterError,
)
from .haptic import (
    N_FINGERS,
    ForecasterState,
    HapticSample,
    ObjectKind,
    ObjectProfile,
    _amplitude_matrix,
    _forecast,
    profiling_trace,
    run_forecaster,
)

__all__ = [
    "Descriptor",
    "MatchingPolicy",
    "ProfileRecord",
    "GlobalRegistry",
    "MachineSlot",
    "LocalAiState",
    "OnboardResult",
    "SavingsRecord",
    "descriptor_of",
    "similarity",
    "upload_profile",
    "aggregate_global",
    "match_profile",
    "onboard_machine",
    "training_time_saved",
    "run_savings_sweep",
    "make_profile_pool",
]

Descriptor = tuple[str, int, int]

COLD = "cold"
GLAD = "glad"

DEFAULT_ONBOARDING_ALPHA = 0.0055
DEFAULT_ACCURACY_TARGET = 0.95
DEFAULT_WINDOW = 200
DEFAULT_EPSILON = 0.05
DEFAULT_MIN_UPLOAD_UPDATES = 200
DEFAULT_PROFILING_SAMPLES = 4000


@dataclass(frozen=True)
class MatchingPolicy:
    """Quantization and acceptance rules for descriptor matching."""

    bands: int = 10
    texture_freq_max_hz: float = 250.0
    threshold: float = 0.8

    def __post_init__(self):
        if self.bands < 2:
            raise ParameterError(f"bands must be >= 2, got {self.bands}")
        if self.texture_freq_max_hz <= 0:
            raise ParameterError("texture_freq_max_hz must be > 0")
        if not (0.0 < self.threshold <= 1.0):
            raise ParameterError(f"threshold must lie in (0, 1], got {self.threshold}")


DEFAULT_POLICY = MatchingPolicy()


def descriptor_of(profile: ObjectProfile,
                  policy: MatchingPolicy = DEFAULT_POLICY) -> Descriptor:
    """Quantized object signature: (kind, stiffness band, texture band)."""
    s_band = min(policy.bands - 1, int(profile.stiffness * policy.bands))
    t_band = min(
        policy.bands - 1,
        int(profile.texture_freq_hz / policy.texture_freq_max_hz * policy.bands),
    )
    return (profile.kind.value, s_band, t_band)


def similarity(a: Descriptor, b: Descriptor,
               policy: MatchingPolicy = DEFAULT_POLICY) -> float:
    """1 minus the normalized band distance; 0 for different kinds."""
    if a[0] != b[0]:
        return 0.0
    dist = max(abs(a[1] - b[1]), abs(a[2] - b[2])) / policy.bands
    return max(0.0, 1.0 - dist)


@dataclass(frozen=True)
class ProfileRecord:
    """One uploaded (or aggregated) forecaster profile."""

    descriptor: Descriptor
    profile_estimate: np.ndarray
    sample_count: int
    source_local_ai: str

    def __post_init__(self):
        est = np.asarray(self.profile_estimate, dtype=float)
        if est.shape != (N_FINGERS,):
            raise ParameterError(f"profile estimate must be a {N_FINGERS}-vector")
        if np.any(est < 0.0) or np.any(est > 1.0):
            raise ParameterError("profile estimate must lie in [0, 1]")
        object.__setattr__(self, "profile_estimate", est)
        if self.sample_count <= 0:
            raise ParameterError(f"sample_count must be > 0, got {self.sample_count}")


class GlobalRegistry:
    """Cloud-side profile store; every mutation bumps the version."""

    def __init__(self):
        self._records: dict[Descriptor, list[ProfileRecord]] = {}
        self._version = 0

    @property
    def version(self) -> int:
        return self._version

    def __len__(self) -> int:
        return sum(len(v) for v in self._records.values())

    def descriptors(self) -> list[Descriptor]:
        return list(self._records.keys())

    def records_for(self, descriptor: Descriptor) -> tuple[ProfileRecord, ...]:
        return tuple(self._records.get(descriptor, ()))

    def all_records(self) -> list[ProfileRecord]:
        return [r for recs in self._records.values() for r in recs]

    def add_record(self, record: ProfileRecord) -> int:
        self._records.setdefault(record.descriptor, []).append(record)
        self._version += 1
        return self._version

    def aggregate(self) -> int:
        """Collapse each descriptor's records into one count-weighted mean."""
        for descriptor, records in self._records.items():
            if len(records) <= 1:
                continue
            counts = np.array([r.sample_count for r in records], dtype=float)
            estimates = np.array([r.profile_estimate for r in records])
            merged = ProfileRecord(
                descriptor=descriptor,
                profile_estimate=counts @ estimates / counts.sum(),
                sample_count=int(counts.sum()),
                source_local_ai="global",
            )
            self._records[descriptor] = [merged]
        self._version += 1
        return self._version

    def snapshot(self) -> dict:
        """JSON-ready dump of the registry contents."""
        return {
            "version": self._version,
            "records": [
                {
                    "kind": r.descriptor[0],
                    "stiffness_band": r.descriptor[1],
                    "texture_band": r.descriptor[2],
                    "profile_estimate": [float(v) for v in r.profile_estimate],
                    "sample_count": r.sample_count,
                    "source_local_ai": r.source_local_ai,
                }
                for r in self.all_records()
            ],
        }

    def dump_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "GlobalRegistry":
        registry = cls()
        for entry in snapshot["records"]:
            descriptor = (entry["kind"], entry["stiffness_band"], entry["texture_band"])
            registry.add_record(ProfileRecord(
                descriptor=descriptor,
                profile_estimate=np.asarray(entry["profile_estimate"], dtype=float),
                sample_count=int(entry["sample_count"]),
                source_local_ai=entry["source_local_ai"],
            ))
        registry._version = int(snapshot["version"])
        return registry


@dataclass
class MachineSlot:
    machine_id: str
    forecaster: ForecasterState
    profile: ObjectProfile


@dataclass
class LocalAiState:
    """One central office's AI: its identity and the machines it serves."""

    local_id: str
    machines: list[MachineSlot] = field(default_factory=list)

    @property
    def machine_count(self) -> int:
        return len(self.machines)

    def slot(self, machine_id: str) -> MachineSlot:
        for slot in self.machines:
            if slot.machine_id == machine_id:
                return slot
        raise ParameterError(f"unknown machine {machine_id!r} at {self.local_id!r}")

    def add(self, slot: MachineSlot) -> None:
        if any(s.machine_id == slot.machine_id for s in self.machines):
            raise ParameterError(f"duplicate machine id {slot.machine_id!r}")
        self.machines.append(slot)


def upload_profile(local: LocalAiState, machine_id: str, registry: GlobalRegistry, *,
                   min_updates: int = DEFAULT_MIN_UPLOAD_UPDATES,
                   policy: MatchingPolicy = DEFAULT_POLICY) -> int:
    """Publish one machine's trained profile; returns the new registry version."""
    slot = local.slot(machine_id)
    if slot.forecaster.updates_seen < min_updates:
        raise NotReadyError(
            f"profile for {machine_id!r} has {slot.forecaster.updates_seen} updates, "
            f"needs >= {min_updates}"
        )
    record = ProfileRecord(
        descriptor=descriptor_of(slot.profile, policy),
        profile_estimate=np.clip(slot.forecaster.profile_estimate, 0.0, 1.0),
        sample_count=slot.forecaster.updates_seen,
        source_local_ai=local.local_id,
    )
    return registry.add_record(record)


def aggregate_global(registry: GlobalRegistry) -> GlobalRegistry:
    """Aggregate every descriptor's uploads into one record each."""
    if len(registry) == 0:
        raise ParameterError("registry is empty; nothing to aggregate")
    registry.aggregate()
    return registry


def match_profile(registry: GlobalRegistry, descriptor: Descriptor, *,
                  policy: MatchingPolicy = DEFAULT_POLICY
                  ) -> tuple[ProfileRecord | None, float]:
    """Best same-kind record by signature similarity, if it clears the threshold.

    Returns (record, similarity) on a match and (None, best similarity found)
    otherwise; an empty registry yields (None, 0.0).
    """
    best: ProfileRecord | None = None
    best_sim = 0.0
    for record in registry.all_records():
        sim = similarity(descriptor, record.descriptor, policy)
        if sim > best_sim:
            best, best_sim = record, sim
    if best is not None and best_sim >= policy.threshold:
        return best, best_sim
    return None, best_sim


@dataclass(frozen=True)
class OnboardResult:
    """Iterations a fresh machine needed to reach the accuracy target."""

    machine_id: str
    mode: str
    iterations: int
    converged: bool
    match_similarity: float


@dataclass(frozen=True)
class SavingsRecord:
    """Paired cold/warm onboarding outcome for one machine."""

    machine_id: str
    t_cold: int
    t_warm: int
    saved_pct: float

    def __post_init__(self):
        if self.t_cold <= 0:
            raise ParameterError("t_cold must be > 0")
        expected = 100.0 * (1.0 - self.t_warm / self.t_cold)
        if abs(self.saved_pct - expected) > 1e-9:
            raise ParameterError("saved_pct inconsistent with t_cold/t_warm")


def iterations_to_target(hits: np.ndarray, target: float, window: int) -> tuple[int, bool]:
    """First iteration whose trailing `window` accuracy reaches `target`.

    Returns (len(hits), False) when the target is never reached; iterations
    are 1-based counts of consumed samples, so the floor is `window`.
    """
    if not (0.0 < target < 1.0):
        raise ParameterError(f"accuracy target must lie in (0, 1), got {target}")
    if window <= 0:
        raise ParameterError(f"window must be > 0, got {window}")
    if hits.size >= window:
        cums = np.concatenate(([0], np.cumsum(hits)))
        windowed = (cums[window:] - cums[:-window]) / window
        reached = np.nonzero(windowed >= target)[0]
        if reached.size:
            return int(reached[0]) + window, True
    return int(hits.size), False


def onboard_machine(local: LocalAiState, profile: ObjectProfile,
                    registry: GlobalRegistry, mode: str, accuracy_target: float,
                    trace: list[HapticSample], *,
                    machine_id: str | None = None,
                    alpha: float = DEFAULT_ONBOARDING_ALPHA,
                    epsilon: float = DEFAULT_EPSILON,
                    window: int = DEFAULT_WINDOW,
                    policy: MatchingPolicy = DEFAULT_POLICY) -> OnboardResult:
    """Train a new machine's forecaster over `trace` and record convergence.

    Cold mode starts from a zero estimate; glad mode warm-starts from the
    best matching global profile and falls back to cold when none matches.
    Forecasters of machines already served are left untouched.
    """
    if mode not in (COLD, GLAD):
        raise ParameterError(f"mode must be '{COLD}' or '{GLAD}', got {mode!r}")
    if len(trace) < 500:
        raise InsufficientDataError(
            f"onboarding needs >= 500 touch samples, got {len(trace)}"
        )

    initial = np.zeros(N_FINGERS)
    match_sim = 0.0
    if mode == GLAD:
        record, match_sim = match_profile(registry, descriptor_of(profile, policy),
                                          policy=policy)
        if record is not None:
            initial = record.profile_estimate

    x = _amplitude_matrix(trace)
    hits = run_forecaster(x, alpha, epsilon, initial_estimate=initial)
    iterations, converged = iterations_to_target(hits, accuracy_target, window)
    _, estimate = _forecast(x, alpha, epsilon, initial)
    state = ForecasterState(
        profile_estimate=np.clip(estimate, 0.0, 1.0),
        alpha_local=alpha,
        updates_seen=len(trace),
    )
    machine_id = machine_id or f"{local.local_id}-m{local.machine_count}"
    local.add(MachineSlot(machine_id=machine_id, forecaster=state, profile=profile))
    return OnboardResult(
        machine_id=machine_id,
        mode=mode,
        iterations=iterations,
        converged=converged,
        match_similarity=match_sim,
    )


def training_time_saved(t_cold: int, t_warm: int) -> float:
    """Percentage of cold-start iterations avoided by the warm start."""
    if t_cold <= 0:
        raise ParameterError(f"t_cold must be > 0, got {t_cold}")
    return 100.0 * (1.0 - t_warm / t_cold)


def make_profile_pool(size: int) -> list[ObjectProfile]:
    """`size` mutually non-matching object profiles (distinct descriptors).

    Kinds and quantization bands are spread so any two pool entries fall
    below the default matching threshold.
    """
    if size < 1:
        raise ParameterError(f"pool size must be >= 1, got {size}")
    kinds = (ObjectKind.RUBBER_BALL, ObjectKind.WOODEN_CUBE, ObjectKind.CIRCULAR_CUBE)
    # Stiffness stays well above the forecast tolerance so cold starts are
    # never trivially converged; levels sit >= 3 quantization bands apart.
    stiffness_levels = (0.95, 0.65, 0.35)           # bands 9, 6, 3
    texture_levels = (10.0, 85.0, 160.0, 235.0)     # bands 0, 3, 6, 9
    capacity = len(kinds) * len(stiffness_levels) * len(texture_levels)
    if size > capacity:
        raise ParameterError(f"pool size must be <= {capacity}, got {size}")
    pool = []
    for i in range(size):
        kind = kinds[i % len(kinds)]
        s = stiffness_levels[(i // len(kinds)) % len(stiffness_levels)]
        t = texture_levels[(i // (len(kinds) * len(stiffness_levels))) % len(texture_levels)]
        pool.append(ObjectProfile(
            object_id=f"pool-{i}",
            kind=kind,
            center=np.zeros(3),
            extent_cm=4.0 + (i % 3),
            stiffness=s,
            texture_freq_hz=t,
        ))
    return pool


def run_savings_sweep(total_machines: int, kind_pool_size: int, seed: int, *,
                      local_ais: int = 2,
                      trace_samples: int = DEFAULT_PROFILING_SAMPLES,
                      accuracy_target: float = DEFAULT_ACCURACY_TARGET,
                      window: int = DEFAULT_WINDOW,
                      alpha: float = DEFAULT_ONBOARDING_ALPHA,
                      epsilon: float = DEFAULT_EPSILON,
                      min_updates: int = DEFAULT_MIN_UPLOAD_UPDATES,
                      policy: MatchingPolicy = DEFAULT_POLICY
                      ) -> list[tuple[int, float]]:
    """Sequential onboarding study: mean training time saved vs machines present.

    Machines draw objects from a finite profile pool and are onboarded one at
    a time across the Local AIs.  Each onboarding runs both modes on the same
    trace (cold on a scratch twin, glad on the real Local AI), uploads the
    trained profile (`NotReadyError` when `trace_samples < min_updates`) and
    re-aggregates the registry.  Returns the running mean of saved_pct after
    each machine.
    """
    if total_machines < 2:
        raise ParameterError(f"total_machines must be >= 2, got {total_machines}")
    pool = make_profile_pool(kind_pool_size)
    offices = [LocalAiState(local_id=f"co-{i}") for i in range(max(1, local_ais))]
    registry = GlobalRegistry()
    seeds = np.random.SeedSequence(seed).generate_state(total_machines)

    saved: list[float] = []
    curve: list[tuple[int, float]] = []
    for m in range(total_machines):
        profile = pool[m % kind_pool_size]
        office = offices[m % len(offices)]
        trace = profiling_trace(profile, trace_samples, int(seeds[m]))

        cold = onboard_machine(
            LocalAiState(local_id="baseline"), profile, registry, COLD,
            accuracy_target, trace, alpha=alpha, epsilon=epsilon,
            window=window, policy=policy,
        )
        warm = onboard_machine(
            office, profile, registry, GLAD, accuracy_target, trace,
            machine_id=f"machine-{m}", alpha=alpha, epsilon=epsilon,
            window=window, policy=policy,
        )
        saved.append(training_time_saved(cold.iterations, warm.iterations))

        upload_profile(office, f"machine-{m}", registry,
                       min_updates=min_updates, policy=policy)
        aggregate_global(registry)
        curve.append((m + 1, float(np.mean(saved))))
    return curve
