"""Global-local coordinated learning: profile sharing and machine onboarding.

Local AIs (one per central office) serve several machines/robots, each with
its own feedback forecaster.  After profiling an object, a Local AI uploads
the forecaster's profile to a global registry keyed by a quantized object
descriptor; each upload folds into the one profile the registry holds for its
descriptor, a sample-count weighted mean.  Onboarding a new machine either
starts the forecaster from zero (cold) or warm-starts it from the best
matching profile (glad mode), falling back to cold when nothing matches.

Onboarding only reads the registry: its result carries the trained estimate,
which the caller uploads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    InsufficientDataError,
    NotReadyError,
    ParameterError,
    array,
    integer,
    real,
    sequence,
)
from .haptic import (
    N_FINGERS,
    HapticTrace,
    ObjectKind,
    ObjectProfile,
    _last_state,
    profiling_trace,
    run_forecaster,
)

__all__ = [
    "Descriptor",
    "GladParams",
    "ProfileRecord",
    "GlobalRegistry",
    "OnboardResult",
    "descriptor_of",
    "upload_profile",
    "match_profile",
    "onboard_machine",
    "run_savings_sweep",
]

Descriptor = tuple[str, int, int]

COLD = "cold"
GLAD = "glad"

# Fewest profiling samples a machine is onboarded from.
MIN_ONBOARDING_SAMPLES = 500

# Profile pool levels, >= 3 quantization bands apart.  Stiffness stays well
# above the forecast tolerance so cold starts are never trivially converged.
_POOL_KINDS = (ObjectKind.RUBBER_BALL, ObjectKind.WOODEN_CUBE, ObjectKind.CIRCULAR_CUBE)
_POOL_STIFFNESS = (0.95, 0.65, 0.35)           # bands 9, 6, 3
_POOL_TEXTURE_HZ = (10.0, 85.0, 160.0, 235.0)  # bands 0, 3, 6, 9
POOL_CAPACITY = len(_POOL_KINDS) * len(_POOL_STIFFNESS) * len(_POOL_TEXTURE_HZ)


@dataclass(frozen=True)
class GladParams:
    """Learning-side knobs of the onboarding and forecasting studies.

    The one home of their defaults and ranges: a value accepted here is one
    the study runners accept, so a bad scenario fails at load.
    """

    accuracy_target: float = 0.95
    window: int = 200
    epsilon: float = 0.05
    onboarding_alpha: float = 0.0055
    alpha_grid: tuple[float, ...] = tuple(round(0.05 * k, 2) for k in range(1, 21))
    kind_pool_size: int = 1
    total_machines: int = 8
    local_ais: int = 2
    profiling_samples: int = 4000
    min_updates_for_upload: int = 200
    match_threshold: float = 0.8
    quant_bands: int = 10
    texture_freq_max_hz: float = 250.0
    add_every: int = 600
    additions: int = 3
    machines_grid: tuple[int, ...] = (1, 2, 4, 8)

    def __post_init__(self):
        # Stored as Python ints.  profiling_samples bounds min_updates_for_upload
        # and is checked first, so a bad one raises before it is used.
        for name, low, high in (
                ("window", 1, None), ("total_machines", 2, None), ("local_ais", 1, None),
                ("add_every", 1, None), ("additions", 0, None), ("quant_bands", 2, None),
                ("profiling_samples", MIN_ONBOARDING_SAMPLES, None),
                ("min_updates_for_upload", 0, self.profiling_samples),
                ("kind_pool_size", 1, POOL_CAPACITY)):
            object.__setattr__(self, name, integer(name, getattr(self, name), ConfigError,
                                                   at_least=low, at_most=high))
        object.__setattr__(self, "machines_grid", tuple(
            integer("machines_grid", m, ConfigError, at_least=1)
            for m in sequence("machines_grid", self.machines_grid, ConfigError, distinct=True)))
        real("epsilon", self.epsilon, above=0, error=ConfigError)
        real("texture_freq_max_hz", self.texture_freq_max_hz, above=0, error=ConfigError)
        real("onboarding_alpha", self.onboarding_alpha, above=0, at_most=1, error=ConfigError)
        real("match_threshold", self.match_threshold, above=0, at_most=1, error=ConfigError)
        real("accuracy_target", self.accuracy_target, above=0, below=1, error=ConfigError)
        for alpha in sequence("alpha_grid", self.alpha_grid, ConfigError, distinct=True):
            real("alpha_grid", alpha, above=0, at_most=1, error=ConfigError)


def descriptor_of(profile: ObjectProfile, glad: GladParams = GladParams()) -> Descriptor:
    """Quantized object signature: (kind, stiffness band, texture band)."""
    bands = glad.quant_bands
    s_band = min(bands - 1, int(profile.stiffness * bands))
    t_band = min(bands - 1, int(profile.texture_freq_hz / glad.texture_freq_max_hz * bands))
    return (profile.kind.value, s_band, t_band)


def _similarity(a: Descriptor, b: Descriptor, glad: GladParams = GladParams()) -> float:
    """1 minus the normalized band distance; 0 for different kinds."""
    if a[0] != b[0]:
        return 0.0
    dist = max(abs(a[1] - b[1]), abs(a[2] - b[2])) / glad.quant_bands
    return max(0.0, 1.0 - dist)


def _descriptor(value) -> Descriptor:
    """`value` if it is a (kind, stiffness band, texture band) triple of a str
    and two integers >= 0, with the bands as Python ints; else ParameterError."""
    if not (isinstance(value, tuple) and len(value) == 3 and isinstance(value[0], str)):
        raise ParameterError(f"descriptor must be a (str, int, int) triple, got {value!r}")
    return (value[0], integer("descriptor stiffness band", value[1], at_least=0),
            integer("descriptor texture band", value[2], at_least=0))


@dataclass(frozen=True, eq=False)
class ProfileRecord:
    """One uploaded (or merged) forecaster profile."""

    descriptor: Descriptor
    profile_estimate: np.ndarray
    sample_count: int

    def __post_init__(self):
        object.__setattr__(self, "descriptor", _descriptor(self.descriptor))
        object.__setattr__(self, "profile_estimate", array(
            "profile_estimate", self.profile_estimate, (N_FINGERS,), at_least=0, at_most=1))
        object.__setattr__(self, "sample_count",
                           integer("sample_count", self.sample_count, above=0))


class GlobalRegistry:
    """Cloud-side profile store: one count-weighted profile per descriptor."""

    def __init__(self):
        self._records: dict[Descriptor, ProfileRecord] = {}

    def all_records(self) -> list[ProfileRecord]:
        return list(self._records.values())

    def add_record(self, record: ProfileRecord) -> ProfileRecord:
        """Fold `record` into its descriptor's profile; returns the held profile."""
        held = self._records.get(record.descriptor)
        if held is not None:
            counts = np.array([held.sample_count, record.sample_count], dtype=float)
            estimates = np.array([held.profile_estimate, record.profile_estimate])
            record = ProfileRecord(
                descriptor=record.descriptor,
                profile_estimate=counts @ estimates / counts.sum(),
                sample_count=int(counts.sum()),
            )
        self._records[record.descriptor] = record
        return record


def match_profile(registry: GlobalRegistry, descriptor: Descriptor, *,
                  glad: GladParams = GladParams()) -> tuple[ProfileRecord | None, float]:
    """Best same-kind record by signature similarity, if it clears the threshold.

    Returns (record, similarity) on a match and (None, best similarity found)
    otherwise; an empty registry yields (None, 0.0).
    """
    descriptor = _descriptor(descriptor)
    best: ProfileRecord | None = None
    best_sim = 0.0
    for record in registry.all_records():
        sim = _similarity(descriptor, record.descriptor, glad)
        if sim > best_sim:
            best, best_sim = record, sim
    if best is not None and best_sim >= glad.match_threshold:
        return best, best_sim
    return None, best_sim


@dataclass(frozen=True, eq=False)
class OnboardResult:
    """Iterations a fresh machine needed to reach the accuracy target, and
    the profile it learned: the final estimate clipped to [0, 1] and the
    number of updates behind it."""

    iterations: int
    converged: bool
    match_similarity: float
    profile_estimate: np.ndarray
    updates: int


def upload_profile(registry: GlobalRegistry, profile: ObjectProfile,
                   result: OnboardResult, *,
                   glad: GladParams = GladParams()) -> ProfileRecord:
    """Fold one machine's trained profile into the registry; returns the held profile."""
    if result.updates < glad.min_updates_for_upload:
        raise NotReadyError(
            f"profile has {result.updates} updates, needs >= {glad.min_updates_for_upload}"
        )
    record = ProfileRecord(
        descriptor=descriptor_of(profile, glad),
        profile_estimate=result.profile_estimate,
        sample_count=result.updates,
    )
    return registry.add_record(record)


def _warm_start(registry: GlobalRegistry, profile: ObjectProfile, mode: str,
                glad: GladParams) -> tuple[np.ndarray, float]:
    """Initial estimate of a new machine, and the best match similarity.

    Glad mode starts from the best matching record's estimate; cold mode,
    and glad mode without a match, start from zeros.
    """
    if mode == GLAD:
        record, match_sim = match_profile(registry, descriptor_of(profile, glad), glad=glad)
        if record is not None:
            return record.profile_estimate, match_sim
        return np.zeros(N_FINGERS), match_sim
    return np.zeros(N_FINGERS), 0.0


def _iterations_to_target(hits: np.ndarray, target: float, window: int) -> tuple[int, bool]:
    """First iteration whose trailing `window` accuracy reaches `target`.

    Returns (len(hits), False) when the target is never reached; iterations
    are 1-based counts of consumed samples, so the floor is `window`.
    """
    if hits.size >= window:
        cums = np.concatenate(([0], np.cumsum(hits)))
        windowed = (cums[window:] - cums[:-window]) / window
        reached = np.nonzero(windowed >= target)[0]
        if reached.size:
            return int(reached[0]) + window, True
    return int(hits.size), False


def onboard_machine(profile: ObjectProfile, registry: GlobalRegistry, mode: str,
                    trace: HapticTrace, glad: GladParams = GladParams()) -> OnboardResult:
    """Train a new machine's forecaster over `trace` and record convergence.

    Cold mode starts from a zero estimate; glad mode warm-starts from the
    best matching global profile and falls back to cold when none matches.
    The forecaster steps with `glad.onboarding_alpha` and `glad.epsilon`;
    convergence is `glad.accuracy_target` over a `glad.window` window.
    """
    if mode not in (COLD, GLAD):
        raise ParameterError(f"mode must be '{COLD}' or '{GLAD}', got {mode!r}")
    if len(trace) < MIN_ONBOARDING_SAMPLES:
        raise InsufficientDataError(
            f"onboarding needs >= {MIN_ONBOARDING_SAMPLES} touch samples, got {len(trace)}"
        )

    initial, match_sim = _warm_start(registry, profile, mode, glad)
    alpha, epsilon = glad.onboarding_alpha, glad.epsilon
    hits = run_forecaster(trace, alpha, epsilon, initial_estimate=initial)
    iterations, converged = _iterations_to_target(hits, glad.accuracy_target, glad.window)
    estimate = _last_state(trace.amplitude, alpha, initial)
    return OnboardResult(
        iterations=iterations,
        converged=converged,
        match_similarity=match_sim,
        profile_estimate=np.clip(estimate, 0.0, 1.0),
        updates=len(trace),
    )


def _make_profile_pool(size: int) -> list[ObjectProfile]:
    """`size` mutually non-matching object profiles (distinct descriptors).

    Kinds and quantization bands are spread so any two pool entries fall
    below the default matching threshold.
    """
    kinds, stiffness, texture = _POOL_KINDS, _POOL_STIFFNESS, _POOL_TEXTURE_HZ
    pool = []
    for i in range(size):
        kind = kinds[i % len(kinds)]
        s = stiffness[(i // len(kinds)) % len(stiffness)]
        t = texture[(i // (len(kinds) * len(stiffness))) % len(texture)]
        pool.append(ObjectProfile(
            kind=kind,
            center=np.zeros(3),
            extent_cm=4.0 + (i % 3),
            stiffness=s,
            texture_freq_hz=t,
        ))
    return pool


def run_savings_sweep(glad: GladParams, seed: int) -> list[tuple[int, float]]:
    """Sequential onboarding study: mean training time saved vs machines present.

    Machines draw objects from a finite profile pool and are onboarded one at
    a time.  Each onboarding runs both modes on the same trace.  The cold
    start contributes only its convergence, so it runs the forecaster alone;
    the glad machine is onboarded and its profile (its `profiling_samples`
    updates meet `min_updates_for_upload`, which `GladParams` checks) is
    uploaded into the registry.  Returns the running mean of saved_pct after
    each machine.
    """
    seed = integer("seed", seed, at_least=0)
    pool = _make_profile_pool(glad.kind_pool_size)
    registry = GlobalRegistry()
    seeds = np.random.SeedSequence(seed).generate_state(glad.total_machines)

    saved: list[float] = []
    curve: list[tuple[int, float]] = []
    for m in range(glad.total_machines):
        profile = pool[m % glad.kind_pool_size]
        trace = profiling_trace(profile, glad.profiling_samples, int(seeds[m]))

        cold_hits = run_forecaster(trace, glad.onboarding_alpha, glad.epsilon)
        t_cold, _ = _iterations_to_target(cold_hits, glad.accuracy_target, glad.window)
        warm = onboard_machine(profile, registry, GLAD, trace, glad)
        # The percentage of cold-start iterations the warm start avoided.
        saved.append(100.0 * (1.0 - warm.iterations / t_cold))

        upload_profile(registry, profile, warm, glad=glad)
        curve.append((m + 1, float(np.mean(saved))))
    return curve
