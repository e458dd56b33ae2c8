"""Synthetic H2M/R sessions, touch classification, and feedback forecasting.

A session couples a glove control stream (hand pose, orientation, finger
pressures at generalized-Pareto arrival instants) with the haptic feedback
the virtual object returns while touched.  The feedback law is geometric:
amplitude = stiffness * (1 - distance/extent), modulated by a texture
sinusoid whose depth vanishes at the object center, clamped to [0, 1].

The forecaster is the constant-step-size recency-weighted estimator
    estimate <- estimate + alpha * (observed - estimate)
applied elementwise to the five-finger amplitude vector.  States are values;
updates return new states, so callers can parallelize across machines.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    ParameterError,
)
from .traffic import GpdParams, generate_stream

__all__ = [
    "ObjectKind",
    "ControlSample",
    "HapticSample",
    "ObjectProfile",
    "ForecasterState",
    "TouchClassifier",
    "standard_profile",
    "touch_amplitude",
    "generate_session",
    "profiling_trace",
    "label_touch",
    "train_classifier",
    "forecaster_update",
    "forecast_feedback",
    "run_forecaster",
    "cumulative_accuracy",
    "cumulative_accuracy_series",
    "estimate_tau",
    "optimize_alpha",
]

N_FINGERS = 5

# The classifier's distance feature is measured from this point; default
# object profiles are centered here so the feature separates the classes.
PRESUMED_ORIGIN = np.zeros(3)

# Texture modulation depth at the object surface (scales with distance).
TEXTURE_DEPTH = 0.3

# Hand approach/retreat period for free-motion sessions, in microseconds.
TRAJECTORY_PERIOD_US = 1.0e6


class ObjectKind(enum.Enum):
    RUBBER_BALL = "rubber_ball"
    WOODEN_CUBE = "wooden_cube"
    CIRCULAR_CUBE = "circular_cube"
    CUSTOM = "custom"


def _vector(value, size: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (size,):
        raise ParameterError(f"{name} must be a {size}-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class ControlSample:
    """One glove snapshot: time, hand pose and per-finger pressure."""

    t_us: float
    hand_pos: np.ndarray
    hand_orient: np.ndarray
    finger_pressure: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "hand_pos", _vector(self.hand_pos, 3, "hand_pos"))
        object.__setattr__(self, "hand_orient", _vector(self.hand_orient, 3, "hand_orient"))
        pressure = _vector(self.finger_pressure, N_FINGERS, "finger_pressure")
        if np.any(pressure < 0.0) or np.any(pressure > 1.0):
            raise ParameterError("finger pressures must lie in [0, 1]")
        object.__setattr__(self, "finger_pressure", pressure)


@dataclass(frozen=True)
class HapticSample:
    """One feedback snapshot: per-finger amplitude in [0, 1]."""

    t_us: float
    amplitude: np.ndarray

    def __post_init__(self):
        amp = _vector(self.amplitude, N_FINGERS, "amplitude")
        if np.any(amp < 0.0) or np.any(amp > 1.0):
            raise ParameterError("amplitudes must lie in [0, 1]")
        object.__setattr__(self, "amplitude", amp)


@dataclass(frozen=True)
class ObjectProfile:
    """Geometry and feedback signature of one virtual object."""

    object_id: str
    kind: ObjectKind
    center: np.ndarray
    extent_cm: float
    stiffness: float
    texture_freq_hz: float

    def __post_init__(self):
        object.__setattr__(self, "center", _vector(self.center, 3, "center"))
        if self.extent_cm <= 0:
            raise ParameterError(f"extent must be > 0, got {self.extent_cm}")
        if not (0.0 < self.stiffness <= 1.0):
            raise ParameterError(f"stiffness must lie in (0, 1], got {self.stiffness}")
        if self.texture_freq_hz < 0:
            raise ParameterError(f"texture_freq must be >= 0, got {self.texture_freq_hz}")


_STANDARD_PROFILES = {
    ObjectKind.RUBBER_BALL: dict(extent_cm=5.0, stiffness=0.8, texture_freq_hz=30.0),
    ObjectKind.WOODEN_CUBE: dict(extent_cm=4.0, stiffness=0.95, texture_freq_hz=80.0),
    ObjectKind.CIRCULAR_CUBE: dict(extent_cm=4.5, stiffness=0.9, texture_freq_hz=55.0),
}


def standard_profile(kind: ObjectKind, object_id: str | None = None) -> ObjectProfile:
    """A ready-made profile for one of the named test objects."""
    if kind not in _STANDARD_PROFILES:
        raise ParameterError(f"no standard profile for kind {kind}")
    spec = _STANDARD_PROFILES[kind]
    return ObjectProfile(
        object_id=object_id or kind.value,
        kind=kind,
        center=np.zeros(3),
        **spec,
    )


@dataclass(frozen=True)
class ForecasterState:
    """Recency-weighted feedback estimate for one machine/robot."""

    profile_estimate: np.ndarray
    alpha_local: float
    updates_seen: int = 0

    def __post_init__(self):
        est = _vector(self.profile_estimate, N_FINGERS, "profile_estimate")
        object.__setattr__(self, "profile_estimate", est)
        if not (0.0 < self.alpha_local <= 1.0):
            raise ParameterError(f"alpha_local must lie in (0, 1], got {self.alpha_local}")
        if self.updates_seen < 0:
            raise ParameterError("updates_seen must be >= 0")


# ---------------------------------------------------------------------------
# Session synthesis
# ---------------------------------------------------------------------------


def touch_amplitude(profile: ObjectProfile, hand_pos, t_us: float) -> np.ndarray:
    """Feedback amplitude vector for a hand at `hand_pos`; zeros when clear.

    At the center the modulation factor is exactly 1, so the amplitude equals
    the stiffness on every finger; it falls linearly to zero at the extent.
    """
    pos = _vector(hand_pos, 3, "hand_pos")
    dist = float(np.linalg.norm(pos - profile.center))
    if dist > profile.extent_cm:
        return np.zeros(N_FINGERS)
    rel = dist / profile.extent_cm
    base = profile.stiffness * (1.0 - rel)
    phases = np.arange(N_FINGERS) * (math.pi / N_FINGERS)
    ripple = TEXTURE_DEPTH * rel * np.sin(
        2.0 * math.pi * profile.texture_freq_hz * t_us * 1e-6 + phases
    )
    return np.clip(base * (1.0 + ripple), 0.0, 1.0)


def _smooth_noise(rng: np.random.Generator, n: int, persistence: float = 0.98) -> np.ndarray:
    """AR(1)-filtered white noise with unit-ish scale."""
    shocks = rng.normal(0.0, math.sqrt(1.0 - persistence**2), size=n)
    out = np.empty(n)
    acc = 0.0
    for i in range(n):
        acc = persistence * acc + shocks[i]
        out[i] = acc
    return out


def generate_session(profile: ObjectProfile, duration_us: float,
                     control_params: GpdParams, seed: int,
                     pin_at=None) -> tuple[list[ControlSample], list[HapticSample]]:
    """Synthesize one interaction session.

    The hand repeatedly approaches and retreats from the object along a
    smooth, seeded trajectory; a control sample is emitted at each traffic
    arrival and a haptic sample whenever the hand is within the extent.
    `pin_at` freezes the hand at a fixed position instead (useful for
    boundary checks).  Deterministic in `seed`.
    """
    if duration_us <= 0:
        raise ParameterError(f"duration must be > 0, got {duration_us}")
    stream = generate_stream(control_params, duration_us, seed)
    times = stream.timestamps
    n = times.size
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xC0FFEE))))

    if n == 0:
        return [], []

    if pin_at is not None:
        positions = np.tile(_vector(pin_at, 3, "pin_at"), (n, 1))
    else:
        # Radial distance oscillates between deep touch and well clear of the
        # object; direction drifts slowly on the unit sphere.
        phase = 2.0 * math.pi * times / TRAJECTORY_PERIOD_US
        radius = profile.extent_cm * (
            1.05 + 1.15 * np.cos(phase) + 0.08 * _smooth_noise(rng, n)
        )
        radius = np.clip(radius, 0.0, None)
        azimuth = 2.0 * math.pi * times / (3.0 * TRAJECTORY_PERIOD_US)
        polar = math.pi / 3.0 + 0.2 * _smooth_noise(rng, n)
        direction = np.stack(
            [np.sin(polar) * np.cos(azimuth),
             np.sin(polar) * np.sin(azimuth),
             np.cos(polar)],
            axis=1,
        )
        positions = profile.center + direction * radius[:, None]

    orient_noise = np.stack([_smooth_noise(rng, n) for _ in range(3)], axis=1)
    orientations = 0.5 * orient_noise

    distances = np.linalg.norm(positions - profile.center, axis=1)
    touching = distances <= profile.extent_cm

    pressure_noise = rng.random((n, N_FINGERS))
    controls: list[ControlSample] = []
    haptics: list[HapticSample] = []
    for i in range(n):
        t = float(times[i])
        if touching[i]:
            amp = touch_amplitude(profile, positions[i], t)
            pressure = np.clip(amp * (0.7 + 0.3 * pressure_noise[i]), 0.0, 1.0)
            haptics.append(HapticSample(t_us=t, amplitude=amp))
        else:
            pressure = 0.05 * pressure_noise[i]
        controls.append(ControlSample(
            t_us=t,
            hand_pos=positions[i],
            hand_orient=orientations[i],
            finger_pressure=pressure,
        ))
    return controls, haptics


def profiling_trace(profile: ObjectProfile, n_samples: int, seed: int, *,
                    hold_fraction: float = 0.06, wobble: float = 0.012,
                    wobble_persistence: float = 0.995,
                    noise_std: float = 0.0,
                    sample_period_us: float = 1000.0) -> list[HapticSample]:
    """Feedback trace of a steady grasp, for forecaster profiling.

    The hand holds near the object center (at `hold_fraction` of the extent)
    with a slow seeded wobble, producing the near-stationary amplitude
    sequence a forecaster profiles from.  `wobble_persistence` sets how
    slowly the wobble drifts, which controls the trace's autocorrelation;
    `noise_std` adds per-sample sensor noise on top of the geometric law.
    """
    if n_samples <= 0:
        raise ParameterError(f"n_samples must be > 0, got {n_samples}")
    if noise_std < 0:
        raise ParameterError(f"noise_std must be >= 0, got {noise_std}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x9A9))))
    drift = _smooth_noise(rng, n_samples, persistence=wobble_persistence)
    rel = np.clip(hold_fraction + wobble * drift, 0.0, 0.95)
    direction = np.array([1.0, 0.0, 0.0])
    samples = []
    for i in range(n_samples):
        t = i * sample_period_us
        pos = profile.center + direction * (rel[i] * profile.extent_cm)
        amp = touch_amplitude(profile, pos, t)
        if noise_std > 0.0:
            amp = np.clip(amp + rng.normal(0.0, noise_std, size=N_FINGERS), 0.0, 1.0)
        samples.append(HapticSample(t_us=t, amplitude=amp))
    return samples


# ---------------------------------------------------------------------------
# Touch classification
# ---------------------------------------------------------------------------


def label_touch(sample: ControlSample, profile: ObjectProfile) -> bool:
    """Geometric touch oracle: hand within the object extent (closed ball)."""
    dist = float(np.linalg.norm(sample.hand_pos - profile.center))
    return dist <= profile.extent_cm


def _features(samples) -> np.ndarray:
    rows = np.empty((len(samples), 12))
    for i, s in enumerate(samples):
        rows[i, 0:3] = s.hand_pos
        rows[i, 3:6] = s.hand_orient
        rows[i, 6:11] = s.finger_pressure
        rows[i, 11] = np.linalg.norm(s.hand_pos - PRESUMED_ORIGIN)
    return rows


class TouchClassifier:
    """Linear logistic discriminant over glove features.

    Trained by full-batch gradient descent on the logistic loss (fixed epoch
    count and step size, features standardized), so fits are deterministic.
    """

    def __init__(self, epochs: int = 500, step: float = 0.1):
        self.epochs = epochs
        self.step = step
        self.weights: np.ndarray | None = None
        self.bias: float = 0.0
        self._mu: np.ndarray | None = None
        self._sigma: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "TouchClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        self._mu = X.mean(axis=0)
        sigma = X.std(axis=0)
        sigma[sigma == 0.0] = 1.0
        self._sigma = sigma
        Z = (X - self._mu) / self._sigma
        n = Z.shape[0]
        w = np.zeros(Z.shape[1])
        b = 0.0
        for _ in range(self.epochs):
            margin = Z @ w + b
            prob = 1.0 / (1.0 + np.exp(-margin))
            err = prob - y
            w -= self.step * (Z.T @ err) / n
            b -= self.step * float(err.mean())
        self.weights = w
        self.bias = b
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise ParameterError("classifier is not fitted")
        Z = (np.asarray(X, dtype=float) - self._mu) / self._sigma
        return Z @ self.weights + self.bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.decision_function(X) > 0.0

    def classify(self, sample: ControlSample) -> bool:
        return bool(self.predict(_features([sample]))[0])


def train_classifier(dataset, train_fraction: float,
                     seed: int = 0) -> tuple[TouchClassifier, float]:
    """Train the touch/no-touch discriminator on labeled control samples.

    `dataset` is a sequence of (ControlSample, bool) pairs.  The split is a
    seeded shuffle; the returned accuracy is measured on the held-out part.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ParameterError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    if len(dataset) < 100:
        raise InsufficientDataError(f"need >= 100 labeled samples, got {len(dataset)}")
    samples = [s for s, _ in dataset]
    labels = np.array([bool(l) for _, l in dataset])
    if labels.all() or not labels.any():
        raise DegenerateDataError("dataset contains a single class")

    X = _features(samples)
    order = np.random.Generator(np.random.PCG64(seed)).permutation(len(dataset))
    n_train = int(len(dataset) * train_fraction)
    train_idx, valid_idx = order[:n_train], order[n_train:]
    if labels[train_idx].all() or not labels[train_idx].any():
        raise DegenerateDataError("training split contains a single class")

    clf = TouchClassifier().fit(X[train_idx], labels[train_idx])
    predictions = clf.predict(X[valid_idx])
    accuracy = float(np.mean(predictions == labels[valid_idx]))
    return clf, accuracy


# ---------------------------------------------------------------------------
# Forecasting
# ---------------------------------------------------------------------------


def forecaster_update(state: ForecasterState, observed: HapticSample) -> ForecasterState:
    """One recency-weighted update toward the observed amplitude vector.

    Computed as the convex combination (1-a)*estimate + a*observed so that
    alpha = 1 replaces the estimate exactly.
    """
    a = state.alpha_local
    estimate = (1.0 - a) * state.profile_estimate + a * observed.amplitude
    return replace(state, profile_estimate=estimate,
                   updates_seen=state.updates_seen + 1)


def forecast_feedback(state: ForecasterState, control: ControlSample,
                      classifier: TouchClassifier) -> HapticSample | None:
    """Forecast feedback for a control sample, or None when no touch is predicted."""
    if classifier.weights is None:
        raise ParameterError("classifier must be trained before forecasting")
    if not classifier.classify(control):
        return None
    return HapticSample(t_us=control.t_us,
                        amplitude=np.clip(state.profile_estimate, 0.0, 1.0))


def _hits(forecasts: np.ndarray, actuals: np.ndarray, epsilon: float) -> np.ndarray:
    """Per-row hit flags: the max-norm forecast error is at most `epsilon`."""
    return np.max(np.abs(forecasts - actuals), axis=1) <= epsilon


def _forecast(x: np.ndarray, alpha: float, epsilon: float,
              estimate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forecast-then-update over an (n, 5) amplitude matrix: (hits, final estimate)."""
    forecasts = np.empty_like(x)
    for i, observed in enumerate(x):
        forecasts[i] = estimate
        estimate = (1.0 - alpha) * estimate + alpha * observed
    return _hits(forecasts, x, epsilon), estimate


def run_forecaster(trace, alpha: float, epsilon: float,
                   initial_estimate=None) -> np.ndarray:
    """Forecast-then-update over a haptic trace; returns the per-step hit flags.

    `trace` is samples or an (n, 5) amplitude matrix.  A step is a hit when the
    max-norm error of its forecast (the current estimate) is at most `epsilon`.
    """
    if epsilon <= 0:
        raise ParameterError(f"epsilon must be > 0, got {epsilon}")
    initial = np.zeros(N_FINGERS) if initial_estimate is None else initial_estimate
    state = ForecasterState(profile_estimate=initial, alpha_local=alpha)
    hits, _ = _forecast(_amplitude_matrix(trace), alpha, epsilon, state.profile_estimate)
    return hits


def _amplitude_matrix(samples) -> np.ndarray:
    if isinstance(samples, np.ndarray):
        arr = np.asarray(samples, dtype=float)
        return arr.reshape(arr.shape[0], -1)
    return np.array([s.amplitude for s in samples], dtype=float).reshape(-1, N_FINGERS)


def cumulative_accuracy_series(forecasts, actuals, epsilon: float) -> np.ndarray:
    """Running fraction of aligned pairs whose max-norm error is <= epsilon."""
    if epsilon <= 0:
        raise ParameterError(f"epsilon must be > 0, got {epsilon}")
    f = _amplitude_matrix(forecasts)
    a = _amplitude_matrix(actuals)
    if f.shape != a.shape:
        raise ParameterError(f"sequences are not aligned: {f.shape} vs {a.shape}")
    if f.shape[0] == 0:
        raise ParameterError("sequences must be nonempty")
    hits = _hits(f, a, epsilon)
    return np.cumsum(hits) / np.arange(1, hits.size + 1)


def cumulative_accuracy(forecasts, actuals, epsilon: float) -> float:
    """Final cumulative accuracy over the whole aligned sequence."""
    return float(cumulative_accuracy_series(forecasts, actuals, epsilon)[-1])


def estimate_tau(haptic_trace) -> float:
    """Lag-1 Pearson autocorrelation of the mean-amplitude sequence."""
    x = _amplitude_matrix(haptic_trace).mean(axis=1)
    if x.size < 3:
        raise InsufficientDataError(f"need >= 3 samples, got {x.size}")
    if np.ptp(x) == 0.0:
        raise DegenerateDataError("trace is constant; autocorrelation undefined")
    r = float(np.corrcoef(x[:-1], x[1:])[0, 1])
    return float(np.clip(r, -1.0, 1.0))


def optimize_alpha(trace, alpha_grid, epsilon: float = 0.05) -> float:
    """Grid value maximizing the final cumulative forecast accuracy.

    Each candidate runs a fresh zero-initialized forecaster over the trace.
    Ties break toward the smaller alpha.
    """
    grid = sorted(float(a) for a in alpha_grid)
    if not grid:
        raise ParameterError("alpha_grid must be nonempty")
    if any(not (0.0 < a <= 1.0) for a in grid):
        raise ParameterError("alpha_grid values must lie in (0, 1]")
    if len(trace) < 100:
        raise InsufficientDataError(f"need >= 100 touch samples, got {len(trace)}")
    x = _amplitude_matrix(trace)
    best_alpha, best_acc = grid[0], -1.0
    for alpha in grid:
        acc = float(run_forecaster(x, alpha, epsilon).mean())
        if acc > best_acc:
            best_alpha, best_acc = alpha, acc
    return best_alpha
