"""Synthetic H2M/R sessions, touch classification, and feedback forecasting.

A session couples a glove control stream (hand pose, orientation, finger
pressures at generalized-Pareto arrival instants) with the haptic feedback
the virtual object returns while touched.  The feedback law is geometric:
amplitude = stiffness * (1 - distance/extent), modulated by a texture
sinusoid whose depth vanishes at the object center, clamped to [0, 1].

The forecaster is the constant-step-size recency-weighted estimator
    estimate <- estimate + alpha * (observed - estimate)
applied elementwise to the five-finger amplitude vector, over a whole trace
at once.  It is the first-order recursion y <- (1 - alpha) * y + alpha * x,
and two routes evaluate it:

* States come only from `_first_order`, the exact kernel: the forecaster's
  final estimates (`_forecast`) and the AR(1) noise behind sessions and
  profiling traces.  It steps in Python floats, one list comprehension per
  column, because they round each product and sum as numpy's elementwise
  operations do and so keep the report bytes; see its docstring.
* Hit decisions come from `_forecast_hits`: `run_forecaster`, and through
  it `optimize_alpha` and `onboard_machine`, and the accuracy-decay curve.
  It evaluates the recursion in blocks of B = max(2, ceil(sqrt(n) / 2))
  steps, all blocks at once.  Bounding the rounding error of that pass and
  of the exact one (Higham, Accuracy and Stability of Numerical Algorithms,
  ch. 3) shows that a row's max-norm forecast error differs between them by
  less than delta = 16 u M (n + 2B + 2), with u = 2^-53 and M = max(1,
  |estimate|_inf).  A row whose blocked error lies farther than delta from
  epsilon is therefore decided as the exact pass decides it; if any row
  lies within delta, the call returns the exact pass's hits.  So the hits,
  and every report byte, are the exact kernel's.

Sessions and traces are columns, validated once, not one object per sample.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDataError,
    InsufficientDataError,
    ParameterError,
    integer,
)
from .traffic import GpdParams, generate_stream

__all__ = [
    "ObjectKind",
    "ControlTrace",
    "HapticSample",
    "HapticTrace",
    "ObjectProfile",
    "TouchClassifier",
    "standard_profile",
    "generate_session",
    "profiling_trace",
    "label_touch",
    "train_classifier",
    "run_forecaster",
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

# Profiling grasps: hand distance from the center as a fraction of the
# extent, and the sampling period in microseconds.
GRASP_DISTANCE = 0.06
PROFILING_PERIOD_US = 1000.0

# Full-batch gradient descent of the touch classifier: epochs and step size.
CLASSIFIER_EPOCHS = 500
CLASSIFIER_STEP = 0.1


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
class HapticSample:
    """One feedback snapshot: per-finger amplitude in [0, 1]."""

    t_us: float
    amplitude: np.ndarray


@dataclass(frozen=True, eq=False)
class HapticTrace(Sequence):
    """Feedback samples as columns: times (n,) and per-finger amplitudes (n, 5).

    Validated once on construction: shapes, finite values, non-decreasing
    times and amplitudes in [0, 1].  An integer index returns that row as a
    `HapticSample`; a slice returns a `HapticTrace`.
    """

    t_us: np.ndarray
    amplitude: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_us, dtype=float)
        amp = np.asarray(self.amplitude, dtype=float)
        if amp.ndim != 2 or amp.shape[1] != N_FINGERS:
            raise ParameterError(f"amplitude must be (n, {N_FINGERS}), got shape {amp.shape}")
        if t.shape != (amp.shape[0],):
            raise ParameterError(f"t_us must be ({amp.shape[0]},), got shape {t.shape}")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(amp))):
            raise ParameterError("trace must be finite")
        if np.any(t[1:] < t[:-1]):
            raise ParameterError("t_us must be non-decreasing")
        if np.any(amp < 0.0) or np.any(amp > 1.0):
            raise ParameterError("amplitudes must lie in [0, 1]")
        object.__setattr__(self, "t_us", t)
        object.__setattr__(self, "amplitude", amp)

    def __len__(self) -> int:
        return self.t_us.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return HapticTrace(t_us=self.t_us[index], amplitude=self.amplitude[index])
        return HapticSample(t_us=float(self.t_us[index]), amplitude=self.amplitude[index])


@dataclass(frozen=True, eq=False)
class ControlTrace:
    """Glove snapshots as columns: times (n,), hand positions (n, 3), hand
    orientations (n, 3) and per-finger pressures (n, 5).

    Validated once on construction: shapes, finite values, pressures in [0, 1].
    """

    t_us: np.ndarray
    hand_pos: np.ndarray
    hand_orient: np.ndarray
    finger_pressure: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_us, dtype=float)
        if t.ndim != 1:
            raise ParameterError(f"t_us must be (n,), got shape {t.shape}")
        object.__setattr__(self, "t_us", t)
        for name, width in (("hand_pos", 3), ("hand_orient", 3),
                            ("finger_pressure", N_FINGERS)):
            col = np.asarray(getattr(self, name), dtype=float)
            if col.shape != (t.shape[0], width):
                raise ParameterError(f"{name} must be ({t.shape[0]}, {width}), "
                                     f"got shape {col.shape}")
            object.__setattr__(self, name, col)
        if not all(np.all(np.isfinite(col)) for col in
                   (self.t_us, self.hand_pos, self.hand_orient, self.finger_pressure)):
            raise ParameterError("trace must be finite")
        if np.any(self.finger_pressure < 0.0) or np.any(self.finger_pressure > 1.0):
            raise ParameterError("finger pressures must lie in [0, 1]")

    def __len__(self) -> int:
        return self.t_us.shape[0]


@dataclass(frozen=True)
class ObjectProfile:
    """Geometry and feedback signature of one virtual object."""

    kind: ObjectKind
    center: np.ndarray
    extent_cm: float
    stiffness: float
    texture_freq_hz: float

    def __post_init__(self):
        object.__setattr__(self, "center", _vector(self.center, 3, "center"))
        if not (math.isfinite(self.extent_cm) and self.extent_cm > 0):
            raise ParameterError(f"extent_cm must be finite and > 0, got {self.extent_cm}")
        if not (0.0 < self.stiffness <= 1.0):
            raise ParameterError(f"stiffness must lie in (0, 1], got {self.stiffness}")
        if not (math.isfinite(self.texture_freq_hz) and self.texture_freq_hz >= 0):
            raise ParameterError(
                f"texture_freq_hz must be finite and >= 0, got {self.texture_freq_hz}")


_STANDARD_PROFILES = {
    ObjectKind.RUBBER_BALL: dict(extent_cm=5.0, stiffness=0.8, texture_freq_hz=30.0),
    ObjectKind.WOODEN_CUBE: dict(extent_cm=4.0, stiffness=0.95, texture_freq_hz=80.0),
    ObjectKind.CIRCULAR_CUBE: dict(extent_cm=4.5, stiffness=0.9, texture_freq_hz=55.0),
}


def standard_profile(kind: ObjectKind) -> ObjectProfile:
    """A ready-made profile for one of the named test objects."""
    if kind not in _STANDARD_PROFILES:
        raise ParameterError(f"no standard profile for kind {kind}")
    return ObjectProfile(kind=kind, center=np.zeros(3), **_STANDARD_PROFILES[kind])


# ---------------------------------------------------------------------------
# Session synthesis
# ---------------------------------------------------------------------------


def _feedback(profile: ObjectProfile, dist: np.ndarray, t_us: np.ndarray) -> np.ndarray:
    """The feedback law over rows: (n,) distances and times -> (n, 5) amplitudes.

    At the center the modulation factor is exactly 1, so the amplitude equals
    the stiffness on every finger; it falls linearly to zero at the extent
    and is zero beyond it.
    """
    rel = dist / profile.extent_cm
    base = profile.stiffness * (1.0 - rel)
    phases = np.arange(N_FINGERS) * (math.pi / N_FINGERS)
    ripple = TEXTURE_DEPTH * rel[:, None] * np.sin(
        2.0 * math.pi * profile.texture_freq_hz * t_us[:, None] * 1e-6 + phases
    )
    amp = np.clip(base[:, None] * (1.0 + ripple), 0.0, 1.0)
    amp[dist > profile.extent_cm] = 0.0
    return amp


def _first_order(c: float, u: np.ndarray, y0) -> np.ndarray:
    """y[0] = y0, y[k+1] = c * y[k] + u[k], per column of `u`: the n + 1 values of y.

    The one producer of recursion states: forecaster estimates and AR(1)
    noise.  Hit decisions take the blocked pass of `_forecast_hits`, whose
    values are close to these but not bit-equal.

    `u` is (n,) or (n, k) and `y0` a scalar or a k-vector; the result has
    the shape of `u` with one more row.  Each column runs as a list
    comprehension over Python floats, written into one preallocated output.
    Python floats round the product and the sum separately, with no fused
    multiply-add, exactly as numpy's elementwise multiply and add do, so
    every value has the same bits as a loop of numpy steps.  That loop would
    pay a microsecond or so of ufunc dispatch per step; an FMA, or a closed
    form over powers of c, would round differently and change report bytes.
    """
    c = float(c)
    cols = u if u.ndim == 2 else u[:, None]
    n = cols.shape[0]
    y = np.empty((n + 1, cols.shape[1]))
    y[0] = y0
    for j, (col, e) in enumerate(zip(cols.T.tolist(), y[0].tolist())):
        y[1:, j] = np.fromiter([e := c * e + s for s in col], float, n)
    return y if u.ndim == 2 else y[:, 0]


def _smooth_noise(rng: np.random.Generator, n: int, persistence: float = 0.98) -> np.ndarray:
    """AR(1)-filtered white noise with unit-ish scale."""
    shocks = rng.normal(0.0, math.sqrt(1.0 - persistence**2), size=n)
    return _first_order(persistence, shocks, 0.0)[1:]


def generate_session(profile: ObjectProfile, duration_us: float,
                     control_params: GpdParams, seed: int) -> tuple[ControlTrace, HapticTrace]:
    """Synthesize one interaction session.

    The hand repeatedly approaches and retreats from the object along a
    smooth, seeded trajectory; a control sample is emitted at each traffic
    arrival and a haptic sample whenever the hand is within the extent.
    Deterministic in `seed`.
    """
    if not (math.isfinite(duration_us) and duration_us > 0):
        raise ParameterError(f"duration_us must be finite and > 0, got {duration_us}")
    stream = generate_stream(control_params, duration_us, seed)
    times = stream.timestamps
    n = times.size
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xC0FFEE))))

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
    amplitude = _feedback(profile, distances[touching], times[touching])

    pressure_noise = rng.random((n, N_FINGERS))
    pressure = 0.05 * pressure_noise
    pressure[touching] = np.clip(amplitude * (0.7 + 0.3 * pressure_noise[touching]), 0.0, 1.0)
    controls = ControlTrace(t_us=times, hand_pos=positions, hand_orient=orientations,
                            finger_pressure=pressure)
    return controls, HapticTrace(t_us=times[touching], amplitude=amplitude)


def profiling_trace(profile: ObjectProfile, n_samples: int, seed: int, *,
                    wobble: float = 0.012, wobble_persistence: float = 0.995,
                    noise_std: float = 0.0) -> HapticTrace:
    """Feedback trace of a steady grasp, for forecaster profiling.

    The hand holds near the object center (at `GRASP_DISTANCE` of the
    extent, one sample every `PROFILING_PERIOD_US`) with a slow seeded
    wobble, producing the near-stationary amplitude sequence a forecaster
    profiles from.  `wobble_persistence` sets how slowly the wobble drifts,
    which controls the trace's autocorrelation; `noise_std` adds per-sample
    sensor noise on top of the geometric law.
    """
    if integer("n_samples", n_samples) <= 0:
        raise ParameterError(f"n_samples must be > 0, got {n_samples}")
    if not (math.isfinite(noise_std) and noise_std >= 0):
        raise ParameterError(f"noise_std must be finite and >= 0, got {noise_std}")
    if not -1.0 <= wobble_persistence <= 1.0:
        raise ParameterError(f"wobble_persistence must lie in [-1, 1], got {wobble_persistence}")
    if not (math.isfinite(wobble) and wobble >= 0):
        raise ParameterError(f"wobble must be finite and >= 0, got {wobble}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x9A9))))
    drift = _smooth_noise(rng, n_samples, persistence=wobble_persistence)
    rel = np.clip(GRASP_DISTANCE + wobble * drift, 0.0, 0.95)
    t = np.arange(n_samples) * PROFILING_PERIOD_US
    # Positions lie on one axis through the center, where the row norm equals
    # the 1-D norm of each position exactly.
    pos = profile.center + np.array([1.0, 0.0, 0.0]) * (rel * profile.extent_cm)[:, None]
    amp = _feedback(profile, np.linalg.norm(pos - profile.center, axis=1), t)
    if noise_std > 0.0:
        amp = np.clip(amp + rng.normal(0.0, noise_std, size=(n_samples, N_FINGERS)), 0.0, 1.0)
    return HapticTrace(t_us=t, amplitude=amp)


# ---------------------------------------------------------------------------
# Touch classification
# ---------------------------------------------------------------------------


def label_touch(controls: ControlTrace, profile: ObjectProfile) -> np.ndarray:
    """Geometric touch oracle per row: hand within the object extent (closed ball)."""
    return np.linalg.norm(controls.hand_pos - profile.center, axis=1) <= profile.extent_cm


def _features(controls: ControlTrace) -> np.ndarray:
    return np.column_stack([
        controls.hand_pos,
        controls.hand_orient,
        controls.finger_pressure,
        np.linalg.norm(controls.hand_pos - PRESUMED_ORIGIN, axis=1),
    ])


class TouchClassifier:
    """Linear logistic discriminant over glove features.

    Trained by full-batch gradient descent on the logistic loss
    (`CLASSIFIER_EPOCHS` steps of `CLASSIFIER_STEP`, features standardized),
    so fits are deterministic.
    """

    def __init__(self):
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
        for _ in range(CLASSIFIER_EPOCHS):
            margin = Z @ w + b
            prob = 1.0 / (1.0 + np.exp(-margin))
            err = prob - y
            w -= CLASSIFIER_STEP * (Z.T @ err) / n
            b -= CLASSIFIER_STEP * float(err.mean())
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


def train_classifier(controls: ControlTrace, labels, train_fraction: float,
                     seed: int = 0) -> tuple[TouchClassifier, float]:
    """Train the touch/no-touch discriminator on labeled control samples.

    `labels` holds one touch flag per row of `controls`.  The split is a
    seeded shuffle; the returned accuracy is measured on the held-out part.
    """
    if not (0.0 < train_fraction < 1.0):
        raise ParameterError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    n = len(controls)
    labels = np.asarray(labels, dtype=bool)
    if labels.shape != (n,):
        raise ParameterError(f"labels must be ({n},), got shape {labels.shape}")
    if n < 100:
        raise InsufficientDataError(f"need >= 100 labeled samples, got {n}")
    if labels.all() or not labels.any():
        raise DegenerateDataError("dataset contains a single class")

    X = _features(controls)
    order = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    n_train = int(n * train_fraction)
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


def _hits(forecasts: np.ndarray, actuals: np.ndarray, epsilon: float) -> np.ndarray:
    """Per-row hit flags: the max-norm forecast error is at most `epsilon`.

    Every finger's error is at most `epsilon` exactly when the largest one
    is, so the flags need no max reduction along the five-finger rows.  A
    NaN error fails the comparison, so its row is a miss either way.
    """
    return (np.abs(forecasts - actuals) <= epsilon).all(axis=1)


def _forecast(x: np.ndarray, alpha: float, epsilon: float,
              estimate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forecast-then-update over an (n, 5) amplitude matrix: (hits, final estimate)."""
    y = _first_order(1.0 - alpha, alpha * x, estimate)
    return _hits(y[:-1], x, epsilon), y[-1]


# Unit roundoff of a double: every rounded operation has relative error <= u.
UNIT_ROUNDOFF = 2.0**-53


def _blocks(a: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """`scale` times the (n, k) rows `a` as zero-padded blocks of
    B = max(2, ceil(sqrt(n) / 2)) rows, laid out (B, k, blocks) so that
    [i, j, b] is row b * B + i, column j, and step i of every block is one
    contiguous row.  The rows are copied once, straight into the layout.

    Each of the B block steps is two numpy calls over all blocks, and each
    of the n / B block starts is k Python float steps; blocks of about
    sqrt(n) / 2 rows timed fastest for n from 500 to 4,000.
    """
    n, k = a.shape
    block = max(2, (math.isqrt(n - 1) + 2) // 2) if n else 2
    whole = n // block * block
    out = np.empty((block, k, -(-n // block)))
    out[:, :, :whole // block] = a[:whole].reshape(-1, block, k).transpose(1, 2, 0)
    if whole < n:
        out[:, :, -1] = 0.0
        out[:n - whole, :, -1] = a[whole:]
    out *= scale
    return out


def _blocked_first_order(c: float, u: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """`_first_order(c, u, y0)[:-1]` approximately, for u in `_blocks` layout
    (B, k, blocks), and in that layout.  `u` is overwritten.

    Every block's zero-start response z[i, b] (z[0] = 0, z[i + 1] =
    c * z[i] + u[i]) is stepped for all blocks at once, in place: after B - 1
    elementwise steps u[i] holds z[i + 1].  The block starts s[b] = y[b * B]
    follow from s[b + 1] = c^B * s[b] + z[B, b], one `_first_order` pass over
    the blocks, and y[b * B + i] = c^i * s[b] + z[i, b], with the powers of c
    from a `cumprod`.  Only elementwise numpy operations run, so the values
    depend on no thread count or FMA; but they are not the kernel's bits.
    """
    block = u.shape[0]
    scratch = np.empty(u.shape[1:])
    for prev, row in zip(u, u[1:]):
        row += np.multiply(prev, c, out=scratch)
    powers = np.cumprod(np.concatenate(([1.0], np.full(block, c))))
    starts = _first_order(powers[block], u[-1].T, y0)[:-1]
    # Transposed starts would give y their column-major strides, and every
    # pass over y would then run strided.
    y = np.multiply(powers[:block, None, None], np.ascontiguousarray(starts.T))
    y[1:] += u[:-1]
    return y


def _hit_margin(n: int, block: int, scale: float) -> float:
    """A bound on |m_blocked - m_exact| for the row max-norm errors m of
    `_forecast_hits`, with `scale` = max(1, max |estimate|); see there."""
    return 16.0 * UNIT_ROUNDOFF * scale * (n + 2 * block + 2)


def _forecast_hits(x: np.ndarray, alpha: float, epsilon: float,
                   estimate: np.ndarray) -> np.ndarray:
    """Exactly `_forecast(x, alpha, epsilon, estimate)[0]`, from the blocked pass.

    The blocked pass approximates the exact float recursion, so each row's
    max-norm error m^ = max |y^ - x| is decided against `epsilon` only when
    it lies farther than the margin delta from it; if any row does not, the
    whole call returns the exact pass's hits.

    The margin.  Let u = 2^-53, c = fl(1 - alpha) in [0, 1], v = fl(alpha x)
    in [0, alpha] (x lies in [0, 1]), M = max(1, |estimate|_inf), B >= 2 the
    block length and N = ceil(n / B) < n / B + 1 the block count.  Since
    c + alpha <= 1 + u, the real recursion Y[k+1] = c Y[k] + v[k] from the
    estimate stays within M (1 + u)^n, and for n < 2^40 every value either
    pass computes stays within K = 2M (by induction on the bounds below).
    A step fl(fl(c y) + v) is c y + v plus at most u K + u (1 + u)^2 K
    <= 2.01 u K, and since c <= 1 such errors add without growth:
      * the exact pass is within 2.01 u K n of Y;
      * each zero-start z[b, i] is within 2.01 u K B of its real value;
      * the cumprod power p_i <= 1 is within 1.01 B u of c^i (gamma_{i-1});
      * a block start adds per block at most 1.01 B u K for p_B,
        2.01 B u K for z[b, B] and 3 u K for its two roundings, so it is
        within N u K (3.02 B + 3) of Y;
      * a value z + fl(p_i s) adds 2.01 B u K, 1.01 B u K and 3 u K.
    So the passes differ by at most u K (5.03 n + 6.04 B + 3 N + 3), using
    N B < n + B.  Rounding |y - x| in each adds u |y - x| <= 2 u K, and a
    row max moves no more than its largest entry, so the two m differ by at
    most 2 u M (5.03 n + 6.04 B + 3 N + 7).  As B >= 2, 6 N < 6 n / B + 6
    <= 3 n + 6, so that is below 2 u M (6.53 n + 6.04 B + 10) < 16 u M
    (n + 2B + 2) = delta, however many blocks there are.  The slack absorbs
    underflow (at most 2^-1075 per operation) and the rounding of delta and
    of the test itself.  Then m^ < epsilon - delta makes the exact row a hit
    and m^ > epsilon + delta a miss.
    """
    n = x.shape[0]
    y = _blocked_first_order(1.0 - alpha, _blocks(x, alpha), estimate)
    np.subtract(y, _blocks(x), out=y)
    worst = np.abs(y, out=y).max(axis=1).T.reshape(-1)[:n]
    delta = _hit_margin(n, y.shape[0], max(1.0, float(np.abs(estimate).max())))
    if np.any(np.abs(worst - epsilon) <= delta):
        return _forecast(x, alpha, epsilon, estimate)[0]
    return worst < epsilon


def run_forecaster(trace: HapticTrace, alpha: float, epsilon: float,
                   initial_estimate=None) -> np.ndarray:
    """Forecast-then-update over a haptic trace; returns the per-step hit flags.

    A step is a hit when the max-norm error of its forecast (the current
    estimate) is at most `epsilon`.  The estimate starts at
    `initial_estimate` (zeros by default).
    """
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ParameterError(f"epsilon must be finite and > 0, got {epsilon}")
    if not (0.0 < alpha <= 1.0):
        raise ParameterError(f"alpha must lie in (0, 1], got {alpha}")
    initial = (np.zeros(N_FINGERS) if initial_estimate is None
               else _vector(initial_estimate, N_FINGERS, "initial_estimate"))
    return _forecast_hits(trace.amplitude, alpha, epsilon, initial)


def estimate_tau(haptic_trace: HapticTrace) -> float:
    """Lag-1 Pearson autocorrelation of the mean-amplitude sequence."""
    x = haptic_trace.amplitude.mean(axis=1)
    if x.size < 3:
        raise InsufficientDataError(f"need >= 3 samples, got {x.size}")
    if np.ptp(x[:-1]) == 0.0 or np.ptp(x[1:]) == 0.0:
        raise DegenerateDataError("a lagged half of the trace is constant; "
                                  "autocorrelation undefined")
    r = float(np.corrcoef(x[:-1], x[1:])[0, 1])
    return float(np.clip(r, -1.0, 1.0))


def optimize_alpha(trace: HapticTrace, alpha_grid, epsilon: float) -> float:
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
    best_alpha, best_acc = grid[0], -1.0
    for alpha in grid:
        acc = float(run_forecaster(trace, alpha, epsilon).mean())
        if acc > best_acc:
            best_alpha, best_acc = alpha, acc
    return best_alpha
