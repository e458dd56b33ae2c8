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
  states (`_forecast`) and the AR(1) noise behind sessions and profiling
  traces.  It steps in Python floats, one list comprehension per column,
  because they round each product and sum as numpy's elementwise operations
  do and so keep the report bytes; see its docstring.  The estimate that
  `onboard_machine` uploads comes from `_last_state`, the last-state pass:
  the same Python float steps with the same rounding, keeping only each
  column's final value.
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
    array,
    integer,
    real,
    sequence,
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


@dataclass(frozen=True, eq=False)
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
        amp = array("amplitude", self.amplitude, (None, N_FINGERS), at_least=0, at_most=1)
        t = array("t_us", self.t_us, (len(amp),))
        if np.any(t[1:] < t[:-1]):
            raise ParameterError("t_us must be non-decreasing")
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
        t = array("t_us", self.t_us, (None,))
        object.__setattr__(self, "t_us", t)
        for name in ("hand_pos", "hand_orient"):
            object.__setattr__(self, name, array(name, getattr(self, name), (t.size, 3)))
        object.__setattr__(self, "finger_pressure", array(
            "finger_pressure", self.finger_pressure, (t.size, N_FINGERS), at_least=0, at_most=1))

    def __len__(self) -> int:
        return self.t_us.shape[0]


@dataclass(frozen=True, eq=False)
class ObjectProfile:
    """Geometry and feedback signature of one virtual object."""

    kind: ObjectKind
    center: np.ndarray
    extent_cm: float
    stiffness: float
    texture_freq_hz: float

    def __post_init__(self):
        object.__setattr__(self, "center", array("center", self.center, (3,)))
        for name, bounds in (("extent_cm", {"above": 0}), ("stiffness", {"above": 0, "at_most": 1}),
                             ("texture_freq_hz", {"at_least": 0})):
            object.__setattr__(self, name, real(name, getattr(self, name), **bounds))


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
    phases = np.arange(N_FINGERS) * (math.pi / N_FINGERS)
    # base * (1 + depth * rel * sin(w t + phase)), built in one (n, 5) buffer;
    # each product has the bits of the other order, as IEEE products do.
    amp = np.add((2.0 * math.pi * profile.texture_freq_hz * t_us * 1e-6)[:, None], phases)
    np.sin(amp, out=amp)
    amp *= (TEXTURE_DEPTH * rel)[:, None]
    amp += 1.0
    amp *= (profile.stiffness * (1.0 - rel))[:, None]
    np.clip(amp, 0.0, 1.0, out=amp)
    amp[dist > profile.extent_cm] = 0.0
    return amp


def _first_order(c: float, u: np.ndarray, y0) -> np.ndarray:
    """y[0] = y0, y[k+1] = c * y[k] + u[k], per column of `u`: the n + 1 values of y.

    The one producer of recursion states: forecaster estimates and AR(1)
    noise.  `_last_state` takes the same steps for a final estimate alone.
    Hit decisions take the blocked pass of `_forecast_hits`, whose values
    are close to these but not bit-equal.

    `u` is (n, k) and `y0` a scalar or a k-vector; the result is (n + 1, k).
    Each column runs as a list comprehension over Python floats, written
    into one preallocated output.
    Python floats round the product and the sum separately, with no fused
    multiply-add, exactly as numpy's elementwise multiply and add do, so
    every value has the same bits as a loop of numpy steps.  That loop would
    pay a microsecond or so of ufunc dispatch per step; an FMA, or a closed
    form over powers of c, would round differently and change report bytes.
    """
    c = float(c)
    n = u.shape[0]
    y = np.empty((n + 1, u.shape[1]))
    y[0] = y0
    for j, (col, e) in enumerate(zip(u.T.tolist(), y[0].tolist())):
        y[1:, j] = np.fromiter([e := c * e + s for s in col], float, n)
    return y


def _smooth_noise(rng: np.random.Generator, n: int, persistence: float = 0.98) -> np.ndarray:
    """AR(1)-filtered white noise with unit-ish scale."""
    shocks = rng.normal(0.0, math.sqrt(1.0 - persistence**2), size=n)
    return _first_order(persistence, shocks[:, None], 0.0)[1:, 0]


def generate_session(profile: ObjectProfile, duration_us: float,
                     control_params: GpdParams, seed: int) -> tuple[ControlTrace, HapticTrace]:
    """Synthesize one interaction session.

    The hand repeatedly approaches and retreats from the object along a
    smooth, seeded trajectory; a control sample is emitted at each traffic
    arrival and a haptic sample whenever the hand is within the extent.
    Deterministic in `seed`.
    """
    seed = integer("seed", seed, at_least=0)
    duration_us = real("duration_us", duration_us, above=0)
    times = generate_stream(control_params, duration_us, seed)
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
    integer("n_samples", n_samples, above=0)
    seed = integer("seed", seed, at_least=0)
    noise_std = real("noise_std", noise_std, at_least=0)
    wobble_persistence = real("wobble_persistence", wobble_persistence, at_least=-1, at_most=1)
    wobble = real("wobble", wobble, at_least=0)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x9A9))))
    drift = _smooth_noise(rng, n_samples, persistence=wobble_persistence)
    rel = np.clip(GRASP_DISTANCE + wobble * drift, 0.0, 0.95)
    t = np.arange(n_samples) * PROFILING_PERIOD_US
    # Positions lie on the x axis through the center, so the 3-D norm's y and
    # z differences are exact zeros and its row sum is x * x exactly; the
    # square root stays, since np.abs(x) differs where x * x underflows.
    x = profile.center[0] + rel * profile.extent_cm
    x -= profile.center[0]
    amp = _feedback(profile, np.sqrt(x * x), t)
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


@dataclass(frozen=True, eq=False)
class TouchClassifier:
    """A linear logistic discriminant over glove features, as `train_classifier` fits it.

    Features are standardized by `mean` and `std`; a row is a touch where
    its standardized features dotted with `weights`, plus `bias`, are positive.
    """

    mean: np.ndarray
    std: np.ndarray
    weights: np.ndarray
    bias: float

    def predict(self, controls: ControlTrace) -> np.ndarray:
        """One touch flag per row of `controls`."""
        z = (_features(controls) - self.mean) / self.std
        return z @ self.weights + self.bias > 0.0


def train_classifier(controls: ControlTrace, labels, train_fraction: float,
                     seed: int = 0) -> tuple[TouchClassifier, float]:
    """Train the touch/no-touch discriminator on labeled control samples.

    `labels` holds one touch flag per row of `controls`.  The split is a
    seeded shuffle; the returned accuracy is measured on the held-out part.
    The fit is full-batch gradient descent on the logistic loss over
    standardized features, `CLASSIFIER_EPOCHS` steps of `CLASSIFIER_STEP`, so
    it is deterministic.
    """
    train_fraction = real("train_fraction", train_fraction, above=0, below=1)
    seed = integer("seed", seed, at_least=0)
    n = len(controls)
    labels = np.asarray(labels, dtype=bool)
    if labels.shape != (n,):
        raise ParameterError(f"labels must be ({n},), got shape {labels.shape}")
    if n < 100:
        raise InsufficientDataError(f"need >= 100 labeled samples, got {n}")
    if labels.all() or not labels.any():
        raise DegenerateDataError("dataset contains a single class")

    order = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    n_train = int(n * train_fraction)
    train_idx, valid_idx = order[:n_train], order[n_train:]
    if labels[train_idx].all() or not labels[train_idx].any():
        raise DegenerateDataError("training split contains a single class")

    X, y = _features(controls)[train_idx], labels[train_idx].astype(float)
    mean, std = X.mean(axis=0), X.std(axis=0)
    std[std == 0.0] = 1.0
    Z = (X - mean) / std
    w, b = np.zeros(Z.shape[1]), 0.0
    for _ in range(CLASSIFIER_EPOCHS):
        err = 1.0 / (1.0 + np.exp(-(Z @ w + b))) - y
        w -= CLASSIFIER_STEP * (Z.T @ err) / n_train
        b -= CLASSIFIER_STEP * float(err.mean())
    clf = TouchClassifier(mean, std, w, b)
    held_out = ControlTrace(controls.t_us[valid_idx], controls.hand_pos[valid_idx],
                            controls.hand_orient[valid_idx], controls.finger_pressure[valid_idx])
    return clf, float(np.mean(clf.predict(held_out) == labels[valid_idx]))


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


def _last_state(x: np.ndarray, alpha: float, estimate: np.ndarray) -> np.ndarray:
    """Exactly `_forecast(x, alpha, epsilon, estimate)[1]`: the final estimate alone.

    One column of `alpha * x` at a time turns into Python floats and is
    stepped as `_first_order` steps it, keeping only the last value; no
    state matrix and no hit flags are built.
    """
    c = float(1.0 - alpha)
    final = np.array(estimate, dtype=float)
    for j, col in enumerate(x.T):
        e = float(final[j])
        for s in (alpha * col).tolist():
            e = c * e + s
        final[j] = e
    return final


# Unit roundoff of a double: every rounded operation has relative error <= u.
UNIT_ROUNDOFF = 2.0**-53


def _blocks(a: np.ndarray) -> np.ndarray:
    """The (n, k) rows `a` as zero-padded blocks of B = max(2, ceil(sqrt(n) / 2))
    rows, laid out (B, k, blocks) so that [i, j, b] is row b * B + i, column
    j, and step i of every block is one contiguous row.  The rows are copied
    once, straight into the layout.

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
    layout = _blocks(x)
    y = _blocked_first_order(1.0 - alpha, np.multiply(layout, alpha), estimate)
    np.subtract(y, layout, out=y)
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
    epsilon = real("epsilon", epsilon, above=0)
    alpha = real("alpha", alpha, above=0, at_most=1)
    initial = (np.zeros(N_FINGERS) if initial_estimate is None
               else array("initial_estimate", initial_estimate, (N_FINGERS,)))
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

    Each candidate runs a fresh zero-initialized forecaster over the trace;
    the one with the most hits wins, ties going to the smaller alpha.
    """
    grid = sorted(float(real("alpha_grid", a, above=0, at_most=1))
                  for a in sequence("alpha_grid", alpha_grid))
    if len(trace) < 100:
        raise InsufficientDataError(f"need >= 100 touch samples, got {len(trace)}")
    best_alpha, best_hits = grid[0], -1
    for alpha in grid:
        hits = np.count_nonzero(run_forecaster(trace, alpha, epsilon))
        if hits > best_hits:
            best_alpha, best_hits = alpha, hits
    return best_alpha
