"""Generalized Pareto inter-arrival traffic: sampling, fitting, goodness of fit.

Control and haptic-feedback message streams are modeled as renewal processes
whose inter-arrival times follow a three-parameter generalized Pareto law
(shape xi, scale sigma in microseconds, location mu in microseconds).

Everything in this module is a pure function of its inputs; a stream is
reproducible from (params, horizon, seed) on one numpy build and CPU feature
set.  The generator is a PCG64-backed numpy Generator, which has 128-bit
state and a fixed, documented output sequence; the uniforms it draws are the
same everywhere, but numpy picks its log1p and expm1 kernels by CPU feature,
so the last bit of a sample may differ between hosts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InsufficientDataError, ParameterError

__all__ = [
    "GpdParams",
    "ArrivalStream",
    "CONTROL_TRAFFIC_DEFAULT",
    "sample_gpd",
    "gpd_cdf",
    "gpd_mean",
    "generate_stream",
    "fit_gpd",
    "ks_test",
]

MIN_FIT_SAMPLES = 50

# Shapes below the smallest normal double take the exponential branch: the
# general formulas divide by the shape and would lose every significant bit.
_EXPONENTIAL_SHAPE = np.finfo(float).tiny


@dataclass(frozen=True)
class GpdParams:
    """Shape/scale/location triple of a generalized Pareto law.

    The mean exists only for shape < 1, the variance only for shape < 1/2.
    """

    shape: float
    scale: float
    location: float = 0.0

    def __post_init__(self):
        for name in ("shape", "scale", "location"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")
        if self.scale <= 0:
            raise ParameterError(f"scale must be > 0, got {self.scale}")
        if self.location < 0:
            raise ParameterError(f"location must be >= 0, got {self.location}")


# Defaults approximate a ~1 kHz mean message rate (mean gap 1000 us).  The
# source measurements publish no parameter values, so these are config-exposed
# stand-ins, not measured constants.
CONTROL_TRAFFIC_DEFAULT = GpdParams(shape=0.1, scale=900.0, location=0.0)

# Largest significance level `ks_test` accepts.
MAX_SIGNIFICANCE = 0.5


def sample_gpd(params: GpdParams, uniform):
    """Inverse-CDF transform of `uniform` in [0, 1) under `params`.

    Accepts a scalar or an array; vectorizes elementwise.  The shape = 0 case
    is the exponential limit of the family.
    """
    u = np.asarray(uniform, dtype=float)
    if np.any(u < 0.0) or np.any(u >= 1.0):
        raise ParameterError("uniform must lie in [0, 1)")
    # log1p keeps the quantile accurate near u=0 and continuous as shape -> 0.
    log_sf = np.log1p(-u)
    if abs(params.shape) < _EXPONENTIAL_SHAPE:
        q = params.location - params.scale * log_sf
    else:
        q = params.location + params.scale * np.expm1(-params.shape * log_sf) / params.shape
    if np.ndim(uniform) == 0:
        return float(q)
    return q


def gpd_cdf(params: GpdParams, x):
    """CDF of the generalized Pareto law at `x` (scalar or array)."""
    z = (np.asarray(x, dtype=float) - params.location) / params.scale
    z = np.clip(z, 0.0, None)
    if abs(params.shape) < _EXPONENTIAL_SHAPE:
        cdf = -np.expm1(-z)
    else:
        # 1 - (1 + shape*z)^(-1/shape) through log1p/expm1, which stay accurate
        # as shape -> 0.  For shape < 0 the support ends at -scale/shape;
        # clipping shape*z at -1 makes log1p -inf there, pinning the CDF to 1.
        with np.errstate(divide="ignore"):
            log_base = np.log1p(np.maximum(params.shape * z, -1.0))
        cdf = -np.expm1(-log_base / params.shape)
    if np.ndim(x) == 0:
        return float(cdf)
    return cdf


def gpd_mean(params: GpdParams) -> float:
    """Closed-form mean; defined only for shape < 1."""
    if params.shape >= 1.0:
        raise ParameterError(f"mean undefined for shape >= 1 (got {params.shape})")
    return params.location + params.scale / (1.0 - params.shape)


@dataclass(frozen=True)
class ArrivalStream:
    """Arrival instants (us) of one message stream."""

    timestamps: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float)
        object.__setattr__(self, "timestamps", ts)
        if not np.all(np.isfinite(ts)):
            raise ParameterError("timestamps must be finite")
        if ts.size and np.any(np.diff(ts) < 0.0):
            raise ParameterError("timestamps must be non-decreasing")

    def __len__(self) -> int:
        return int(self.timestamps.size)

    @property
    def inter_arrivals(self) -> np.ndarray:
        """Gaps between consecutive arrivals; the first gap is measured from t=0."""
        return np.diff(self.timestamps, prepend=0.0)


def generate_stream(params: GpdParams, horizon_us: float, seed: int) -> ArrivalStream:
    """Cumulative sums of i.i.d. GPD inter-arrivals up to `horizon_us`.

    Arrivals strictly beyond the horizon are excluded; the stream may be empty
    when the first gap already exceeds the horizon.  Deterministic in `seed`.
    """
    if not (math.isfinite(horizon_us) and horizon_us > 0):
        raise ParameterError(f"horizon_us must be finite and > 0, got {horizon_us}")
    rng = np.random.Generator(np.random.PCG64(seed))
    if params.shape < 1.0:
        typical_gap = gpd_mean(params)
    else:
        typical_gap = sample_gpd(params, 0.5)  # median when the mean diverges
    typical_gap = max(typical_gap, 1e-9)

    batch = max(64, int(horizon_us / typical_gap * 1.2) + 16)
    chunks: list[np.ndarray] = []
    offset = 0.0
    while True:
        gaps = sample_gpd(params, rng.random(batch))
        ts = offset + np.cumsum(gaps)
        keep = int(np.searchsorted(ts, horizon_us, side="right"))
        chunks.append(ts[:keep])
        if keep < ts.size:
            break
        offset = float(ts[-1])
        batch = max(64, batch // 2)
    timestamps = np.concatenate(chunks) if chunks else np.empty(0)
    return ArrivalStream(timestamps=timestamps)


def _inter_arrival_sample(inter_arrivals) -> np.ndarray:
    """`inter_arrivals` as a flat float array, checked for a fit or a test."""
    x = np.asarray(inter_arrivals, dtype=float).ravel()
    if x.size < MIN_FIT_SAMPLES:
        raise InsufficientDataError(f"need at least {MIN_FIT_SAMPLES} samples, got {x.size}")
    if not np.all(np.isfinite(x)) or np.any(x < 0.0):
        raise ParameterError("inter-arrivals must be finite and >= 0")
    return x


def fit_gpd(inter_arrivals) -> GpdParams:
    """Probability-weighted-moment estimate of the generating GPD.

    The location is taken as the sample minimum; shape and scale come from
    the first two PWMs of the excesses (Hosking-Wallis estimators).  Closed
    form, no optimizer, robust for the small shape values seen in practice.
    """
    x = _inter_arrival_sample(inter_arrivals)
    if np.ptp(x) == 0.0:
        raise DegenerateDataError("samples are constant; nothing to fit")

    x = np.sort(x)
    location = float(x[0])
    y = x - location
    n = y.size
    ranks = np.arange(n)
    a0 = float(y.mean())
    # Unbiased estimate of E[Y * (1 - F(Y))]: weight the j-th order statistic
    # by (n - j) / (n - 1).
    a1 = float(np.sum(y * (n - 1 - ranks)) / (n * (n - 1)))
    denom = a0 - 2.0 * a1
    if denom <= 0.0:
        raise DegenerateDataError("probability-weighted moments are degenerate")
    shape = 2.0 - a0 / denom
    scale = a0 * (1.0 - shape)
    if scale <= 0.0:
        raise DegenerateDataError("fitted scale is non-positive")
    return GpdParams(shape=float(shape), scale=float(scale), location=location)


def ks_test(inter_arrivals, params: GpdParams, significance: float) -> tuple[float, bool]:
    """One-sample Kolmogorov-Smirnov test against the GPD CDF.

    Returns (statistic, passed) where passed means the statistic is below the
    asymptotic critical value sqrt(-ln(alpha/2) / 2) / sqrt(n).  When `params`
    were fitted from the same data the test is conservative; that bias is
    accepted and documented.  The inter-arrivals are checked as `fit_gpd`
    checks them.
    """
    if not (0.0 < significance <= MAX_SIGNIFICANCE):
        raise ParameterError(
            f"significance must lie in (0, {MAX_SIGNIFICANCE}], got {significance}")
    x = np.sort(_inter_arrival_sample(inter_arrivals))
    n = x.size
    cdf = gpd_cdf(params, x)
    i = np.arange(1, n + 1, dtype=float)
    d_plus = float(np.max(i / n - cdf))
    d_minus = float(np.max(cdf - (i - 1.0) / n))
    statistic = max(d_plus, d_minus)
    critical = math.sqrt(-math.log(significance / 2.0) / 2.0) / math.sqrt(n)
    return statistic, statistic < critical
