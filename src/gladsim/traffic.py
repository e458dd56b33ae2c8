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

from .errors import DegenerateDataError, InsufficientDataError, ResourceLimitError, integer, real

__all__ = [
    "GpdParams",
    "CONTROL_TRAFFIC_DEFAULT",
    "generate_stream",
    "fit_gpd",
    "ks_test",
]

MIN_FIT_SAMPLES = 50

# Hard cap on the events of one stream or one simulated PON leg.
MAX_EVENTS = 50_000_000

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
        for name, bounds in (("shape", {}), ("scale", {"above": 0}), ("location", {"at_least": 0})):
            object.__setattr__(self, name, real(name, getattr(self, name), **bounds))


# Defaults approximate a ~1 kHz mean message rate (mean gap 1000 us).  The
# source measurements publish no parameter values, so these are config-exposed
# stand-ins, not measured constants.
CONTROL_TRAFFIC_DEFAULT = GpdParams(shape=0.1, scale=900.0, location=0.0)

# Largest significance level `ks_test` accepts.
MAX_SIGNIFICANCE = 0.5


def _sample_gpd(params: GpdParams, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF transform of the float array `u` in [0, 1) under `params`.

    Elementwise; returns a float array of the shape of `u`.  The shape = 0
    case is the exponential limit of the family.
    """
    # log1p keeps the quantile accurate near u=0 and continuous as shape -> 0.
    log_sf = np.log1p(-u)
    if abs(params.shape) < _EXPONENTIAL_SHAPE:
        return params.location - params.scale * log_sf
    return params.location + params.scale * np.expm1(-params.shape * log_sf) / params.shape


def _gpd_cdf(params: GpdParams, x: np.ndarray) -> np.ndarray:
    """CDF of the generalized Pareto law at the finite float array `x`, elementwise."""
    z = (x - params.location) / params.scale
    z = np.clip(z, 0.0, None)
    if abs(params.shape) < _EXPONENTIAL_SHAPE:
        return -np.expm1(-z)
    # 1 - (1 + shape*z)^(-1/shape) through log1p/expm1, which stay accurate
    # as shape -> 0.  For shape < 0 the support ends at -scale/shape;
    # clipping shape*z at -1 makes log1p -inf there, pinning the CDF to 1.
    with np.errstate(divide="ignore"):
        log_base = np.log1p(np.maximum(params.shape * z, -1.0))
    return -np.expm1(-log_base / params.shape)


def _gpd_mean(params: GpdParams) -> float:
    """Closed-form mean; defined only for shape < 1."""
    return params.location + params.scale / (1.0 - params.shape)


def generate_stream(params: GpdParams, horizon_us: float, seed: int) -> np.ndarray:
    """Arrival instants (us): cumulative sums of i.i.d. GPD inter-arrivals up to `horizon_us`.

    Arrivals strictly beyond the horizon are excluded; the stream may be empty
    when the first gap already exceeds the horizon.  Deterministic in `seed`.
    The gaps are `np.diff(stream, prepend=0.0)`.  Raises ResourceLimitError
    before anything is drawn where the horizon spans more than MAX_EVENTS
    typical gaps.
    """
    seed = integer("seed", seed, at_least=0)
    horizon_us = real("horizon_us", horizon_us, above=0)
    if params.shape < 1.0:
        typical_gap = _gpd_mean(params)
    else:
        typical_gap = float(_sample_gpd(params, np.array(0.5)))  # median when the mean diverges
    typical_gap = max(typical_gap, 1e-9)
    if horizon_us / typical_gap > MAX_EVENTS:
        raise ResourceLimitError(f"stream needs ~{horizon_us / typical_gap:.3g} events "
                                 f"(cap {MAX_EVENTS})")

    rng = np.random.Generator(np.random.PCG64(seed))
    batch = max(64, int(horizon_us / typical_gap * 1.2) + 16)
    chunks: list[np.ndarray] = []
    offset = 0.0
    while True:
        gaps = _sample_gpd(params, rng.random(batch))
        ts = offset + np.cumsum(gaps)
        keep = int(np.searchsorted(ts, horizon_us, side="right"))
        chunks.append(ts[:keep])
        if keep < ts.size:
            break
        offset = float(ts[-1])
        batch = max(64, batch // 2)
    return np.concatenate(chunks)


def _inter_arrival_sample(inter_arrivals) -> np.ndarray:
    """`inter_arrivals` as a flat float array, checked for a fit or a test."""
    x = np.asarray(inter_arrivals, dtype=float).ravel()
    if x.size < MIN_FIT_SAMPLES:
        raise InsufficientDataError(f"need at least {MIN_FIT_SAMPLES} samples, got {x.size}")
    return real("inter_arrivals", x, at_least=0)


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
    significance = real("significance", significance, above=0, at_most=MAX_SIGNIFICANCE)
    x = np.sort(_inter_arrival_sample(inter_arrivals))
    n = x.size
    cdf = _gpd_cdf(params, x)
    i = np.arange(1, n + 1, dtype=float)
    d_plus = float(np.max(i / n - cdf))
    d_minus = float(np.max(cdf - (i - 1.0) / n))
    statistic = max(d_plus, d_minus)
    critical = math.sqrt(-math.log(significance / 2.0) / 2.0) / math.sqrt(n)
    return statistic, statistic < critical
