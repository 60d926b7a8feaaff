"""Gaussian weight model and two-threshold design.

Thresholds come from the standard normal tail function Q: a pruning
attack at rate R removes the R smallest weight magnitudes, so the upper
threshold must sit above the corresponding Gaussian quantile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ThresholdDesignError
from .rng import GOLDEN_GAMMA, MASK64, splitmix64_stream, u64_to_unit

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def q_function(x: float) -> float:
    """Standard normal tail probability P(Z > x)."""
    return 0.5 * math.erfc(x / _SQRT2)


def q_inverse(p: float) -> float:
    """Inverse of q_function on (0, 1).

    Rational initial guess polished by Newton iterations with a bisection
    safeguard; converges to float precision, far tighter than the 1e-10
    residual the callers rely on.
    """
    if math.isnan(p) or not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    if p == 0.5:
        return 0.0
    if p > 0.5:
        return -q_inverse(1.0 - p)

    # Abramowitz-Stegun 26.2.23 start, |error| < 4.5e-4.
    t = math.sqrt(-2.0 * math.log(p))
    x = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    )
    # Q(t + 2) < exp(-(t+2)^2/2) < p, so the root is bracketed.
    lo, hi = 0.0, t + 2.0
    for _ in range(100):
        err = q_function(x) - p
        if err > 0.0:
            lo = x
        else:
            hi = x
        pdf = _INV_SQRT_2PI * math.exp(-0.5 * x * x)
        nxt = x + err / pdf if pdf > 0.0 else 0.5 * (lo + hi)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= 1e-16 * max(1.0, abs(x)):
            x = nxt
            break
        x = nxt
    return x


@dataclass(frozen=True)
class GaussianModel:
    """Zero-mean Gaussian weight model with standard deviation sigma."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    def sample(self, n: int, seed: int) -> np.ndarray:
        return sample_gaussian_weights(n, self.sigma, seed)


@dataclass(frozen=True)
class ThresholdPair:
    """Classification thresholds 0 < t0 < t1.

    Also requires t1 to round to a finite binary32 value and the two
    values to remain distinct after that rounding, since embedded weights
    are stored at that precision and extraction exactness needs strict
    magnitude separation there.
    """

    t0: float
    t1: float

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t1)):
            raise ValueError("thresholds must be finite")
        if not 0.0 < self.t0 < self.t1:
            raise ValueError("thresholds must satisfy 0 < t0 < t1")
        with np.errstate(over="ignore"):  # a t1 past binary32 is refused below
            t0, t1 = np.float32(self.t0), np.float32(self.t1)
        if math.isinf(t1):
            raise ValueError("t1 overflows binary32")
        if not t0 < t1:
            raise ValueError("t0 and t1 collapse to the same binary32 value")

    def __iter__(self):
        return iter((self.t0, self.t1))


def design_t1(sigma: float, rate: float, two_sided: bool = False) -> float:
    """Upper threshold for a target pruning rate.

    Default is t1 = sigma * Qinv(1 - rate), which treats pruning as a
    one-sided event. Pruning actually cuts on |w|, so the matching
    magnitude quantile is sigma * Qinv((1 - rate)/2); pass two_sided=True
    for that stricter value. Both are exposed rather than silently picking
    one; see the package docs for the trade-off.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if not 0.0 <= rate < 1.0:
        raise ValueError("rate must lie in [0, 1)")
    tail = (1.0 - rate) / 2.0 if two_sided else 1.0 - rate
    if tail >= 0.5:
        raise ThresholdDesignError(
            f"rate {rate} gives a non-positive t1; pick a rate above 0.5 "
            "or set thresholds explicitly"
        )
    return sigma * q_inverse(tail)


def design_thresholds(
    sigma: float, rate: float, two_sided: bool = False, t0_fraction: float = 0.5
) -> ThresholdPair:
    """ThresholdPair with t1 from design_t1 and t0 = t0_fraction * t1."""
    if not 0.0 < t0_fraction < 1.0:
        raise ValueError("t0_fraction must lie in (0, 1)")
    t1 = design_t1(sigma, rate, two_sided=two_sided)
    return ThresholdPair(t0=t0_fraction * t1, t1=t1)


# Largest piece of the vector estimate_sigma squares at once (8 MiB of binary64).
_SIGMA_CHUNK = 1 << 20


def _sum_squares(w: np.ndarray, start: int, stop: int) -> np.float64:
    """Binary64 sum of w[start:stop]**2, split where numpy's pairwise sum splits.

    np.add.reduce over a contiguous binary64 vector of n > 128 values sums
    its first half, n // 2 rounded down to a multiple of 8, and its second
    half recursively, then adds the two. Splitting at exactly those points
    until a piece fits in _SIGMA_CHUNK, and adding the pieces in the same
    tree order, gives the same bits as reducing the whole squared vector.
    """
    n = stop - start
    if n <= _SIGMA_CHUNK:
        return np.add.reduce(np.square(w[start:stop], dtype=np.float64))
    half = n // 2
    half -= half % 8
    return _sum_squares(w, start, start + half) + _sum_squares(w, start + half, stop)


def estimate_sigma(weights) -> float:
    """Sample standard deviation about zero, sqrt(mean(w**2)).

    Bit-identical to np.sqrt(np.mean(np.square(np.asarray(w, np.float64))))
    but never holds more than one chunk of squares (see _sum_squares), so
    a binary32 vector is not widened as a whole.
    """
    w = np.asarray(weights)
    if w.dtype != np.float32:
        w = np.asarray(w, dtype=np.float64)
    w = w.ravel()
    if w.size == 0:
        raise ValueError("cannot estimate sigma from an empty vector")
    return float(np.sqrt(_sum_squares(w, 0, w.size) / w.size))


# Most Box-Muller pairs drawn at once (2**16 stream words, 512 KiB).
_NORMAL_CHUNK = 1 << 15


def _normal_chunks(n: int, seed: int):
    """standard_normals(n, seed) in order, as (start, values) of at most
    2 * _NORMAL_CHUNK values each.

    The stream is counter-based, so the words from 2a + 1 on are those of
    the seed advanced by 2a * GOLDEN_GAMMA; each chunk draws only its own.
    """
    pairs = (n + 1) // 2
    for a in range(0, pairs, _NORMAL_CHUNK):
        b = min(a + _NORMAL_CHUNK, pairs)
        words = splitmix64_stream((seed + 2 * a * GOLDEN_GAMMA) & MASK64, 2 * (b - a))
        u = u64_to_unit(words)
        radius = np.sqrt(-2.0 * np.log(u[0::2]))
        angle = (2.0 * np.pi) * u[1::2]
        out = np.empty(2 * (b - a), dtype=np.float64)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        yield 2 * a, out[: n - 2 * a]


def standard_normals(n: int, seed: int) -> np.ndarray:
    """n i.i.d. standard normal doubles, deterministic per seed.

    Reproducibility contract: uniforms come from the SplitMix64 stream via
    u64_to_unit, consumed in pairs (u1, u2) = (stream[2i], stream[2i+1]);
    the Box-Muller transform emits
        out[2i]   = sqrt(-2 ln u1) * cos(2 pi u2)
        out[2i+1] = sqrt(-2 ln u1) * sin(2 pi u2)
    and the sequence is truncated to n. The u64 stream is bit-exact across
    implementations; the float outputs are only comparable within normal
    transcendental-function tolerances. Outputs are produced in chunks of
    at most 2**16 values (see _normal_chunks), with the same bits as the
    whole-vector transform.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.empty(n, dtype=np.float64)
    for start, values in _normal_chunks(n, seed):
        out[start : start + values.size] = values
    return out


def sample_gaussian_weights(n: int, sigma: float, seed: int) -> np.ndarray:
    """n weights drawn i.i.d. from N(0, sigma**2), as binary32.

    Each value is sigma * standard_normals(n, seed)[i] in binary64, rounded
    once to binary32; only one chunk of doubles is held at a time.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.empty(n, dtype=np.float32)
    for start, values in _normal_chunks(n, seed):
        values *= sigma
        out[start : start + values.size] = values
    return out
