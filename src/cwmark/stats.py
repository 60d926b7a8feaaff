"""Gaussian weight model, its seeded sampler and two-threshold design.

Thresholds come from the standard normal tail function Q: a pruning
attack at rate R removes the R smallest weight magnitudes, so the upper
threshold must sit above the corresponding Gaussian quantile.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ThresholdDesignError
from .rng import _stream_at, _stream_gather, u64_to_unit

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


# Largest piece of the vector squared at once (512 KiB of binary64).
_SIGMA_CHUNK = 1 << 16


def _pairwise(start: int, stop: int, leaf):
    """leaf(a, b) over the pieces numpy's pairwise sum splits [start, stop)
    into, down to _SIGMA_CHUNK values, added in numpy's tree order.

    np.add.reduce over a contiguous binary64 vector of n > 128 values sums
    its first half, n // 2 rounded down to a multiple of 8, and its second
    half recursively, then adds the two. Any cap of 128 or more therefore
    gives the bits of reducing the whole vector.
    """
    n = stop - start
    if n <= _SIGMA_CHUNK:
        return leaf(start, stop)
    half = n // 2
    half -= half % 8
    return _pairwise(start, start + half, leaf) + _pairwise(start + half, stop, leaf)


def _rms(pieces, n: int) -> float:
    """sqrt(mean(w**2)) in binary64 of the n values that pieces yields, in
    order, as (start, piece): the bits of the whole-vector formula, with
    one leaf of squares held at a time (see _pairwise)."""
    ends: list[int] = []
    _pairwise(0, n, lambda a, b: ends.append(b) or 0.0)
    squares = np.empty(min(n, _SIGMA_CHUNK), dtype=np.float64)
    sums: list[np.float64] = []
    filled = 0
    for start, piece in pieces:
        at = 0
        while at < piece.size:
            take = min(ends[len(sums)] - start - at, piece.size - at)
            leaf = squares[filled : filled + take]
            np.square(piece[at : at + take], out=leaf, dtype=np.float64)
            at, filled = at + take, filled + take
            if start + at == ends[len(sums)]:
                sums.append(np.add.reduce(squares[:filled]))
                filled = 0
    leaf_sums = iter(sums)
    return float(np.sqrt(_pairwise(0, n, lambda a, b: next(leaf_sums)) / n))


def estimate_sigma(weights) -> float:
    """Sample standard deviation about zero, sqrt(mean(w**2)).

    Bit-identical to np.sqrt(np.mean(np.square(np.asarray(w, np.float64))))
    but never holds more than one chunk of squares (see _rms), so a
    binary32 vector is not widened as a whole.
    """
    w = np.asarray(weights)
    if w.dtype != np.float32:
        w = np.asarray(w, dtype=np.float64)
    w = w.ravel()
    if w.size == 0:
        raise ValueError("cannot estimate sigma from an empty vector")
    return _rms([(0, w)], w.size)


def _check_sigma(sigma: float) -> None:
    """Refuse a sigma that is not positive, or whose sample could round to
    binary32 infinity: the sampler's largest |z| is sqrt(-2 ln 2**-53)."""
    if not 0 < sigma * math.sqrt(-2.0 * math.log(2.0**-53)) < 2.0**128 * (1 - 2.0**-25):
        raise ValueError(f"sigma must lie in (0, 3.9698e37) for a finite sample, got {sigma!r}")


# Values per chunk of the sampler (256 KiB of stream words); a sample of
# more than two chunks is split between two threads (see _fill_normals).
_NORMAL_CHUNK = 1 << 15


def _usable_cpus() -> int:
    """CPUs this process may run on (the CPU count where the platform has
    no affinity call)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _box_muller(words: np.ndarray, scale: float, screen: bool = False) -> np.ndarray:
    """scale * the Box-Muller values of the stream word pairs, in binary64 and
    in order. Screened, each angle is rounded to binary32 and its cos and sin
    are taken there, 16 times faster; the radius's log stays binary64."""
    u = u64_to_unit(words)
    radius = np.sqrt(-2.0 * np.log(u[0::2]))
    angle = (2.0 * np.pi) * u[1::2]
    if screen:
        angle = angle.astype(np.float32)
    values = np.empty(u.size, dtype=np.float64)
    np.multiply(radius, np.cos(angle), out=values[0::2])
    np.multiply(radius, np.sin(angle), out=values[1::2])
    values *= scale
    return values


def _screen_error(scale: float) -> float:
    """Bounds |screened - exact| for a binary32 value of _fill_normals (README)."""
    return scale * 2.0**-12 + 2.0**-145


def _fill_normals(
    out: np.ndarray, seed: int, scale: float, first: int = 0, screen: bool = False
) -> None:
    """out[i] = scale * standard_normals(first + out.size, seed)[first + i]
    in binary64, rounded once to out's dtype; screened (see _box_muller),
    each binary32 value is within _screen_error(scale) of that.

    Pair a of the sample is stream outputs 2a + 1 and 2a + 2, so each
    chunk of _NORMAL_CHUNK // 2 pairs draws only its own words. Past
    2 * _NORMAL_CHUNK values, and with a second CPU to run on, the upper
    half of out (from n // 2) is drawn on a worker thread while this
    thread draws the lower half: numpy releases the GIL in its loops.
    The worker's exception is raised here, and the worker is joined
    before this returns.
    """

    def fill(lo: int, hi: int) -> None:
        # Sample values lo .. hi - 1, into out from lo - first.
        step, total = _NORMAL_CHUNK // 2, (hi + 1) // 2
        for a in range(lo // 2, total, step):
            b = min(a + step, total)
            values = _box_muller(_stream_at(seed, 2 * a, 2 * (b - a)), scale, screen)
            at, end = max(2 * a, lo), min(2 * b, hi)
            out[at - first : end - first] = values[at - 2 * a : end - 2 * a]

    n = out.size
    if n <= 2 * _NORMAL_CHUNK or _usable_cpus() < 2:
        fill(first, first + n)
        return
    mid = first + n // 2
    failure: list[BaseException] = []

    def upper() -> None:
        try:
            fill(mid, first + n)
        except BaseException as exc:
            failure.append(exc)

    worker = threading.Thread(target=upper, name="cwmark-normals")
    worker.start()
    try:
        fill(first, mid)
    finally:
        worker.join()
    if failure:
        raise failure[0]


def _normals_at(seed: int, index: np.ndarray, scale: float) -> np.ndarray:
    """scale * standard_normals(n, seed)[index] for any n past index, in
    binary64: the two words of each value's pair are drawn at their counters."""
    counters = ((index // 2 * 2)[:, None] + (1, 2)).astype(np.uint64).ravel()
    values = _box_muller(_stream_gather(seed, counters), scale)
    return values[2 * np.arange(index.size) + index % 2]


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
    at most 2**15 values, one half of the vector on each of two threads
    where it is long enough (see _fill_normals); each chunk draws only its
    own stream words, with the same bits as the whole-vector transform.
    _normals_at recomputes any values from their own words, with the same
    bits; the eval harness screens with binary32 angles and recomputes the
    values its rows read.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.empty(n, dtype=np.float64)
    _fill_normals(out, seed, 1.0)
    return out


def sample_gaussian_weights(n: int, sigma: float, seed: int) -> np.ndarray:
    """n weights drawn i.i.d. from N(0, sigma**2), as binary32.

    Each value is sigma * standard_normals(n, seed)[i] in binary64, rounded
    once to binary32; the doubles in flight are one chunk's worth (see
    _fill_normals). A sigma whose sample could round to binary32 infinity
    is refused (see _check_sigma).
    """
    _check_sigma(sigma)
    if n < 1:
        raise ValueError("n must be >= 1")
    out = np.empty(n, dtype=np.float32)
    _fill_normals(out, seed, sigma)
    return out


def _bracket(p, n, L, sigma, delta):
    """Binary32 edges about the p-th smallest of n |N(0, sigma**2)| values:
    the model's quantiles 6 deviations plus L ranks either side of p,
    widened by delta; infinite past rank 0 or n - 1."""
    spread = 6 * math.sqrt(p * (n - p) / n) + L
    at = lambda rank: sigma * q_inverse((n - rank) / (2 * n))
    lo = at(p - spread) - delta if p - spread > 0 else -math.inf
    hi = at(p + spread) + delta if p + spread < n - 1 else math.inf
    return np.float32(lo), np.float32(hi)


def _cutoffs(n, sigma, seed, positions, marked, ps, L):
    """The eval harness's cutoffs, {p: the p-th smallest magnitude} for each
    p in ps, of sigma times the sample of seed with the marked values at
    their positions. One screened pass counts
    the magnitudes below each p's bracket and keeps those in it (Floyd &
    Rivest). The screened p-th smallest, g, is within delta of the exact
    one; lying 2 delta inside the bracket, only values near it need exact
    recomputing. Else the whole exact sample is drawn and partitioned."""
    delta = _screen_error(sigma)
    edges = {p: _bracket(p, n, L, sigma, delta) for p in ps}
    below, band = dict.fromkeys(edges, 0), {p: [] for p in edges}
    buf = np.empty(min(n, 2 * _NORMAL_CHUNK), dtype=np.float32)
    for start in range(0, n, buf.size):
        piece = buf[: n - start]
        # In slices of 2**13 values, each of the sampler's temporaries is at
        # most 64 KiB, which the C heap reuses; from 128 KiB on they took
        # fresh pages, some 7000 page faults per 10**6 values.
        for at in range(0, piece.size, 1 << 13):
            part = piece[at : at + (1 << 13)]
            _fill_normals(part, seed, sigma, start + at, screen=True)
        here = (positions >= start) & (positions < start + piece.size)
        piece[positions[here] - start] = marked[here]
        mag = np.abs(piece, out=piece)
        for p, (lo, hi) in edges.items():
            below[p] += int(np.count_nonzero(mag < lo))
            inside = np.flatnonzero((mag >= lo) & (mag <= hi))
            band[p].append((start + inside, mag[inside]))
    cutoffs = {}
    for p, (lo, hi) in edges.items():
        index, values = (np.concatenate(parts) for parts in zip(*band[p]))
        rank = p - below[p]
        g = float(np.partition(values, rank)[rank]) if 0 <= rank < values.size else math.nan
        if not float(lo) + 2 * delta <= g <= float(hi) - 2 * delta:
            w = sample_gaussian_weights(n, sigma, seed)
            w[positions] = marked
            cutoffs[p] = float(np.partition(np.abs(w, out=w), p)[p])
            continue
        # One pair of binary64 edges for the window and the count below it.
        w_lo, w_hi = np.float64(g - 2 * delta), np.float64(g + 2 * delta)
        keep = (values >= w_lo) & (values <= w_hi)
        index, exact = index[keep], values[keep]
        # Marked values are exact already; index and positions hold no repeats.
        fresh = ~np.isin(index, positions, assume_unique=True)
        exact[fresh] = np.abs(_normals_at(seed, index[fresh], sigma)).astype(np.float32)
        rank -= int(np.count_nonzero(values < w_lo))
        cutoffs[p] = float(np.partition(exact, rank)[rank])
    return cutoffs
