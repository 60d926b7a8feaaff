"""Gaussian weight model, its seeded sampler and two-threshold design.

Thresholds come from the standard normal tail function Q: a pruning
attack at rate R removes the R smallest weight magnitudes, so the upper
threshold must sit above the corresponding Gaussian quantile. eval's
trial, which tests that design, lives here beside its cutoff select.
"""

from __future__ import annotations

import math

import numpy as np

from .codec import _bits_value, _codeword, find_params
from .detect import _PIECE, EmbedSpec, ThresholdPair, _prune_rank, _top_alpha
from .errors import ThresholdDesignError, _record
from .rng import GOLDEN_GAMMA, _stream_at, _stream_gather, random_bits, splitmix64_stream
from .watermark import _ArrayPieces, _check_selection, _draw_positions, _project

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


@_record
class GaussianModel:
    """Zero-mean Gaussian weight model with standard deviation sigma."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")

    def sample(self, n: int, seed: int) -> np.ndarray:
        return sample_gaussian_weights(n, self.sigma, seed)


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


def _pairwise(start: int, stop: int, leaf):
    """leaf(a, b) over the pieces numpy's pairwise sum splits [start, stop)
    into, down to _PIECE values, added in numpy's tree order.

    np.add.reduce over a contiguous binary64 vector of n > 128 values sums
    its first half, n // 2 rounded down to a multiple of 8, and its second
    half recursively, then adds the two. Any cap of 128 or more therefore
    gives the bits of reducing the whole vector.
    """
    n = stop - start
    if n <= _PIECE:
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
    squares = np.empty(min(n, _PIECE), dtype=np.float64)
    sums: list[np.float64] = []
    filled = 0
    for start, piece in pieces:
        at = 0
        while at < len(piece):
            take = min(ends[len(sums)] - start - at, len(piece) - at)
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


# Values per chunk of the sampler. A pass allocates its buffers once (see
# _scratch), so no chunk takes fresh pages, whatever its size.
_NORMAL_CHUNK = 1 << 14


def _scratch() -> tuple:
    """One sampler pass's buffers: the draw's (steps, words, spare) (see
    _stream_at), and u and trig, (2, _NORMAL_CHUNK // 2) binary64. The
    steps are pair-ordered: row 0 holds a chunk's u1 counters 1, 3, 5, ...
    and row 1 its u2 counters 2, 4, 6, ..., times GOLDEN_GAMMA, so each
    row of words is contiguous. The words lie in trig, spare in u. The
    screened kernel (see _screened) reuses them: trig holds its four
    binary32 rows, u the binary64 radius and the shifted words."""
    pairs = np.arange(_NORMAL_CHUNK // 2, dtype=np.uint64)
    steps = (pairs * np.uint64(2) + np.array([[1], [2]], dtype=np.uint64)) * np.uint64(GOLDEN_GAMMA)
    u, trig = np.empty((2, 2, _NORMAL_CHUNK // 2))
    return (steps, trig.reshape(-1).view(np.uint64), u.reshape(-1).view(np.uint64)), u, trig


def _box_muller(words: np.ndarray, scale: float, scratch=None) -> np.ndarray:
    """scale * the Box-Muller values of the stream word pairs, u1s in row 0 of
    words and u2s in row 1, in binary64: pair i's cos at [0, i], its sin at
    [1, i] of scratch's u (see _scratch; words drawn there are overwritten) or
    a new array."""
    half = words.size // 2
    u, trig = scratch[1:] if scratch else np.empty((2, 2, half))
    u, trig = u[:, :half], trig[:, :half]
    # u64_to_unit, in place; as int64 the top 53 bits convert faster, and exactly.
    top = np.right_shift(words, np.uint64(11), out=words if scratch else None)
    np.copyto(u, top.view(np.int64).reshape(2, half))
    u += 1.0
    u *= 2.0**-53
    radius = np.log(u[0], out=u[0])
    radius *= -2.0
    np.sqrt(radius, out=radius)
    np.multiply(u[1], 2.0 * np.pi, out=trig[1])
    np.cos(trig[1], out=trig[0])
    np.sin(trig[1], out=trig[1])
    np.multiply(radius, trig[1], out=u[1])
    np.multiply(radius, trig[0], out=u[0])
    u *= scale
    return u


# The screened angle's step: f32(2 pi) 2**-24, one 2**-24th of a turn.
_TURN_STEP = np.float32(2.0 * np.pi * 2.0**-24)


def _screened(words: np.ndarray, scale: float, scratch) -> tuple:
    """The screened Box-Muller rows of the stream word pairs, binary32 from
    the radius on: (radius, cos, sin), whose binary32 products radius[i] *
    cos[i] and radius[i] * sin[i] are pair i's values.

    Only the radius scale * sqrt(-2 ln u1) is binary64, rounded once to
    binary32. The angle is u2's top 24 bits times _TURN_STEP, and binary32
    cos and sin run about 16 times faster than binary64's. Both shifts read
    the words before trig's rows overwrite them (see _scratch).
    """
    half = words.size // 2
    u, trig = scratch[1:]
    radius, turns = u[0, :half], u[1, :half].view(np.uint64)
    np.right_shift(words[1], np.uint64(40), out=turns)
    top = np.right_shift(words[0], np.uint64(11), out=radius.view(np.uint64))
    # u64_to_unit, in place; copyto converts in place without a temporary.
    np.copyto(radius, top.view(np.int64))
    radius += 1.0
    radius *= 2.0**-53
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    radius *= scale
    rounded, angle, cos, sin = trig.view(np.float32).reshape(4, -1)[:, :half]
    np.copyto(rounded, radius)
    np.copyto(angle, turns)  # exact: at most 24 bits
    angle *= _TURN_STEP
    np.cos(angle, out=cos)
    np.sin(angle, out=sin)
    return rounded, cos, sin


def _screen_error(scale: float) -> float:
    """Bounds |screened - exact| for a binary32 value of _fill_normals (README)."""
    return scale * 2.0**-12 + 2.0**-145


def _fill_normals(
    out: np.ndarray, seed: int, scale: float, first: int = 0, screen: bool = False, scratch=None
) -> None:
    """out[i] = scale * standard_normals(first + out.size, seed)[first + i]
    in binary64, rounded once to out's dtype. Screened, out is binary32 and
    takes _screened's products, each within _screen_error(scale) of that.

    Pair a of the sample is stream outputs 2a + 1 and 2a + 2, so each
    chunk of _NORMAL_CHUNK // 2 pairs draws only its own words, in order,
    on the calling thread, in scratch (see _scratch) that every call of one
    pass may share.
    """
    (steps, drawn, spare), u, _ = scratch = scratch or _scratch()
    step, stop = u.shape[1], first + out.size
    total = (stop + 1) // 2
    for a in range(first // 2, total, step):
        b = min(a + step, total)
        # The draw's row 0 takes the chunk's u1 words, row 1 its u2 words.
        rows = [steps[:, : b - a]] + [w[: 2 * (b - a)].reshape(2, -1) for w in (drawn, spare)]
        words = _stream_at(seed, 2 * a, 2 * (b - a), rows)
        at, end = max(2 * a, first), min(2 * b, stop)
        lo, hi, piece = at - 2 * a, end - 2 * a, out[at - first : end - first]
        # The pairs whose cos (even index) and sin (odd) lie in the piece.
        even, odd = slice((lo + 1) // 2, (hi + 1) // 2), slice(lo // 2, hi // 2)
        if screen:
            radius, cos, sin = _screened(words, scale, scratch)
            np.multiply(radius[even], cos[even], out=piece[lo % 2 :: 2])
            np.multiply(radius[odd], sin[odd], out=piece[1 - lo % 2 :: 2])
        else:
            cos, sin = _box_muller(words, scale, scratch)
            piece[lo % 2 :: 2] = cos[even]
            piece[1 - lo % 2 :: 2] = sin[odd]


def _normals_at(seed: int, index: np.ndarray, scale: float) -> np.ndarray:
    """scale * standard_normals(n, seed)[index] for any n past index, in
    binary64: the two words of each value's pair are drawn at their counters."""
    counters = (index // 2 * 2 + np.array([[1], [2]])).astype(np.uint64)
    return _box_muller(_stream_gather(seed, counters), scale)[index % 2, np.arange(index.size)]


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
    at most 2**14 values, in order on the calling thread, in buffers the
    call allocates once (see _fill_normals); each chunk draws only its own
    stream words, with the same bits as the whole-vector transform.
    _normals_at recomputes any values from their own words, with the same
    bits; the eval harness screens in binary32 after the radius and
    recomputes the values its rows read.
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


def _brackets(ps, n, L, sigma):
    """{p: _bracket's edges} for each p in ps, at the sampler's delta for
    sigma: the same for every trial of an eval run, so built once per run."""
    delta = _screen_error(sigma)
    return {p: _bracket(p, n, L, sigma, delta) for p in ps}


def _split(mag, lo, hi):
    """How many of mag lie below lo, and the indices of those in [lo, hi]:
    at most hi and not below lo, from the one mask. Its masks die here."""
    low = np.less(mag, lo)
    inside = np.less_equal(mag, hi)
    return int(np.count_nonzero(low)), np.flatnonzero(np.greater(inside, low, out=inside))


def _cutoffs(n, sigma, seed, positions, marked, edges):
    """The eval harness's cutoffs, {p: the p-th smallest magnitude} for each
    p of edges, of sigma times the sample of seed with the marked values at
    their L positions. One screened pass, binary32 after the radius (see
    _screened), counts the magnitudes below each p's bracket, edges[p] (see
    _brackets), and keeps those in it (Floyd & Rivest; see _split). The
    screened p-th smallest, g, is within delta of the exact one; lying
    2 delta inside the bracket, only values near it need exact recomputing.
    Else the exact sample, drawn once for every p that misses, is
    partitioned in place, which keeps its values for the next p."""
    delta = _screen_error(sigma)
    below, band = dict.fromkeys(edges, 0), {p: [] for p in edges}
    # Pieces of _PIECE values: the per-rate counts run once a piece.
    buf, scratch = np.empty(min(n, _PIECE), dtype=np.float32), _scratch()
    for start in range(0, n, buf.size):
        piece = buf[: n - start]
        _fill_normals(piece, seed, sigma, start, screen=True, scratch=scratch)
        here = (positions >= start) & (positions < start + piece.size)
        piece[positions[here] - start] = marked[here]
        mag = np.abs(piece, out=piece)
        for p, (lo, hi) in edges.items():
            count, inside = _split(mag, lo, hi)
            below[p] += count
            band[p].append((start + inside, mag[inside]))
    cutoffs, w = {}, None
    for p, (lo, hi) in edges.items():
        index, values = (np.concatenate(parts) for parts in zip(*band[p]))
        rank = p - below[p]
        g = float(np.partition(values, rank)[rank]) if 0 <= rank < values.size else math.nan
        if not float(lo) + 2 * delta <= g <= float(hi) - 2 * delta:
            if w is None:
                w = sample_gaussian_weights(n, sigma, seed)
                w[positions] = marked
                np.abs(w, out=w)
            w.partition(p)
            cutoffs[p] = float(w[p])
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


def _eval_trials(n, sigma, k, alpha, design_rate, two_sided, rates, seed, trials, allow_dense):
    """eval's trials: a random k-bit message embedded in a Gaussian sample of n,
    pruned at each rate, then extracted. Checks every argument before the first
    trial; yields (seed, receipt, [(cutoff, bit errors) per rate]) per trial."""
    _check_sigma(sigma)
    params = find_params(k, alpha).params
    thresholds = design_thresholds(sigma, design_rate, two_sided=two_sided)
    _check_selection(params.L, n, allow_dense)
    ps = [_prune_rank(rate, n) for rate in rates]
    edges = _brackets(ps, n, params.L, sigma)
    for trial_seed in splitmix64_stream(seed, trials).tolist():
        weight_seed, key, message_seed = splitmix64_stream(trial_seed, 3).tolist()
        # encode, then embed_message's selection and projection on the selected
        # weights alone, without their checks: the trial drew all three itself.
        value = _bits_value(random_bits(message_seed, k))
        codeword = np.frombuffer(_codeword(value, params.alpha, params.L), np.uint8)
        positions = np.array(_draw_positions([key], n, params.L), dtype=np.int64)
        alone = EmbedSpec(key, params, thresholds, range(params.L))
        marked = _normals_at(weight_seed, positions, sigma).astype(np.float32)
        (receipt,) = _project(_ArrayPieces(marked), [alone], [codeword])
        cutoffs = _cutoffs(n, sigma, weight_seed, positions, marked, edges)
        sel = np.abs(marked).astype(np.float64)
        # What prune leaves there (ties at the cutoff survive), read as extract does.
        kept = [np.where(sel < cutoffs[p], 0.0, sel).tolist() for p in ps]
        words = [np.frombuffer(_top_alpha(mag, params.alpha), np.uint8) for mag in kept]
        errors = [int(np.count_nonzero(word != codeword)) for word in words]
        yield trial_seed, receipt, [(cutoffs[p], e) for p, e in zip(ps, errors)]
