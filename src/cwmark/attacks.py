"""Attacks to exercise the watermark against: pruning, noise, targeted flips.

A prune pass needs only detect and model_io besides numpy, so the module
imports the sampler (stats, rng) and the embedder (watermark) inside the
functions that use them, and the CLI's prune verb loads none of the three.
"""

from __future__ import annotations

import math

import numpy as np

from .detect import _PIECE, _prune_rank
from .errors import CwmarkError, _record
from .model_io import _all_finite


@_record
class PruneSpec:
    """What a magnitude-pruning pass actually did."""

    rate: float
    p: int
    cutoff: float
    zeroed: int


def prune(weights, rate: float) -> tuple[np.ndarray, PruneSpec]:
    """Zero the weights whose magnitude falls below the rate quantile.

    With n weights and p = floor(rate * n), the cutoff is the p-th
    smallest magnitude (0-indexed) and entries with magnitude strictly
    below it are zeroed. Ties at the cutoff survive, so the realized
    zero count can be below p.
    """
    from .watermark import _ArrayPieces, as_weight_vector

    w = as_weight_vector(weights)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"prune rate must be in [0, 1), got {rate}")
    out = w.copy()
    return out, _prune_into(_ArrayPieces(out), rate)


def _magnitude_patterns(source):
    """One pass over source: (start, bits, mag) for each piece, where bits are
    its binary32 patterns and mag, in one reused buffer, is bits & 0x7FFFFFFF."""
    buf = np.empty(min(source.n, _PIECE), dtype=np.uint32)
    for start, piece in source.pieces():
        bits = np.frombuffer(piece, dtype=np.uint32)
        mag = buf[: bits.size]
        np.bitwise_and(bits, 0x7FFFFFFF, out=mag)
        yield start, bits, mag


def _bucket_of(counts: np.ndarray, rank: int) -> tuple[int, int]:
    """The bucket holding the rank-th smallest (0-indexed) of the counted
    values, and that value's rank among the bucket's own. counts becomes
    its running sum."""
    np.cumsum(counts, out=counts)
    bucket = int(np.searchsorted(counts, rank, side="right"))
    return bucket, rank - (int(counts[bucket - 1]) if bucket else 0)


# The least count of _pattern_at's sample: 512 KiB of patterns, the size
# of the 2**16-entry int64 histogram that _histogram_select counts in.
_SAMPLE = 1 << 17


def _sample_size(n: int) -> int:
    """The count _pattern_at's sample aims at for n weights: _SAMPLE, or
    n**(2/3) past _SAMPLE**1.5 weights (2**25.5, about 47M). Its band buffer
    holds at most about 8 n / sqrt(count) values, so both grow as n**(2/3)."""
    return max(_SAMPLE, round(n ** (2 / 3)))


def _pattern_at(source, rank: int) -> tuple[int, int, int]:
    """The rank-th smallest (0-indexed) magnitude pattern of the finite binary32
    source: (pattern, rank's rank among its ties, count above it).

    Finite magnitudes order like their bit patterns with the sign cleared
    (-0.0 as +0.0, as np.abs gives), so no n-sized buffer is needed. The
    select brackets rank from a sample (Floyd & Rivest, CACM 1975) in two
    passes: _bracket's sample gives edge patterns lo < hi, then _band
    counts the patterns below lo, at lo and at hi, and keeps those strictly
    between. When rank falls at lo, at hi or in the band, those give the
    exact result; when it does not, or the band outgrew its buffer,
    _histogram_select does."""
    lo, hi, size = _bracket(source, rank)
    below, at_lo, band, at_hi = _band(source, lo, hi, size)
    if band is not None:
        r = rank - below - at_lo  # rank's place in the band
        above = source.n - below - at_lo  # the count above lo
        if -at_lo <= r < 0:
            return lo, r + at_lo, above
        if 0 <= r < band.size:
            band.partition(r)
            pattern = band[r]
            ties = r - int(np.count_nonzero(band < pattern))
            return int(pattern), ties, above - int(np.count_nonzero(band <= pattern))
        if 0 <= r - band.size < at_hi:
            return hi, r - band.size, above - band.size - at_hi
        del band  # before the histogram's passes
    return _histogram_select(source, rank)


def _bracket(source, rank: int) -> tuple[int, int, int]:
    """_pattern_at's first pass: every step-th magnitude pattern of the source,
    step = ceil(n / _sample_size(n)), in one buffer of m values, partitioned
    in place at q -+ (4 sd + 2), where q = (rank + 1/2) m / n is rank's place in
    the sample and sd = sqrt(q (m - q) / m) its spread. Gives the patterns there,
    lo and hi (0 and all-ones past either end; hi at least lo + 1), and the
    band's buffer size: twice the count the bracket is expected to hold, plus
    1024, at most n."""
    n = source.n
    step = -(-n // _sample_size(n))
    sample = np.empty(-(-n // step), dtype=np.uint32)
    for start, piece in source.pieces():
        first = -start % step
        bits = np.frombuffer(piece, dtype=np.uint32)[first::step]
        at = (start + first) // step
        np.bitwise_and(bits, 0x7FFFFFFF, out=sample[at : at + bits.size])
    m = sample.size
    q = (rank + 0.5) * m / n
    half = 4.0 * math.sqrt(q * (m - q) / m) + 2.0
    a, b = math.floor(q - half), math.ceil(q + half)
    # One in-place partition per edge: numpy's partition at both kth at
    # once took 17 times as long on the 2**17-value sample.
    lo, hi = 0, 0xFFFFFFFF
    if a >= 0:
        sample.partition(a)
        lo = int(sample[a])
    if b < m:
        sample.partition(b)
        hi = max(int(sample[b]), lo + 1)
    return lo, hi, min(n, 2 * (b - a) * n // m + 1024)


def _band(source, lo: int, hi: int, size: int) -> tuple[int, int, np.ndarray | None, int]:
    """_pattern_at's second pass, for lo < hi: the counts of patterns below lo
    and at lo, the patterns strictly between lo and hi in a buffer of size
    values (None, as soon as they outgrow it), and the count at hi. Ties at
    either edge are counted, not kept, so a vector of many equal weights (one
    already pruned, say) keeps its band small."""
    band, kept, below, at_lo, at_hi = np.empty(size, dtype=np.uint32), 0, 0, 0, 0
    hit = np.empty(min(source.n, _PIECE), dtype=bool)
    for _, _, mag in _magnitude_patterns(source):
        inside = hit[: mag.size]
        below += int(np.count_nonzero(np.less(mag, lo, out=inside)))
        at_lo += int(np.count_nonzero(np.equal(mag, lo, out=inside)))
        at_hi += int(np.count_nonzero(np.equal(mag, hi, out=inside)))
        mag -= lo + 1  # lo and the patterns below it wrap past hi - lo - 1
        count = int(np.count_nonzero(np.less(mag, hi - lo - 1, out=inside)))
        if kept + count > size:
            return below, at_lo, None, at_hi
        np.compress(inside, mag, out=band[kept : kept + count])
        kept += count
    band = band[:kept]
    band += lo + 1
    return below, at_lo, band, at_hi


def _histogram_select(source, rank: int) -> tuple[int, int, int]:
    """_pattern_at in two passes that need no sample, for a source whose band
    missed: the high 16 bits come from counting those of all n patterns, the
    low 16 bits from counting those of the patterns that share the high bits."""
    counts = np.zeros(1 << 16, dtype=np.int64)
    for _, _, mag in _magnitude_patterns(source):
        mag >>= 16
        np.add.at(counts, mag, 1)
    top, rank = _bucket_of(counts, rank)
    above = source.n - int(counts[top])
    counts[:] = 0
    for _, _, mag in _magnitude_patterns(source):
        mag -= top << 16  # patterns below the bucket wrap past it
        np.add.at(counts, mag[mag < counts.size], 1)
    bottom, rank = _bucket_of(counts, rank)
    return top << 16 | bottom, rank, above + int(counts[-1] - counts[bottom])


def _prune_into(source, rate: float) -> PruneSpec:
    """prune on the finite binary32 source, whose last pass puts every piece pruned;
    trusts the source and rate. It zeroes each pattern below the cutoff's, to +0.0."""
    p = _prune_rank(rate, source.n)
    pattern, rank, _ = _pattern_at(source, p)
    for _, bits, mag in _magnitude_patterns(source):
        # 0 below the cutoff's pattern, 1 from it on: the product turns a
        # pruned weight into +0.0 and keeps every other bit for bit.
        np.greater_equal(mag, pattern, out=mag, casting="unsafe")
        bits *= mag
        source.put(bits)
    cutoff = float(np.uint32(pattern).view(np.float32))
    # rank is p's rank among the ties at the cutoff, which all survive.
    return PruneSpec(rate=rate, p=p, cutoff=cutoff, zeroed=p - rank)


def add_noise(weights, sigma_noise: float, seed: int) -> np.ndarray:
    """Add i.i.d. zero-mean Gaussian noise with the given standard deviation.

    Noise is drawn by the deterministic generator behind standard_normals,
    added in binary64 one chunk at a time, and rounded back to binary32.
    """
    from .watermark import _ArrayPieces, as_weight_vector

    w = as_weight_vector(weights)
    if not sigma_noise >= 0.0:  # also refuses NaN
        raise ValueError(f"noise level must be nonnegative, got {sigma_noise}")
    out = w.copy()
    _add_noise_into(_ArrayPieces(out), sigma_noise, seed)
    return out


def _add_noise_into(source, sigma_noise: float, seed: int) -> None:
    """add_noise on the finite binary32 source, in one pass that puts every
    piece; trusts sigma_noise. Refuses a level whose noised weights leave
    binary32 (CwmarkError), at the first piece that does. The sampler draws
    each piece's noise on this thread, under its errstate."""
    from .stats import _fill_normals, _scratch

    drawn, scratch = np.empty(min(source.n, _PIECE), dtype=np.float64), _scratch()
    for start, piece in source.pieces():
        piece = np.asarray(piece)
        # Adding 0 * normal would turn -0.0 into +0.0.
        if sigma_noise:
            noise = drawn[: piece.size]
            with np.errstate(over="ignore", invalid="ignore"):
                _fill_normals(noise, seed, sigma_noise, start, scratch=scratch)
                noise += piece
                piece[:] = noise
            if not _all_finite(bytearray(piece)):
                raise CwmarkError(f"noise level {sigma_noise!r} overflows binary32")
        source.put(piece)


def targeted_flip_attack(
    weights, budget: int, seed: int, strategy: str = "suppress"
) -> tuple[np.ndarray, np.ndarray]:
    """Adversary without the key tries to corrupt the hidden codeword.

    "suppress" shrinks the `budget` largest magnitudes down to the first
    magnitude below them, hoping to knock 1-positions out of the top set.
    "inflate" grows `budget` small-magnitude entries (chosen by seed) to
    twice the RMS weight scale so they crowd into the top set. Returns the
    attacked vector and the touched indices, which come out of the write pass
    in index order. Beside the copy, the candidate pool and the touched list
    are O(budget); budget = n touches every weight, and suppress sets each to 0.
    """
    from .watermark import _ArrayPieces, as_weight_vector

    out = as_weight_vector(weights).copy()
    return out, _attack_into(_ArrayPieces(out), budget, seed, strategy)


def _attack_into(source, budget: int, seed: int, strategy: str) -> np.ndarray:
    """targeted_flip_attack on the finite binary32 source: checks all, then its last
    pass puts every piece attacked and gives the touched indices in index order."""
    from .stats import _rms

    n = source.n
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if budget > n:
        raise ValueError(f"budget {budget} exceeds vector length {n}")
    if strategy not in ("suppress", "inflate"):
        raise ValueError(f"unknown attack strategy {strategy!r}")
    picked, value, beyond = None, 0.0, None
    if budget and strategy == "suppress":
        # Stable descending order: all above the value, then its first ties (n: all, at 0).
        pattern, _, above = _pattern_at(source, n - budget - 1) if budget < n else (0, 0, 0)
        beyond, ties = np.greater, budget - above
        value = float(np.uint32(pattern).view(np.float32))
    elif budget:
        scale = _rms(source.pieces(), n) or 1.0
        # In binary64: scale / 2 rounded to binary32 may admit a weight above it.
        picked, value = _bottom_k(source, budget, seed, np.float64(scale / 2.0)), 2.0 * scale
        if picked is None:  # too few candidates: the budget smallest magnitudes
            pattern, rank, _ = _pattern_at(source, budget - 1)
            beyond, ties = np.less, rank + 1
    touched, lo = np.empty(budget, dtype=np.int64) if picked is None else picked, 0
    for start, bits, mag in _magnitude_patterns(source):
        if beyond is None:  # _bottom_k's sorted picks (or none)
            hi = np.searchsorted(touched, start + mag.size)
        else:  # beyond(mag, pattern), then pattern's first ties
            hit, tied = beyond(mag, pattern), np.flatnonzero(mag == pattern)[:ties]
            hit[tied], ties = True, ties - tied.size
            hi = lo + np.count_nonzero(hit)
            touched[lo:hi] = np.flatnonzero(hit) + start
        at, lo = touched[lo:hi] - start, hi
        piece = bits.view(np.float32)
        piece[at] = np.where(piece[at] >= 0, value, -value)  # -0.0 counts as >= 0
        source.put(piece)
    return touched


def _bottom_k(source, budget: int, seed: int, bound) -> np.ndarray | None:
    """Bottom-k sampling (Cohen & Kaplan, PODC 2007) in one pass: the sorted indices
    of the budget candidates (magnitude <= bound) with the smallest keys, candidate
    j's key being output j + 1 of seed's stream; None, as soon as the candidates
    seen and the weights left fall short of budget. The keys are distinct; those
    held fold to the budget smallest at 2 * budget."""
    from .rng import MASK64, _stream_at

    keys, idx, seen, cut = [], [], 0, np.uint64(MASK64)
    for start, _, mag in _magnitude_patterns(source):
        at = np.flatnonzero(mag.view(np.float32) <= bound)
        left = source.n - start - mag.size
        if seen + at.size + left < budget:
            return None
        drawn = _stream_at(seed, seen, at.size)
        seen += at.size
        kept = drawn <= cut
        keys.append(drawn[kept])
        idx.append(at[kept] + start)
        if sum(map(len, keys)) >= 2 * budget or not left:
            keys, idx = np.concatenate(keys), np.concatenate(idx)
            keep = np.argpartition(keys, budget - 1)[:budget]
            keys, idx, cut = [keys[keep]], [idx[keep]], keys[keep].max()
    return np.sort(idx[0])
