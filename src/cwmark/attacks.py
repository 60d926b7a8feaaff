"""Attacks to exercise the watermark against: pruning, noise, targeted flips."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CwmarkError
from .rng import splitmix64_stream
from .stats import _fill_normals, estimate_sigma
from .watermark import _PIECE, _all_finite, _ArrayPieces, as_weight_vector


@dataclass(frozen=True)
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
    w = as_weight_vector(weights)
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"prune rate must be in [0, 1), got {rate}")
    out = w.copy()
    return out, _prune_into(_ArrayPieces(out), rate)


def _magnitude_patterns(source, buf: np.ndarray):
    """One pass over source: (bits, mag) for each piece, where bits are its
    binary32 patterns and mag, written into buf, is bits & 0x7FFFFFFF."""
    for _, piece in source.pieces():
        bits = piece.view(np.uint32)
        mag = buf[: bits.size]
        np.bitwise_and(bits, 0x7FFFFFFF, out=mag)
        yield bits, mag


def _bucket_of(counts: np.ndarray, rank: int) -> tuple[int, int]:
    """The bucket holding the rank-th smallest (0-indexed) of the counted
    values, and that value's rank among the bucket's own. counts becomes
    its running sum."""
    np.cumsum(counts, out=counts)
    bucket = int(np.searchsorted(counts, rank, side="right"))
    return bucket, rank - (int(counts[bucket - 1]) if bucket else 0)


def _prune_into(source, rate: float) -> PruneSpec:
    """prune on the finite binary32 source, whose last pass puts every
    piece pruned; trusts the source and rate.

    Finite magnitudes order like their bit patterns with the sign cleared,
    and clearing it maps -0.0 to +0.0 as np.abs does. So the cutoff's
    pattern is found without an n-sized buffer: its high 16 bits by
    counting the high bits of all n patterns, its low 16 bits by counting
    the low bits of the patterns that share those high bits. A third pass
    zeroes every weight whose pattern lies below it, to +0.0.
    """
    n = source.n
    p = min(int(math.floor(rate * n)), n - 1)
    buf = np.empty(min(n, _PIECE), dtype=np.uint32)
    counts = np.zeros(1 << 16, dtype=np.int64)
    for _, mag in _magnitude_patterns(source, buf):
        mag >>= 16
        np.add.at(counts, mag, 1)
    top, rank = _bucket_of(counts, p)
    counts[:] = 0
    for _, mag in _magnitude_patterns(source, buf):
        mag -= top << 16  # patterns below the bucket wrap past it
        np.add.at(counts, mag[mag < counts.size], 1)
    bottom, rank = _bucket_of(counts, rank)
    pattern = top << 16 | bottom
    for bits, mag in _magnitude_patterns(source, buf):
        # 0 below the cutoff's pattern, 1 from it on: the product turns a
        # pruned weight into +0.0 and keeps every other bit for bit.
        np.greater_equal(mag, pattern, out=mag, casting="unsafe")
        bits *= mag
        source.put(bits)
    cutoff = float(np.uint32(pattern).view(np.float32))
    # rank is now p's rank among the ties at the cutoff, which all survive.
    return PruneSpec(rate=rate, p=p, cutoff=cutoff, zeroed=p - rank)


def add_noise(weights, sigma_noise: float, seed: int) -> np.ndarray:
    """Add i.i.d. zero-mean Gaussian noise with the given standard deviation.

    Noise is drawn by the deterministic generator behind standard_normals,
    added in binary64 one chunk at a time, and rounded back to binary32.
    """
    w = as_weight_vector(weights)
    if not sigma_noise >= 0.0:  # also refuses NaN
        raise ValueError(f"noise level must be nonnegative, got {sigma_noise}")
    out = w.copy()
    _add_noise_into(_ArrayPieces(out), sigma_noise, seed)
    return out


def _add_noise_into(source, sigma_noise: float, seed: int) -> None:
    """add_noise on the finite binary32 source, in one pass that puts every
    piece; trusts sigma_noise. Refuses a level whose noised weights leave
    binary32 (CwmarkError), at the first piece that does. A piece of at
    most two sampler chunks is drawn on this thread, under its errstate."""
    drawn = np.empty(min(source.n, _PIECE), dtype=np.float64)
    for start, piece in source.pieces():
        # Adding 0 * normal would turn -0.0 into +0.0.
        if sigma_noise:
            noise = drawn[: piece.size]
            with np.errstate(over="ignore", invalid="ignore"):
                _fill_normals(noise, seed, sigma_noise, start)
                noise += piece
                piece[:] = noise
            if not _all_finite(piece):
                raise CwmarkError(f"noise level {sigma_noise!r} overflows binary32")
        source.put(piece)


def targeted_flip_attack(
    weights, budget: int, seed: int, strategy: str = "suppress"
) -> tuple[np.ndarray, np.ndarray]:
    """Adversary without the key tries to corrupt the hidden codeword.

    "suppress" shrinks the `budget` largest magnitudes down to the first
    magnitude below them, hoping to knock 1-positions out of the top set.
    "inflate" grows `budget` small-magnitude entries (chosen by seed) to
    twice the RMS weight scale so they crowd into the top set. Returns
    the attacked vector and the sorted touched indices.
    """
    w = as_weight_vector(weights)
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if budget > w.size:
        raise ValueError(f"budget {budget} exceeds vector length {w.size}")
    if budget == 0:
        return w.copy(), np.empty(0, dtype=np.int64)
    mag = np.abs(w)  # binary32 keeps the order and ties of the binary64 widening
    if strategy == "suppress":
        if budget < w.size:
            # A stable descending order takes every magnitude above the
            # budget-th largest, top, then the lowest-index ties at it.
            mag.partition(w.size - budget - 1)
            value, top = mag[w.size - budget - 1], mag[w.size - budget :].min()
            np.abs(w, out=mag)
            above = np.flatnonzero(mag > top)
            ties = np.flatnonzero(mag == top)[: budget - above.size]
            idx = np.concatenate([above, ties])
        else:
            idx, value = np.arange(w.size), 0.0
    elif strategy == "inflate":
        scale = estimate_sigma(w) or 1.0
        # In binary64: scale / 2 rounded to binary32 may admit a weight above it.
        candidates = np.flatnonzero(mag <= np.float64(scale / 2.0))
        if candidates.size < budget:
            candidates = np.argsort(mag, kind="stable")[:budget]
        keys = splitmix64_stream(seed, candidates.size)
        idx = candidates[np.argsort(keys, kind="stable")[:budget]]
        value = 2.0 * scale
    else:
        raise ValueError(f"unknown attack strategy {strategy!r}")
    out = w.copy()
    out[idx] = np.where(w[idx] >= 0, value, -value)
    return out, np.sort(idx)
