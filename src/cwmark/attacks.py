"""Attacks to exercise the watermark against: pruning, noise, targeted flips."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import splitmix64_stream
from .stats import _normal_chunks, estimate_sigma
from .watermark import as_weight_vector


@dataclass(frozen=True)
class PruneSpec:
    """What a magnitude-pruning pass actually did."""

    rate: float
    p: int
    cutoff: float
    zeroed: int


# Weights prune zeroes at once (256 KiB of binary32 and its 64 KiB mask).
_PRUNE_CHUNK = 1 << 16


def _cutoffs(mag: np.ndarray, rates) -> list[tuple[int, float]]:
    """(p, cutoff) for each rate, in the given order, over the magnitudes mag.

    p = min(floor(rate * n), n - 1) and the cutoff is the p-th smallest
    magnitude (0-indexed). mag is partitioned in place: the distinct p are
    visited in ascending order, and each partitions only the tail
    mag[p_prev:], which after the partition at p_prev holds exactly the
    values of rank >= p_prev, so its (p - p_prev)-th smallest is the p-th.
    """
    n = mag.size
    ps = [min(int(math.floor(rate * n)), n - 1) for rate in rates]
    cutoff = {}
    prev = 0
    for p in sorted(set(ps)):
        tail = mag[prev:]
        tail.partition(p - prev)
        cutoff[p] = float(tail[p - prev])
        prev = p
    return [(p, cutoff[p]) for p in ps]


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
    out = np.abs(w)
    [(p, cutoff)] = _cutoffs(out, [rate])
    # Partitioning scrambled the magnitudes; refill the buffer with w and
    # zero it a chunk at a time rather than hold an n-sized mask.
    np.copyto(out, w)
    zeroed = 0
    for start in range(0, out.size, _PRUNE_CHUNK):
        chunk = out[start : start + _PRUNE_CHUNK]
        mask = np.abs(chunk) < cutoff
        chunk[mask] = 0.0
        zeroed += int(np.count_nonzero(mask))
    return out, PruneSpec(rate=rate, p=p, cutoff=cutoff, zeroed=zeroed)


def add_noise(weights, sigma_noise: float, seed: int) -> np.ndarray:
    """Add i.i.d. zero-mean Gaussian noise with the given standard deviation.

    Noise is drawn by the deterministic generator behind standard_normals,
    added in binary64 one chunk at a time, and rounded back to binary32.
    """
    w = as_weight_vector(weights)
    if sigma_noise < 0.0:
        raise ValueError(f"noise level must be nonnegative, got {sigma_noise}")
    out = w.copy()
    if sigma_noise == 0.0:
        return out
    for start, values in _normal_chunks(w.size, seed):
        values *= sigma_noise
        values += w[start : start + values.size]
        out[start : start + values.size] = values
    return out


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
