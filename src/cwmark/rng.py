"""Deterministic 64-bit PRNG primitives (SplitMix64).

The integer stream is the reproducibility contract of this package: any
implementation seeded with the same 64-bit value must produce the same
u64 sequence bit for bit. Floating-point values derived from the stream
(see cwmark.stats) are only comparable within documented tolerances.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit value."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def splitmix64_stream(seed: int, count: int) -> np.ndarray:
    """First `count` outputs of the SplitMix64 stream of `seed`, as uint64.

    SplitMix64 is counter-based: output j (1-based) is
    mix64(seed + j * GOLDEN_GAMMA mod 2**64), so the stream is computed
    for all j at once and no state is carried between draws. This is the
    sequential generator's output, which advances its state by
    GOLDEN_GAMMA and mixes it (Steele, Lea & Flood, OOPSLA 2014).
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(GOLDEN_GAMMA)
    z += np.uint64(seed & MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def u64_to_unit(values: np.ndarray) -> np.ndarray:
    """Map uint64 values to doubles in the half-open interval (0, 1].

    Uses the top 53 bits plus one, so 0.0 can never occur (safe under log).
    """
    return ((values >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


@lru_cache(maxsize=8)
def _lane_constants(n: int) -> tuple:
    """For n 128-bit lanes: 1 in each lane, j * GOLDEN_GAMMA in lane j - 1,
    and 2**64 - 1 in each lane."""
    ones = int.from_bytes(b"\x01".ljust(16, b"\x00") * n, "little")
    steps = int.from_bytes(
        b"".join((j * GOLDEN_GAMMA).to_bytes(16, "little") for j in range(1, n + 1)),
        "little",
    )
    return ones, steps, ones * MASK64


def random_bits(seed: int, count: int) -> np.ndarray:
    """`count` bits of the SplitMix64 stream of `seed`, little-endian in each word.

    The first ceil(count / 64) outputs are made together: lane j - 1 of
    one Python int holds the state for output j, 128 bits per lane, so
    each step of mix64 is one big-integer operation on all lanes. Masking
    every lane back to 64 bits after each shift and product keeps the
    lanes apart, since the product of two 64-bit values fits in 128 bits.
    Callers draw messages of 64 to 1024 bits. Up to 254 bits this costs
    the same as calling mix64 word by word; at 512 and 1024 bits it is
    about 1.7x and 2.4x faster, and throughout 2-3x faster than building
    splitmix64_stream's arrays (2-CPU Xeon, Python 3.11).
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    n = (count + 63) // 64
    ones, steps, low = _lane_constants(n)
    z = ((int(seed) & MASK64) * ones + steps) & low  # lane j - 1: seed + j*gamma
    z = ((z ^ ((z >> 30) & low)) * 0xBF58476D1CE4E5B9) & low
    z = ((z ^ ((z >> 27) & low)) * 0x94D049BB133111EB) & low
    z ^= (z >> 31) & low
    lanes = np.frombuffer(z.to_bytes(16 * n, "little"), dtype=np.uint8)
    return np.unpackbits(lanes.reshape(n, 16)[:, :8], count=count, bitorder="little")
