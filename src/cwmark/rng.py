"""Deterministic 64-bit PRNG primitives (SplitMix64).

The integer stream is the reproducibility contract of this package: any
implementation seeded with the same 64-bit value must produce the same
u64 sequence bit for bit. Floating-point values derived from the stream
(see cwmark.stats) are only comparable within documented tolerances.
"""

from __future__ import annotations

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
    GOLDEN_GAMMA and mixes it (Steele, Lea & Flood, OOPSLA 2014);
    _stream_at draws any stretch of it on its own.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    return _stream_at(seed, 0, count)


def _stream_at(seed: int, first: int, count: int, scratch=None) -> np.ndarray:
    """Outputs first + 1 .. first + count of the SplitMix64 stream of
    `seed`, in words of scratch (steps, words, spare), count or more uint64
    each, steps[j] = (j + 1) * GOLDEN_GAMMA mod 2**64; trusts first and
    count to be nonnegative. Without scratch, words is the steps it builds."""
    if scratch is None:
        steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GOLDEN_GAMMA)
        scratch = steps, steps, np.empty_like(steps)
    steps, z, spare = scratch
    start = np.uint64((first * GOLDEN_GAMMA + int(seed)) & MASK64)  # int: a numpy seed
    z, spare = np.add(steps[:count], start, out=z[:count]), spare[:count]
    z ^= np.right_shift(z, np.uint64(30), out=spare)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=spare)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=spare)
    return z


def _stream_gather(seed: int, z: np.ndarray) -> np.ndarray:
    """Outputs z (1-based uint64 counters, in any order) of the SplitMix64
    stream of `seed`, computed in z."""
    z *= np.uint64(GOLDEN_GAMMA)
    return _stream_at(seed, 0, z.size, (z, z, np.empty_like(z)))


def u64_to_unit(values: np.ndarray) -> np.ndarray:
    """Map uint64 values to doubles in the half-open interval (0, 1].

    Uses the top 53 bits plus one, so 0.0 can never occur (safe under log).
    """
    return ((values >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


def random_bits(seed: int, count: int) -> np.ndarray:
    """`count` bits of the SplitMix64 stream of `seed`, little-endian in each word.

    Word j (1-based) is mix64(seed + j * GOLDEN_GAMMA), output j of the
    stream; the bits are those of words 1 .. ceil(count / 64), in order,
    least significant bit first.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    seed = int(seed)  # a numpy seed would overflow seed + j * GOLDEN_GAMMA
    words = b"".join(
        mix64(seed + j * GOLDEN_GAMMA).to_bytes(8, "little")
        for j in range(1, (count + 63) // 64 + 1)
    )
    return np.unpackbits(np.frombuffer(words, np.uint8), count=count, bitorder="little")
