"""Detection in plain Python: the records a spec holds, and extraction.

ThresholdPair, EmbedSpec and SpecDocument are what a spec file records.
_by_piece walks keyed positions through a pass over a piece source, for
embedding (watermark._project) and extraction alike. _extract_words
gathers the selected weights' binary32 patterns in one such pass and
marks the alpha largest magnitudes of each block as its ones;
_decode_blocks maps those codewords back to the message. _prune_rank,
the rank of a prune's cutoff, sits beside _PIECE so that attacks and
eval's trial share it without attacks importing stats. Nothing here
imports numpy, so the CLI's extract verb, which reads its weight file
through model_io, runs without it. watermark, stats and model_io
re-export these names.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left
from itertools import compress

from .codec import CodeParams, _message_index
from .errors import MessageRangeError, PositionRangeError, _record

# Weights per piece of a pass over a vector or a weight file (256 KiB).
# A piece source has n and one pass over its values in order, pieces(),
# which yields (start, piece) with piece a C-contiguous buffer of at most
# _PIECE native binary32 values. A step that changes the values changes
# them through an array on that buffer and then hands the array to put,
# which takes any C-contiguous buffer of native binary32 values.
# watermark._ArrayPieces and model_io._WeightFile are the two sources.
_PIECE = 1 << 16


def _prune_rank(rate: float, n: int) -> int:
    """prune's p = floor(rate * n), the cutoff's rank, held below n."""
    return min(int(math.floor(rate * n)), n - 1)


_BINARY32_PAIR = struct.Struct("<2f")


@_record
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
        try:  # packing rounds to nearest, as a binary32 cast does
            t0, t1 = _BINARY32_PAIR.unpack(_BINARY32_PAIR.pack(self.t0, self.t1))
        except OverflowError:  # only t1 can round past binary32
            raise ValueError("t1 overflows binary32") from None
        if not t0 < t1:
            raise ValueError("t0 and t1 collapse to the same binary32 value")

    def __iter__(self):
        return iter((self.t0, self.t1))


@_record
class EmbedSpec:
    """Everything needed to embed or re-extract one codeword."""

    key: int
    params: CodeParams
    thresholds: ThresholdPair
    positions: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.key < 1 << 64:
            raise ValueError("key must be an unsigned 64-bit integer")
        object.__setattr__(self, "positions", tuple(map(int, self.positions)))
        if len(self.positions) != self.params.L:
            raise ValueError(
                f"{len(self.positions)} positions for codeword length {self.params.L}"
            )
        if len(set(self.positions)) != len(self.positions):
            raise ValueError("positions must be distinct")
        if min(self.positions) < 0:
            raise ValueError("positions must be nonnegative")


@_record
class SpecDocument:
    """One watermark's full recovery record: metadata plus per-block specs.

    Single-codeword watermarks are the one-block case. All blocks share
    the key, code parameters, and thresholds; position sets are disjoint.
    total_bits is the payload length before zero-padding the last block.
    """

    specs: tuple[EmbedSpec, ...]
    sigma: float
    rate: float
    total_bits: int

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        if not self.specs:
            raise ValueError("document needs at least one block spec")
        first = self.specs[0]
        for spec in self.specs[1:]:
            if (
                spec.key != first.key
                or spec.params != first.params
                or spec.thresholds != first.thresholds
            ):
                raise ValueError("blocks must share key, params, and thresholds")
        seen: set[int] = set()
        for spec in self.specs:
            if not seen.isdisjoint(spec.positions):
                raise ValueError("block position sets must be disjoint")
            seen.update(spec.positions)
        k = first.params.k
        blocks = len(self.specs)
        if not (blocks - 1) * k < self.total_bits <= blocks * k:
            raise ValueError(
                f"total_bits {self.total_bits} inconsistent with "
                f"{blocks} blocks of {k} bits"
            )
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be positive and finite")
        if not 0.0 <= self.rate < 1.0:
            raise ValueError("rate must lie in [0, 1)")

    @classmethod
    def single(cls, spec: EmbedSpec, sigma: float, rate: float) -> "SpecDocument":
        return cls(specs=(spec,), sigma=sigma, rate=rate, total_bits=spec.params.k)

    @property
    def spec(self) -> EmbedSpec:
        if len(self.specs) != 1:
            raise ValueError("document holds multiple blocks; use .specs")
        return self.specs[0]


def _check_positions(specs, n: int) -> None:
    """Refuse the first spec with a position past a vector of n (PositionRangeError)."""
    for spec in specs:
        top = max(spec.positions)
        if top >= n:
            raise PositionRangeError(
                f"spec position {top} out of range for vector of length {n}"
            )


def _by_piece(pieces, pos):
    """(start, piece, js) for each (start, piece) that pieces yields in order,
    where js lists the indices j of the positions pos[j] that piece holds,
    in position order; each index comes once, in the piece that holds it."""
    ranked = sorted(range(len(pos)), key=pos.__getitem__)
    edges = [pos[j] for j in ranked]
    lo = 0
    for start, piece in pieces:
        hi = bisect_left(edges, start + len(piece), lo)
        yield start, piece, ranked[lo:hi]
        lo = hi


def _extract_words(source, specs) -> list[bytearray]:
    """Each spec's codeword (one 0/1 byte per position) from the finite
    binary32 source, gathering all their positions in one pass over it;
    every position is range-checked first.

    A finite binary32 magnitude orders like its bit pattern with the sign
    cleared (-0.0 as +0.0), so the gather keeps those patterns as ints.
    """
    _check_positions(specs, source.n)
    pos = [p for spec in specs for p in spec.positions]
    mag = [0] * len(pos)
    for start, piece, js in _by_piece(source.pieces(), pos):
        bits = memoryview(piece).cast("B").cast("I")
        for j in js:
            mag[j] = bits[pos[j] - start] & 0x7FFFFFFF
    words, at = [], 0
    for spec in specs:
        words.append(_top_alpha(mag[at : at + spec.params.L], spec.params.alpha))
        at += spec.params.L
    return words


def _top_alpha(mag, alpha: int) -> bytearray:
    """Ones at the alpha largest of the list mag; ties go to the lower index
    (a stable sort, which reverse=True keeps stable)."""
    word = bytearray(len(mag))
    for i in sorted(range(len(mag)), key=mag.__getitem__, reverse=True)[:alpha]:
        word[i] = 1
    return word


def _join(blocks, total_bits: int) -> int:
    """The first total_bits bits of blocks, (value, bit count) pairs in
    message order, joined little-endian; block j's bit t is bit t of its
    value. Nonzero bits past total_bits mean the message does not fit in
    it, so they raise MessageRangeError, as an out-of-range block does."""
    if total_bits < 1:
        raise ValueError("total_bits must be >= 1")
    joined = size = 0
    for value, bits in blocks:
        joined |= value << size
        size += bits
    if size < total_bits:
        raise ValueError(f"blocks hold {size} bits, need {total_bits}")
    if joined >> total_bits:
        raise MessageRangeError("padding bits beyond total_bits must be zero")
    return joined


def _decode_blocks(words, specs, total_bits: int) -> int:
    """The message that each spec's codeword decodes to, rejoined to its first
    total_bits bits (see _join). Every block is decoded before they are joined."""
    return _join(
        [
            (_message_index(list(compress(range(len(word)), word)), spec.params), spec.params.k)
            for word, spec in zip(words, specs)
        ],
        total_bits,
    )
