"""Keyed embedding and extraction of constant-weight codewords in weight vectors.

Embedding pushes the magnitude of 1-coded positions to at least t1 and
caps 0-coded positions at t0. Because 0 < t0 < t1, extraction is just
"the alpha largest magnitudes are the ones", which survives any attack
that removes small magnitudes without touching large ones.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .codec import CodeParams, _bits_value, as_bits, encode, find_params, int_to_bits
from .detect import (
    _PIECE, EmbedSpec, ThresholdPair, _by_piece, _check_positions, _decode_blocks,
    _extract_words, _join,
)
from .errors import MalformedCodewordError, SelectionRatioError, _record
from .model_io import _all_finite
from .rng import GOLDEN_GAMMA, MASK64, _stream_at, mix64

# Positions must cover at most 1/DENSITY_LIMIT of the host vector so the
# watermark stays statistically invisible; override only for tests/toys.
DENSITY_LIMIT = 100


class _ArrayPieces:
    """A finite binary32 vector as a piece source for the chunked steps
    (see detect._PIECE). Each piece is the vector's slice made C-contiguous:
    a view of a contiguous vector, as the copies that the steps which change
    values own are, so they change it in place and put has nothing to do;
    a copy, one piece at a time, of a strided vector, which steps only
    read. model_io reads and writes a weight file the same way.
    """

    def __init__(self, w: np.ndarray):
        self.w = w
        self.n = w.size

    def pieces(self):
        for start in range(0, self.n, _PIECE):
            yield start, np.ascontiguousarray(self.w[start : start + _PIECE])

    def put(self, piece: np.ndarray) -> None:
        pass


def as_weight_vector(values) -> np.ndarray:
    """Coerce to a nonempty one-dimensional binary32 vector free of NaN and infinity."""
    w = np.asarray(values, dtype=np.float32)
    if w.ndim != 1:
        raise ValueError("weight vector must be one-dimensional")
    if w.size < 1:
        raise ValueError("weight vector must not be empty")
    if not all(_all_finite(bytearray(piece)) for _, piece in _ArrayPieces(w).pieces()):
        raise ValueError("weight vector must be finite")
    return w


def _check_selection(l: int, n: int, allow_dense: bool) -> None:
    """Refuse l positions in a vector of n: more than n, or past the density limit."""
    if l > n:
        raise ValueError(f"cannot select {l} positions from {n}")
    if not allow_dense and l * DENSITY_LIMIT > n:
        raise SelectionRatioError(
            f"{l} positions in a vector of {n} exceeds the 1/{DENSITY_LIMIT} "
            "density limit; pass allow_dense/--force to override"
        )


def select_positions(key: int, n: int, l: int, allow_dense: bool = False) -> np.ndarray:
    """l distinct indices in [0, n), deterministic in (key, n, l).

    Partial Fisher-Yates shuffle over 0..n-1: step i swaps index i with
    index i + (d_i mod (n - i)), where d_i = mix64(key + (i + 1) * GOLDEN_GAMMA)
    is output i of splitmix64_stream(key, l). Uniform without replacement
    up to the modulo bias (< n / 2**64), which is accepted for bit-exact
    agreement across implementations. Output order is selection order.
    """
    if l < 1:
        raise ValueError("must select at least one position")
    _check_selection(l, n, allow_dense)
    return np.array(_draw_positions([key], n, l), dtype=np.int64)


def _draw_positions(seeds, n: int, l: int, taken=()) -> list[int]:
    """select_positions' draw for the first seed whose positions miss taken;
    each draw stops at its first position in taken."""
    for seed in seeds:
        swapped: dict[int, int] = {}
        out = []
        for i, draw in enumerate(chain.from_iterable(_stream_pieces(seed, l))):
            j = i + draw % (n - i)
            position = swapped.get(j, j)
            if taken and position in taken:
                break
            out.append(position)
            swapped[j] = swapped.get(i, i)
        else:
            return out
    raise SelectionRatioError("could not find disjoint positions for all blocks")


def _stream_pieces(seed: int, l: int):
    """splitmix64_stream(seed, l) as lists of ints, in pieces that double
    from 256 words, so a draw that stops early computes few words past it.
    """
    start, size = 0, 256
    while start < l:
        yield _stream_at(seed, start, min(size, l - start)).tolist()
        start, size = start + size, 2 * size


@_record
class EmbedReceipt:
    """Audit record of one embedding."""

    spec: EmbedSpec
    modified_count: int
    max_perturbation: float


def embed(weights, codeword, spec: EmbedSpec) -> tuple[np.ndarray, EmbedReceipt]:
    """Project the codeword onto the selected positions.

    Per position: a 1 with |w| < t1 becomes sgn(w) * t1, a 0 with
    |w| > t0 becomes sgn(w) * t0, everything else is untouched;
    sgn(0) = +1. Comparisons run in binary64 after widening; results are
    stored back as binary32. All non-selected entries are bit-identical
    to the input, which is left unchanged.
    """
    w = as_weight_vector(weights)
    _check_positions([spec], w.size)
    bits = as_bits(codeword, expect_len=spec.params.L)
    if int(bits.sum()) != spec.params.alpha:
        raise MalformedCodewordError(
            f"codeword weight {int(bits.sum())} != alpha {spec.params.alpha}"
        )
    out = w.copy()
    return out, _project(_ArrayPieces(out), [spec], [bits])[0]


def _project(source, specs, words) -> list[EmbedReceipt]:
    """embed's projection of each codeword onto its spec's positions, in one
    pass over source that puts every piece; trusts the positions, which are
    distinct, and the bits. All specs share the thresholds and L."""
    t0, t1 = specs[0].thresholds
    pos = [p for spec in specs for p in spec.positions]
    where = np.array(pos, dtype=np.int64)
    bits = np.concatenate(words)
    old = np.empty(len(pos), dtype=np.float32)
    new = np.empty(len(pos), dtype=np.float32)
    for start, piece, js in _by_piece(source.pieces(), pos):
        piece, sel = np.asarray(piece), np.array(js, dtype=np.intp)
        at = where[sel] - start
        old[sel] = piece[at]
        vals = old[sel].astype(np.float64)
        mag = np.abs(vals)
        # Clamp each magnitude: a 1 up to at least t1, a 0 down to at most t0.
        target = np.where(bits[sel] == 1, np.maximum(mag, t1), np.minimum(mag, t0))
        signed = np.where(vals >= 0.0, target, -target)
        piece[at] = new[sel] = np.where(target == mag, vals, signed)
        source.put(piece)
    receipts = []
    for spec, was, now in zip(specs, np.split(old, len(specs)), np.split(new, len(specs))):
        modified = int(np.count_nonzero(now.view(np.uint32) != was.view(np.uint32)))
        max_pert = float(np.max(np.abs(now.astype(np.float64) - was.astype(np.float64))))
        receipts.append(
            EmbedReceipt(spec=spec, modified_count=modified, max_perturbation=max_pert)
        )
    return receipts


def extract(weights, spec: EmbedSpec) -> np.ndarray:
    """Recover a weight-alpha codeword from the selected positions.

    Marks the alpha largest magnitudes as ones; ties break toward the
    lower position-list index (stable sort), so the output weight is
    always exactly alpha even on corrupted input.
    """
    word = _extract_words(_ArrayPieces(as_weight_vector(weights)), [spec])[0]
    return np.frombuffer(word, dtype=np.uint8)


def _embed_into(source, message, key, thresholds, params, blocked, allow_dense):
    """Embed message into the finite binary32 source; return one receipt per
    block. Blocked, block j of params.k bits takes the first
    _block_selection_seeds(key, j) seed whose positions miss the earlier
    blocks'; unblocked, the message is one codeword at key's. Every block
    is selected and encoded before one pass projects them all."""
    blocks = split_blocks(message, params.k) if blocked else [message]
    _check_selection(len(blocks) * params.L, source.n, allow_dense)
    taken: set[int] = set()
    specs, words = [], []
    for j, block in enumerate(blocks):
        seeds = _block_selection_seeds(key, j) if blocked else [key]
        chosen = _draw_positions(seeds, source.n, params.L, taken)
        taken.update(chosen)
        specs.append(
            EmbedSpec(key=key, params=params, thresholds=thresholds, positions=chosen)
        )
        words.append(encode(block, params))
    return _project(source, specs, words)


def embed_message(
    weights,
    message,
    key: int,
    thresholds: ThresholdPair,
    params: CodeParams,
    allow_dense: bool = False,
) -> tuple[np.ndarray, EmbedReceipt]:
    """select_positions -> encode -> embed, returning the new vector and receipt.

    The one-block case of embed_message_blocks, with the key as the only
    selection seed. Positions are selected first, so a code too long or
    too dense for the vector is refused before its ladder is built.
    """
    out = as_weight_vector(weights).copy()
    (receipt,) = _embed_into(
        _ArrayPieces(out), message, key, thresholds, params, False, allow_dense
    )
    return out, receipt


def extract_message(weights, spec: EmbedSpec) -> np.ndarray:
    """extract -> decode, the one-block case of extract_message_blocks;
    raises MessageRangeError on out-of-space codewords."""
    return extract_message_blocks(weights, [spec], spec.params.k)


def split_blocks(message, k_block: int) -> list[np.ndarray]:
    """Split bits into k_block-sized blocks, zero-padding the last one."""
    bits = as_bits(message)
    if bits.size == 0:
        raise ValueError("message must not be empty")
    if k_block < 1:
        raise ValueError("k_block must be >= 1")
    padded = np.zeros(-(-bits.size // k_block) * k_block, dtype=np.uint8)
    padded[: bits.size] = bits
    return list(padded.reshape(-1, k_block))


def join_blocks(blocks, total_bits: int) -> np.ndarray:
    """Inverse of split_blocks given the original bit length.

    Nonzero padding means the message does not fit in total_bits, so it
    raises MessageRangeError, as an out-of-range block does.
    """
    pairs = ((_bits_value(bits), bits.size) for bits in map(as_bits, blocks))
    return int_to_bits(_join(pairs, total_bits), total_bits)


def _block_selection_seeds(key: int, block_index: int):
    """The 1000 deterministic selection seeds of one block, attempt 0 first.

    Block j starts from mix64(key XOR j); each rejected attempt re-mixes
    the previous seed, so the draw sequence is fixed by the key alone.
    mix64 is a bijection with mix64(0) == 0, so only the chain of key == j
    could repeat one seed forever; a zero seed re-mixes GOLDEN_GAMMA
    instead, and every other chain is unaffected.
    """
    seed = mix64((key ^ block_index) & MASK64)
    for _ in range(1000):
        yield seed
        seed = mix64(seed or GOLDEN_GAMMA)


def embed_message_blocks(
    weights,
    message,
    key: int,
    thresholds: ThresholdPair,
    alpha: int,
    k_block: int,
    allow_dense: bool = False,
) -> tuple[np.ndarray, list[EmbedSpec], list[EmbedReceipt]]:
    """Embed a long message as k_block-bit blocks on disjoint position sets.

    Every block uses the same (k_block, alpha, L) code. Block j draws its
    positions with the seeds of _block_selection_seeds(key, j), re-drawing
    on any collision with earlier blocks until the sets are disjoint. The
    density limit applies to the total position count across blocks.
    The blocks are projected into one copy of the input, so the result
    equals chaining embed block by block.
    """
    w = as_weight_vector(weights)
    # Sized before the message is padded to whole blocks: an oversized
    # k_block is refused before a k_block-bit buffer is allocated.
    params = find_params(k_block, alpha).params
    out = w.copy()
    receipts = _embed_into(
        _ArrayPieces(out), message, key, thresholds, params, True, allow_dense
    )
    return out, [r.spec for r in receipts], receipts


def extract_message_blocks(weights, specs, total_bits: int) -> np.ndarray:
    """Extract, decode and rejoin a message; one spec is the single-codeword case.

    Raises MessageRangeError when a block decodes out of range or the
    padding beyond total_bits is nonzero. Every block is extracted before
    any is decoded, so a position past the vector in any block raises
    PositionRangeError first.
    """
    words = _extract_words(_ArrayPieces(as_weight_vector(weights)), specs)
    return int_to_bits(_decode_blocks(words, specs, total_bits), total_bits)
