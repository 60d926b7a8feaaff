"""Keyed embedding and extraction of constant-weight codewords in weight vectors.

Embedding pushes the magnitude of 1-coded positions to at least t1 and
caps 0-coded positions at t0. Because 0 < t0 < t1, extraction is just
"the alpha largest magnitudes are the ones", which survives any attack
that removes small magnitudes without touching large ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .codec import CodeParams, as_bits, decode, encode, find_params
from .errors import (
    MalformedCodewordError,
    MessageRangeError,
    PositionRangeError,
    SelectionRatioError,
)
from .rng import GOLDEN_GAMMA, MASK64, mix64, splitmix64_stream
from .stats import ThresholdPair

# Positions must cover at most 1/DENSITY_LIMIT of the host vector so the
# watermark stays statistically invisible; override only for tests/toys.
DENSITY_LIMIT = 100


def _all_finite(w: np.ndarray) -> bool:
    """No NaN or infinity in the nonempty w: min and max propagate both, mask-free."""
    return math.isfinite(w.min()) and math.isfinite(w.max())


def as_weight_vector(values) -> np.ndarray:
    """Coerce to a nonempty one-dimensional binary32 vector that _all_finite accepts."""
    w = np.asarray(values, dtype=np.float32)
    if w.ndim != 1:
        raise ValueError("weight vector must be one-dimensional")
    if w.size < 1:
        raise ValueError("weight vector must not be empty")
    if not _all_finite(w):
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

    The stream is counter-based, so the words from start + 1 on are those
    of the seed advanced by start * GOLDEN_GAMMA.
    """
    start, size = 0, 256
    while start < l:
        piece_seed = (int(seed) + start * GOLDEN_GAMMA) & MASK64
        yield splitmix64_stream(piece_seed, min(size, l - start)).tolist()
        start, size = start + size, 2 * size


@dataclass(frozen=True)
class EmbedSpec:
    """Everything needed to embed or re-extract one codeword."""

    key: int
    params: CodeParams
    thresholds: ThresholdPair
    positions: tuple[int, ...]

    def __post_init__(self):
        if not 0 <= self.key <= MASK64:
            raise ValueError("key must be an unsigned 64-bit integer")
        object.__setattr__(self, "positions", tuple(int(p) for p in self.positions))
        if len(self.positions) != self.params.L:
            raise ValueError(
                f"{len(self.positions)} positions for codeword length {self.params.L}"
            )
        if len(set(self.positions)) != len(self.positions):
            raise ValueError("positions must be distinct")
        if min(self.positions) < 0:
            raise ValueError("positions must be nonnegative")


@dataclass(frozen=True)
class EmbedReceipt:
    """Audit record of one embedding."""

    spec: EmbedSpec
    modified_count: int
    max_perturbation: float


def _positions_array(spec: EmbedSpec, n: int) -> np.ndarray:
    # Bounded on the Python ints, so a position past int64 is a range error.
    top = max(spec.positions)
    if top >= n:
        raise PositionRangeError(
            f"spec position {top} out of range for vector of length {n}"
        )
    return np.asarray(spec.positions, dtype=np.int64)


def embed(weights, codeword, spec: EmbedSpec) -> tuple[np.ndarray, EmbedReceipt]:
    """Project the codeword onto the selected positions.

    Per position: a 1 with |w| < t1 becomes sgn(w) * t1, a 0 with
    |w| > t0 becomes sgn(w) * t0, everything else is untouched;
    sgn(0) = +1. Comparisons run in binary64 after widening; results are
    stored back as binary32. All non-selected entries are bit-identical
    to the input, which is left unchanged.
    """
    w = as_weight_vector(weights)
    pos = _positions_array(spec, w.size)
    bits = as_bits(codeword, expect_len=spec.params.L)
    if int(bits.sum()) != spec.params.alpha:
        raise MalformedCodewordError(
            f"codeword weight {int(bits.sum())} != alpha {spec.params.alpha}"
        )
    out = w.copy()
    return out, _project(out, pos, bits, spec)


def _project(w: np.ndarray, pos, bits, spec: EmbedSpec) -> EmbedReceipt:
    """embed's projection into w in place; trusts the positions and the bits."""
    t0, t1 = spec.thresholds
    old = w[pos]
    vals = old.astype(np.float64)
    mag = np.abs(vals)
    # Clamp each magnitude: a 1 up to at least t1, a 0 down to at most t0.
    target = np.where(bits == 1, np.maximum(mag, t1), np.minimum(mag, t0))
    new = np.where(target == mag, vals, np.where(vals >= 0.0, target, -target))
    w[pos] = new.astype(np.float32)
    stored = w[pos]
    modified = int(np.count_nonzero(stored.view(np.uint32) != old.view(np.uint32)))
    max_pert = float(np.max(np.abs(stored.astype(np.float64) - vals)))
    return EmbedReceipt(spec=spec, modified_count=modified, max_perturbation=max_pert)


def extract(weights, spec: EmbedSpec) -> np.ndarray:
    """Recover a weight-alpha codeword from the selected positions.

    Marks the alpha largest magnitudes as ones; ties break toward the
    lower position-list index (stable sort), so the output weight is
    always exactly alpha even on corrupted input.
    """
    return _extract(as_weight_vector(weights), spec)


def _extract(w: np.ndarray, spec: EmbedSpec) -> np.ndarray:
    """extract on the finite binary32 vector w."""
    pos = _positions_array(spec, w.size)
    return _top_alpha(np.abs(w[pos].astype(np.float64)), spec.params.alpha)


def _top_alpha(mag: np.ndarray, alpha: int) -> np.ndarray:
    """Ones at the alpha largest of mag; ties go to the lower index (stable sort)."""
    order = np.argsort(-mag, kind="stable")
    bits = np.zeros(mag.size, dtype=np.uint8)
    bits[order[:alpha]] = 1
    return bits


def _embed_into(w, message, key, thresholds, params, blocked, allow_dense):
    """Embed message into the finite binary32 vector w; return the receipts
    and the projected codewords. Blocked, block j of params.k bits takes the
    first _block_selection_seeds(key, j) seed whose positions miss the
    earlier blocks'; unblocked, the message is one codeword at key's."""
    blocks = split_blocks(message, params.k) if blocked else [message]
    _check_selection(len(blocks) * params.L, w.size, allow_dense)
    taken: set[int] = set()
    receipts, words = [], []
    for j, block in enumerate(blocks):
        seeds = _block_selection_seeds(key, j) if blocked else [key]
        chosen = _draw_positions(seeds, w.size, params.L, taken)
        taken.update(chosen)
        spec = EmbedSpec(key=key, params=params, thresholds=thresholds, positions=chosen)
        words.append(encode(block, params))
        receipts.append(_project(w, np.array(chosen, dtype=np.int64), words[-1], spec))
    return receipts, words


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
    (receipt,), _ = _embed_into(out, message, key, thresholds, params, False, allow_dense)
    return out, receipt


def extract_message(weights, spec: EmbedSpec) -> np.ndarray:
    """extract -> decode; raises MessageRangeError on out-of-space codewords."""
    return decode(extract(weights, spec), spec.params)


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
    if total_bits < 1:
        raise ValueError("total_bits must be >= 1")
    joined = np.concatenate([as_bits(b) for b in blocks])
    if joined.size < total_bits:
        raise ValueError(f"blocks hold {joined.size} bits, need {total_bits}")
    if np.any(joined[total_bits:]):
        raise MessageRangeError("padding bits beyond total_bits must be zero")
    return joined[:total_bits]


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
    receipts, _ = _embed_into(out, message, key, thresholds, params, True, allow_dense)
    return out, [r.spec for r in receipts], receipts


def _extract_message(w, specs, total_bits: int, words: list) -> np.ndarray:
    """extract_message_blocks on the finite binary32 vector w; every codeword
    goes into words before any is decoded, so a MessageRangeError keeps them."""
    words.extend([_extract(w, spec) for spec in specs])
    blocks = [decode(word, spec.params) for word, spec in zip(words, specs)]
    return join_blocks(blocks, total_bits)


def extract_message_blocks(weights, specs, total_bits: int) -> np.ndarray:
    """Extract, decode and rejoin a message; one spec is the single-codeword case.

    Raises MessageRangeError when a block decodes out of range or the
    padding beyond total_bits is nonzero. Every block is extracted before
    any is decoded, so a position past the vector in any block raises
    PositionRangeError first.
    """
    return _extract_message(as_weight_vector(weights), specs, total_bits, [])
