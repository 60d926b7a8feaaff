"""Enumerative coding for binary constant-weight codes.

A codeword is a length-L bit vector with exactly `alpha` ones. The coder
is a bijection between integers 0 .. binomial(L, alpha) - 1 and those
vectors, built from binomial coefficients, so a k-bit payload fits as
soon as binomial(L, alpha) >= 2**k.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import floor
from operator import getitem

import numpy as np

from .errors import CapacityError, MalformedCodewordError, MessageRangeError


def binomial(n: int, r: int) -> int:
    """Exact binomial coefficient with the convention binomial(n, r) = 0 for r > n."""
    if n < 0 or r < 0:
        raise ValueError("binomial arguments must be nonnegative")
    return math.comb(n, r)


@dataclass(frozen=True)
class CodeParams:
    """Code geometry: k payload bits, Hamming weight alpha, codeword length L."""

    k: int
    alpha: int
    L: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 1 <= self.alpha <= self.L:
            raise ValueError("alpha must satisfy 1 <= alpha <= L")
        # binomial(L, alpha) < 2**L, so k >= L never fits; testing that
        # first keeps an oversized k from building a k-bit integer.
        if self.k >= self.L or binomial(self.L, self.alpha) < (1 << self.k):
            raise CapacityError(
                f"binomial({self.L}, {self.alpha}) < 2**{self.k}: "
                "code cannot hold a k-bit payload"
            )

    @property
    def capacity(self) -> int:
        """Number of distinct codewords, binomial(L, alpha)."""
        return binomial(self.L, self.alpha)


def _as_uint8(values) -> np.ndarray:
    """values as a one-dimensional uint8 array; a uint8 input is not yet checked for 0/1."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError("bit sequence must be one-dimensional")
    if arr.dtype == np.uint8:
        return arr
    out = arr.astype(np.uint8)
    if not np.array_equal(out, arr):
        raise ValueError("bit sequence must contain only 0 and 1")
    return out


def _check_bits(values: np.ndarray, size: int, expect_len: int | None) -> None:
    """as_bits' last two checks: values (all, or all nonzero) <= 1, then the length."""
    if values.size and values.max() > 1:
        raise ValueError("bit sequence must contain only 0 and 1")
    if expect_len is not None and size != expect_len:
        raise ValueError(f"expected {expect_len} bits, got {size}")


def as_bits(values, expect_len: int | None = None) -> np.ndarray:
    """Coerce a 0/1 sequence to a uint8 array, validating contents."""
    out = _as_uint8(values)
    _check_bits(out, out.size, expect_len)
    return out


def _bits_value(bits: np.ndarray) -> int:
    """Little-endian value of a uint8 0/1 array that as_bits already checked."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def bits_to_int(bits) -> int:
    """Little-endian bits to integer: bit t carries weight 2**t."""
    return _bits_value(as_bits(bits))


def int_to_bits(value: int, k: int) -> np.ndarray:
    """Integer to k little-endian bits; rejects values needing more than k bits."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if value < 0:
        raise ValueError("value must be nonnegative")
    if value >= (1 << k):
        raise MessageRangeError(f"value needs more than {k} bits")
    raw = value.to_bytes((k + 7) // 8, "little")
    data = np.frombuffer(raw, dtype=np.uint8)
    return np.unpackbits(data, count=k, bitorder="little")


# Largest ladder _weight_rows may build, by _ladder_bytes' estimate. The
# largest grid ladder, (L=12955, alpha=127), is estimated at 174 MiB and
# measures 158 MiB (tracemalloc). Its lru_cache(maxsize=2) therefore holds
# at most two ladders of up to 256 MiB each, 512 MiB by the estimate.
_LADDER_LIMIT = 256 << 20


def _ladder_bytes(L: int, alpha: int) -> float:
    """Upper estimate of _weight_rows(L, alpha)'s memory, in floating point.

    Entry n of row l is binomial(n, l) <= binomial(L, l): an 8-byte list
    slot, a 24-byte int header and a 4-byte digit per 30 bits, plus one.
    """
    top = math.lgamma(L + 1)
    return (L + 1) * sum(
        36 + (top - math.lgamma(l + 1) - math.lgamma(L - l + 1)) / math.log(2) / 7.5
        for l in range(alpha + 1)
    )


class _CombRow:
    """Row l of the coding table read through math.comb: row[n] = binomial(n, l)."""

    __slots__ = ("l",)

    def __init__(self, l: int):
        self.l = l

    def __getitem__(self, n: int) -> int:
        return math.comb(n, self.l)


class _Rows(list):
    """rows[l][n] = binomial(n, l) for l in 0..alpha and n in 0..L, and a use count.

    The rows start as _CombRow views, which hold nothing. use() counts
    one encode or decode and, on the code's second, builds the table in
    place: row 0 is all ones and each later row is the running sum of the
    one before, shifted right by one place (the hockey-stick identity
    binomial(n, l) = sum of binomial(m, l - 1) over m < n), so the build
    takes one big-integer addition per entry. The largest grid table,
    (L=12955, alpha=127), takes 0.2-0.25 s and 158 MiB (tracemalloc) to
    build on a 2-CPU Xeon, while a single codeword reads only alpha
    coefficients, about 1 ms through math.comb. So coding one word never
    builds it, and a caller that codes more words with one code, as
    block-mode embed and extract do, builds it after one table-free call.
    """

    __slots__ = ("L", "uses", "search")

    def __init__(self, L: int, alpha: int):
        super().__init__(map(_CombRow, range(alpha + 1)))
        self.L = L
        self.uses = 0
        # _codeword's closed-form constants for levels l = alpha..2:
        # ((l!)**(1/l), 1/l, (l-1)/2 + 1e-7, (l*l-1)/24).
        self.search = [
            (math.exp(math.lgamma(l + 1) / l), 1 / l, (l - 1) / 2 + 1e-7, (l * l - 1) / 24)
            for l in range(alpha, 1, -1)
        ]

    def use(self) -> _Rows:
        """These rows for one encode or decode: the table from the second use on."""
        self.uses += 1
        if self.uses == 2:
            row = [1] * (self.L + 1)
            table = [row]
            for _ in range(len(self) - 1):
                row = [0, *accumulate(row[:-1])]
                table.append(row)
            self[:] = table
        return self


@lru_cache(maxsize=2)
def _weight_rows(L: int, alpha: int) -> _Rows:
    """Per-weight binomial lookup for one code, and its first-use state.

    rows[l][n] = binomial(n, l) for n in 0..L. Rows are nondecreasing in
    n, which the search in _codeword relies on. The first encode or decode
    of the code in a process reads each coefficient through math.comb;
    its second builds the table (see _Rows). Cached, so cache_clear()
    returns every code to its first use, as a new process finds it. A
    code whose table would pass _LADDER_LIMIT raises CapacityError here,
    before its first use, table-free or not, allocates anything.
    """
    # 36 bytes per entry is a floor of the estimate, and keeps its loop short.
    entries = (alpha + 1) * (L + 1)
    if 36 * entries > _LADDER_LIMIT or _ladder_bytes(L, alpha) > _LADDER_LIMIT:
        raise CapacityError(
            f"coding table for L={L}, alpha={alpha} is past the "
            f"{_LADDER_LIMIT >> 20} MiB limit"
        )
    return _Rows(L, alpha)


def _codeword(value: int, alpha: int, L: int) -> np.ndarray:
    """Codeword for index `value`; trusts 0 <= value < binomial(L, alpha).

    The 1 at weight level l goes to the largest position p_l with
    binomial(p_l, l) <= the index left after the higher levels, so that
    value = sum of binomial(p_l, l) over l with p_alpha > ... > p_1 >= 0.
    That representation is unique (the combinatorial number system), so
    strictly decreasing positions whose coefficients add up to `value`
    are the right ones, however they were found.

    The fast path therefore takes each p_l from a closed form and makes
    no comparison against the ladder. With m = p - (l-1)/2, binomial(p, l)
    is close to m**l / l! * exp(-l(l*l-1) / (24 m*m)), which inverts to
    m ~ m0 + (l*l-1) / (24 m0) with m0 = (l!)**(1/l) * v**(1/l), taken
    through logarithms when v >= 2**1024 has no float. The 1e-7 added to
    (l-1)/2 keeps float rounding from dropping an exact hit such as
    v = binomial(p, l) one position low. Level 1 takes the index left
    over as its position, since binomial(p, 1) = p. The result is kept
    only if the positions decrease strictly down to a last one >= 0, or
    the index left reaches 0 and the remaining ones fit in positions
    0, 1, ... below the last one placed. On random indices at the 20
    grid shapes that holds for all but about 1 in 40,000. Otherwise,
    mostly for small indices with ones packed near position 0, the
    exact greedy search (bisect on each row) runs instead.

    Both read the coefficients from _weight_rows(L, alpha).use(): through
    math.comb on the code's first encode or decode in the process, from
    the built table on later ones. The table-free first use is about 1 ms
    at (12955, 127), where building the table takes 0.2 s.
    """
    rows = _weight_rows(L, alpha).use()
    word = bytearray(L)
    rest = value
    hi = L
    try:
        for row, (root, inv_l, half, c2) in zip(rows[alpha:1:-1], rows.search):
            try:
                m = root * math.pow(rest, inv_l)
            except OverflowError:  # rest >= 2**1024 has no float
                m = math.exp(math.log(rest) * inv_l + math.log(root))
            p = floor(m + c2 / m + half)  # int() for x > 0, at a third of the cost
            if p >= hi:
                break
            rest -= row[p]
            word[p] = 1
            hi = p
    except (ArithmeticError, ValueError):
        pass  # the index left hit 0 (c2 / 0.0) or went below (math.pow)
    left = alpha - word.count(1)
    if left == 1 and 0 <= rest < hi:
        word[rest] = 1
        return np.frombuffer(word, dtype=np.uint8)
    if not rest and left <= hi:
        word[:left] = b"\x01" * left
        return np.frombuffer(word, dtype=np.uint8)
    word = bytearray(L)
    hi = L
    for l in range(alpha, 0, -1):
        row = rows[l]
        p = bisect_right(row, value, 0, hi) - 1
        value -= row[p]
        word[p] = 1
        hi = p
    return np.frombuffer(word, dtype=np.uint8)


def encode_index(value: int, alpha: int, L: int) -> np.ndarray:
    """Codeword of weight `alpha`, length `L`, for index `value`.

    The 1 at weight level l sits at the largest position p with
    binomial(p, l) <= the index left after the higher levels; see
    _codeword for the search.
    """
    if value < 0:
        raise ValueError("index must be nonnegative")
    if value >= binomial(L, alpha):
        raise CapacityError(
            f"index {value} >= binomial({L}, {alpha}); message exceeds code capacity"
        )
    return _codeword(value, alpha, L)


def _codeword_ones(codeword, expect_len: int | None = None) -> tuple[int, list]:
    """(length, positions of the ones) of a codeword, checked as as_bits checks it.

    The 0/1 check reads only the entries that nonzero finds, so a uint8
    codeword is read once. nonzero runs on a bool view, ten times faster
    than on uint8, and counts every nonzero byte, 2 to 255 included.
    """
    bits = _as_uint8(codeword)
    ones = bits.view(np.bool_).nonzero()[0]
    _check_bits(bits[ones], bits.size, expect_len)
    return bits.size, ones.tolist()


def _codeword_index(L: int, ones: list, alpha: int) -> int:
    """Index of the length-L codeword with ones at the increasing positions ones."""
    if len(ones) != alpha:
        raise MalformedCodewordError(
            f"codeword weight {len(ones)} != alpha {alpha}"
        )
    rows = _weight_rows(L, alpha).use()
    return sum(map(getitem, rows[1:], ones))


def decode_index(codeword, alpha: int) -> int:
    """Index of a weight-`alpha` codeword; inverse of encode_index.

    The 1 at weight level l (the l-th one from position 0) at position p
    adds binomial(p, l).
    """
    return _codeword_index(*_codeword_ones(codeword), alpha)


def encode(message, params: CodeParams) -> np.ndarray:
    """Encode k message bits into a constant-weight codeword.

    A k-bit value always fits, since CodeParams guarantees
    binomial(L, alpha) >= 2**k.
    """
    value = _bits_value(as_bits(message, expect_len=params.k))
    return _codeword(value, params.alpha, params.L)


def decode(codeword, params: CodeParams) -> np.ndarray:
    """Decode a constant-weight codeword back to k message bits.

    Raises MalformedCodewordError on wrong length/weight and
    MessageRangeError when the reconstructed index needs more than k bits
    (a corrupted codeword outside the message space).
    """
    value = _codeword_index(*_codeword_ones(codeword, params.L), params.alpha)
    if value >= (1 << params.k):
        raise MessageRangeError(
            f"decoded index {value} does not fit in {params.k} bits; "
            "codeword is corrupted"
        )
    return int_to_bits(value, params.k)


# Largest bit length of find_params' target 2**k * alpha!. Codes whose ladder
# fits _LADDER_LIMIT need under 8,900 bits and the grid at most 2,043. Codes
# with a small target but a huge table (k = 64, alpha = 1) are refused later.
_TARGET_BITS = 1 << 14


def _root_up(target: int, alpha: int, log2_root: float) -> int:
    """Smallest d with d**alpha >= target, from log2_root, an estimate of log2 of the root.

    Integer Newton steps x -> ((alpha-1) x + target // x**(alpha-1)) // alpha
    find r = floor(target ** (1/alpha)): by the AM-GM inequality the first
    step lands at or above r from any x >= 1, and from above r every step
    falls strictly until it reaches r. Started from the estimate, which
    is good to more than 30 bits, they converge quadratically: two steps
    for every grid row, nine for the 8,000-bit root at k = 16000,
    alpha = 2. Then d = r, or r + 1 when r**alpha < target.
    """
    shift = max(0, math.floor(log2_root) - 60)
    x = (math.floor(2.0 ** (log2_root - shift)) + 1) << shift
    x = ((alpha - 1) * x + target // x ** (alpha - 1)) // alpha
    while True:
        y = ((alpha - 1) * x + target // x ** (alpha - 1)) // alpha
        if y >= x:
            return x + (x**alpha < target)
        x = y


@dataclass(frozen=True)
class ParamSearchResult:
    """Outcome of the minimal-length search for a (k, alpha) code."""

    params: CodeParams
    tolerance: float        # 1 - alpha/L: highest pruning rate the code survives
    capacity_bits: float    # log2 binomial(L, alpha)
    within_upper_bound: bool  # binomial(L, alpha) < 2**(k+1)


def find_params(k: int, alpha: int) -> ParamSearchResult:
    """Code length for a k-bit message at weight alpha, plus derived figures.

    Sizes L so that even the conservative estimate
    (L - alpha)**alpha / alpha! <= binomial(L, alpha) already reaches 2**k:
    the returned L is the smallest with (L - alpha)**alpha >= 2**k * alpha!.
    That certifies the capacity with cheap integer arithmetic (no huge
    binomials during the search); it can run a few positions above the
    bare minimum L, which only adds margin. L - alpha is the alpha-th root
    of 2**k * alpha!, rounded up; _root_up finds it from the lgamma
    estimate of its logarithm in a few big-integer steps.

    It reproduces 16 of the 20 rows of the published parameter grid. The
    four k=254 rows do not match: alpha = 32, 36, 40, 43 print L = 3307,
    2011, 1373, 1090, where this rule gives 3168, 1936, 1327, 1057. A
    k=256 search gives 3307, 2011, 1372 and 1090, so the printed group
    looks computed at k=256, with the alpha=40 row one position above
    even that (the A1 acceptance test prints this analysis).

    The tightness flag reports whether the true capacity also stays below
    2**(k+1); large-alpha choices can overshoot that bound, which is
    harmless for correctness. A target 2**k * alpha! past _TARGET_BITS
    bits raises CapacityError before any big-integer work.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    # Bounded on the ints first: a k of 309 or more digits has no float.
    if max(k, alpha) > _TARGET_BITS or (
        log2_target := k + math.lgamma(alpha + 1) / math.log(2)
    ) > _TARGET_BITS:
        raise CapacityError(
            f"2**k * alpha! would pass {_TARGET_BITS} bits: no coding table "
            f"within the {_LADDER_LIMIT >> 20} MiB limit holds such a code"
        )
    target = (1 << k) * math.factorial(alpha)
    L = alpha + _root_up(target, alpha, log2_target / alpha)
    c = math.comb(L, alpha)
    params = CodeParams(k=k, alpha=alpha, L=L)
    return ParamSearchResult(
        params=params,
        tolerance=1.0 - alpha / L,
        capacity_bits=math.log2(c),
        within_upper_bound=c < (1 << (k + 1)),
    )


def find_params_for_tolerance(k: int, tolerance: float) -> ParamSearchResult:
    """Shortest code whose pruning tolerance 1 - alpha/L meets the target.

    Scans alpha upward. L(alpha) falls to a single minimum and then rises,
    while the tolerance decreases, so the scan can stop a few steps after
    lengths start rising with nothing better reachable. The tolerance
    comparison is exact, not rounded to 4 decimals, so a target copied
    from a rounded table can land one alpha step conservative.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 <= tolerance < 1.0:
        raise ValueError("tolerance must lie in [0, 1)")
    best = None
    rising = 0
    prev_len = None
    alpha = 1
    while True:
        result = find_params(k, alpha)
        length = result.params.L
        meets = result.tolerance >= tolerance
        if meets and (best is None or length < best.params.L):
            best = result
        rising = rising + 1 if (prev_len is not None and length >= prev_len) else 0
        if rising >= 3 and (
            not meets or (best is not None and length > best.params.L)
        ):
            break
        prev_len = length
        alpha += 1
    if best is None:
        raise ValueError(f"no weight meets tolerance {tolerance} for k={k}")
    return best
