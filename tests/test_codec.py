"""Enumerative constant-weight codec against literal-scan and brute-force oracles."""

import math
import tracemalloc
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from cwmark import (
    CapacityError,
    CodeParams,
    MalformedCodewordError,
    MessageRangeError,
    binomial,
    bits_to_int,
    decode,
    encode,
    find_params,
    find_params_for_tolerance,
    int_to_bits,
)
from cwmark import codec
from cwmark.cli import DEMO_PARAM_GRID
from cwmark.codec import as_bits, decode_index, encode_index, _weight_rows
from cwmark.rng import random_bits


def test_binomial_matches_math_comb():
    for n in range(0, 40):
        for r in range(0, n + 2):
            assert binomial(n, r) == math.comb(n, r)


def test_binomial_pascals_rule_up_to_200():
    for n in range(1, 201):
        for r in range(1, n + 1):
            assert binomial(n, r) == binomial(n - 1, r - 1) + binomial(n - 1, r)


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -2)


def test_weight_rows_match_comb():
    rows = _weight_rows(30, 7)
    for ell in range(1, 8):
        for n in range(30):
            assert rows[ell][n] == math.comb(n, ell), (ell, n)
    # Spot checks on the largest grid ladder (k=1024, alpha=127).
    rows = _weight_rows(12955, 127)
    for ell in (1, 2, 63, 126, 127):
        for n in (0, ell - 1, ell, ell + 1, 6477, 12954, 12955):
            assert rows[ell][n] == math.comb(n, ell), (ell, n)


def test_ladder_limit_admits_grid_and_refuses_before_building(monkeypatch):
    for k, alpha in DEMO_PARAM_GRID:
        L = find_params(k, alpha).params.L
        assert codec._ladder_bytes(L, alpha) <= codec._LADDER_LIMIT, (k, alpha)
    with pytest.raises(CapacityError):
        encode_index(0, 1, 2**64 + 1)  # a row this long could never be built
    params = find_params(64, 10).params  # (L=393, alpha=10), about 0.2 MiB
    word = encode(random_bits(5, 64), params)
    _weight_rows.cache_clear()
    monkeypatch.setattr(codec, "_LADDER_LIMIT", 1 << 16)
    with pytest.raises(CapacityError, match="MiB limit"):
        decode(word, params)


def test_encode_index_refuses_a_code_past_the_table_limit_before_its_binomial(monkeypatch):
    # binomial(10**6, 5 * 10**5) would take seconds to compute, only for the
    # table limit to refuse the code after it.
    def refused(n, r):
        raise AssertionError(f"binomial({n}, {r}) computed")

    monkeypatch.setattr(codec, "binomial", refused)
    with pytest.raises(CapacityError, match="L=1000000, alpha=500000 is past the 256 MiB"):
        encode_index(0, 500_000, 1_000_000)


@pytest.mark.parametrize("L, alpha", [(12955, 127), (4323, 170), (3000, 250)])
def test_encode_matches_scan_oracle_at_large_shapes(L, alpha):
    # The k=1024 grid rows at both ends of alpha, and a shape whose
    # capacity (2**1236) puts the first levels' index past the float
    # range. Ladder entries and the index one below them are where the
    # position estimate lands exactly on, or just past, a boundary.
    capacity = math.comb(L, alpha)
    rows = _weight_rows(L, alpha)
    width = capacity.bit_length()
    for index in (
        0,
        capacity - 1,
        rows[alpha][L - 1],
        rows[alpha][L - 1] - 1,
        rows[alpha // 2][L // 2],
        rows[alpha // 2][L // 2] - 1,
    ):
        bits = [(index >> t) & 1 for t in range(width)]
        word = encode_index(index, alpha, L)
        assert list(word) == ref.scan_encode(bits, alpha, L), index
        assert decode_index(word, alpha) == index
        assert ref.scan_decode(list(word), width) == bits


@lru_cache(maxsize=1)
def _built_rows(L, alpha):
    rows = codec._Rows(L, alpha)
    rows.use()
    rows.use()  # the second use builds the table
    return rows


def _coded_with(rows_for, index, alpha, L):
    """encode_index and decode_index with _weight_rows(L, alpha) replaced by rows_for."""
    with mock.patch.object(codec, "_weight_rows", rows_for):
        word = encode_index(index, alpha, L)
        return word, decode_index(word, alpha)


@pytest.mark.parametrize("L, alpha", [(12955, 127), (4323, 170), (3000, 250)])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_first_use_and_table_code_alike(L, alpha, data):
    # Random indices, and the boundaries of the scan-oracle test above:
    # a fresh _Rows per call is always a first use, read through
    # math.comb; the built table is what every later use reads.
    capacity = math.comb(L, alpha)
    boundaries = [0, capacity - 1]
    for l, n in ((alpha, L - 1), (alpha // 2, L // 2)):
        boundaries += [math.comb(n, l), math.comb(n, l) - 1]
    index = data.draw(
        st.one_of(st.sampled_from(boundaries), st.integers(0, capacity - 1))
    )
    cold_word, cold_index = _coded_with(codec._Rows, index, alpha, L)
    rows = _built_rows(L, alpha)
    assert type(rows[alpha]) is list
    word, back = _coded_with(lambda *_: rows, index, alpha, L)
    assert np.array_equal(cold_word, word)
    assert cold_index == back == index


def _first_use(L, alpha):
    return all(type(row) is codec._CombRow for row in _weight_rows(L, alpha))


def test_second_use_of_a_code_builds_the_table():
    params = find_params(64, 10).params  # (L=393, alpha=10)
    message = random_bits(11, 64)
    _weight_rows.cache_clear()
    word = encode(message, params)
    assert _first_use(393, 10)
    assert np.array_equal(decode(word, params), message)
    rows = _weight_rows(393, 10)
    assert rows.uses == 2 and not _first_use(393, 10)
    for l in (1, 5, 10):
        assert rows[l] == [math.comb(n, l) for n in range(394)]
    assert np.array_equal(encode(message, params), word)
    assert _weight_rows(393, 10) is rows


def test_cache_clear_returns_a_code_to_its_first_use():
    params = find_params(64, 10).params
    message = random_bits(12, 64)
    word = encode(message, params)
    encode(message, params)
    assert not _first_use(393, 10)
    _weight_rows.cache_clear()
    assert _weight_rows(393, 10).uses == 0 and _first_use(393, 10)
    assert np.array_equal(decode(word, params), message)
    assert _first_use(393, 10)


def test_decode_checks_uint8_words_for_bits_before_length():
    # The 0/1 check reads only the nonzero entries of a uint8 codeword,
    # and still comes before the length and weight checks.
    params = CodeParams(k=2, alpha=2, L=4)
    for bad in (2, 3, 128, 255):
        word = np.array([1, bad, 0, 0], dtype=np.uint8)
        for call in (
            lambda: decode(word, params),
            lambda: decode(word[:3], params),
            lambda: decode(np.array([bad, 0, 0, 0], dtype=np.uint8), params),
            lambda: decode_index(word, 2),
        ):
            with pytest.raises(ValueError, match="only 0 and 1"):
                call()


def test_bits_int_roundtrip():
    for value in [0, 1, 5, 2**63, 2**64 - 1, 12345678901234567890]:
        bits = int_to_bits(value, 64)
        assert bits_to_int(bits) == value
    assert bits_to_int(int_to_bits(0, 1)) == 0


def test_int_to_bits_range_check():
    with pytest.raises(MessageRangeError):
        int_to_bits(2, 1)
    with pytest.raises(MessageRangeError):
        int_to_bits(1 << 64, 64)
    with pytest.raises(ValueError):
        int_to_bits(-1, 8)


def test_as_bits_validation():
    with pytest.raises(ValueError):
        as_bits([0, 1, 2])
    with pytest.raises(ValueError):
        as_bits([0, 1], expect_len=3)
    with pytest.raises(ValueError):
        as_bits([[0, 1]])


@pytest.mark.parametrize("values", [[0.5], [-1], [256]])
def test_as_bits_refuses_values_that_cast_to_bits(values):
    # As uint8, 0.5 and 256 read as [0] and -1 as [255].
    with pytest.raises(ValueError, match="only 0 and 1"):
        as_bits(values)


def test_k_below_one_is_refused():
    with pytest.raises(ValueError, match="k must be >= 1"):
        int_to_bits(1, 0)
    # k is checked before the tolerance, so both bad still name k.
    for tolerance in (0.9, 1.0):
        with pytest.raises(ValueError, match="k must be >= 1"):
            find_params_for_tolerance(0, tolerance)


def test_code_params_validation():
    CodeParams(k=1, alpha=1, L=2)
    with pytest.raises(ValueError):
        CodeParams(k=0, alpha=1, L=2)
    with pytest.raises(ValueError):
        CodeParams(k=1, alpha=0, L=2)
    with pytest.raises(ValueError):
        CodeParams(k=1, alpha=3, L=2)
    with pytest.raises(CapacityError):
        CodeParams(k=10, alpha=1, L=4)  # binomial(4,1)=4 < 2**10
    # binomial(L, alpha) < 2**L, so k >= L is refused before 2**k is built.
    with pytest.raises(CapacityError):
        CodeParams(k=10**4000, alpha=2, L=4)
    with pytest.raises(CapacityError):
        CodeParams(k=3, alpha=1, L=3)


def test_encode_known_small_values():
    # L=4, alpha=2: ranking has binomial(4,2)=6 words; index 0 is 1100.
    assert list(encode_index(0, 2, 4)) == [1, 1, 0, 0]
    assert list(encode_index(5, 2, 4)) == [0, 0, 1, 1]
    for index in range(6):
        assert decode_index(encode_index(index, 2, 4), 2) == index


def test_encode_matches_scan_oracle_small():
    for L, alpha in [(5, 2), (8, 3), (12, 6), (10, 1), (7, 6)]:
        capacity = math.comb(L, alpha)
        k = max(1, capacity.bit_length() - 1)
        if 2**k > capacity:
            k -= 1
        params = CodeParams(k=k, alpha=alpha, L=L)
        for value in range(2**k):
            bits = int_to_bits(value, k)
            got = encode(bits, params)
            want = ref.scan_encode(bits, alpha, L)
            assert list(got) == want, (L, alpha, value)
            assert ref.scan_decode(got, k) == list(bits)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_roundtrip_random_params(data):
    L = data.draw(st.integers(min_value=2, max_value=60))
    alpha = data.draw(st.integers(min_value=1, max_value=L - 1))
    capacity = math.comb(L, alpha)
    k = data.draw(st.integers(min_value=1, max_value=max(1, capacity.bit_length() - 1)))
    if 2**k > capacity:
        k = capacity.bit_length() - 1
    params = CodeParams(k=k, alpha=alpha, L=L)
    value = data.draw(st.integers(min_value=0, max_value=2**k - 1))
    bits = int_to_bits(value, k)
    word = encode(bits, params)
    assert int(word.sum()) == alpha
    assert list(decode(word, params)) == list(bits)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_encode_agrees_with_scan_oracle_random(data):
    L = data.draw(st.integers(min_value=2, max_value=120))
    alpha = data.draw(st.integers(min_value=1, max_value=L - 1))
    capacity = math.comb(L, alpha)
    k = max(1, capacity.bit_length() - 1)
    if 2**k > capacity:
        k -= 1
    params = CodeParams(k=k, alpha=alpha, L=L)
    value = data.draw(st.integers(min_value=0, max_value=2**k - 1))
    bits = int_to_bits(value, k)
    assert list(encode(bits, params)) == ref.scan_encode(bits, alpha, L)


def test_exhaustive_bijection_sample():
    # Exhaustive over the full index space for a few mid-size shapes.
    for L, alpha in [(9, 4), (11, 3), (12, 12)]:
        capacity = math.comb(L, alpha)
        seen = set()
        for index in range(capacity):
            word = tuple(encode_index(index, alpha, L))
            assert sum(word) == alpha
            assert word not in seen
            seen.add(word)
            assert decode_index(list(word), alpha) == index
        assert len(seen) == capacity


def test_encode_index_capacity_error():
    with pytest.raises(CapacityError):
        encode_index(math.comb(6, 2), 2, 6)
    with pytest.raises(ValueError):
        encode_index(-1, 2, 6)


def test_decode_rejects_wrong_weight_and_length():
    params = CodeParams(k=2, alpha=2, L=4)
    with pytest.raises(MalformedCodewordError):
        decode([1, 0, 0, 0], params)
    with pytest.raises(ValueError):
        decode([1, 1, 0], params)


def test_decode_range_check_flags_out_of_space_words():
    # binomial(5,2)=10 > 2**3, so indices 8..9 decode outside 3 bits.
    params = CodeParams(k=3, alpha=2, L=5)
    bad = encode_index(9, 2, 5)
    with pytest.raises(MessageRangeError):
        decode(bad, params)


def test_encode_rejects_message_beyond_capacity():
    # binomial(4,1)=4 exactly holds 2 bits; all 4 messages fit.
    params = CodeParams(k=2, alpha=1, L=4)
    for value in range(4):
        decode(encode(int_to_bits(value, 2), params), params)


def test_find_params_certifies_capacity():
    for k, alpha in [(1, 1), (8, 3), (64, 10), (100, 2), (64, 1)]:
        result = find_params(k, alpha)
        L = result.params.L
        assert (L - alpha) ** alpha >= 2**k * math.factorial(alpha)
        assert (L - 1 - alpha) ** alpha < 2**k * math.factorial(alpha)
        assert math.comb(L, alpha) >= 2**k
        assert result.tolerance == 1.0 - alpha / L


def _doubling_bisect_length(k, alpha):
    """find_params' L as the doubling-then-bisect search computed it."""
    target = (1 << k) * math.factorial(alpha)
    hi = 1
    while hi**alpha < target:
        hi *= 2
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid**alpha >= target:
            hi = mid
        else:
            lo = mid
    return alpha + hi


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4096), st.integers(1, 300))
def test_find_params_matches_doubling_bisect(k, alpha):
    assert find_params(k, alpha).params.L == _doubling_bisect_length(k, alpha)


def test_find_params_matches_doubling_bisect_on_the_grid():
    for k, alpha in DEMO_PARAM_GRID:
        assert find_params(k, alpha).params.L == _doubling_bisect_length(k, alpha)


def test_find_params_monotone_in_k():
    for alpha in (1, 3, 10):
        last = 0
        for k in range(1, 130, 7):
            L = find_params(k, alpha).params.L
            assert L >= last
            last = L


def test_find_params_input_validation():
    with pytest.raises(ValueError):
        find_params(0, 1)
    with pytest.raises(ValueError):
        find_params(1, 0)


NINES30 = 10**30 - 1


@pytest.mark.parametrize(
    "k, alpha",
    [(NINES30, 10), (10**400, 1), (1, 10**400), (20_000, 10), (64, 99_999_999_999),
     (16_385, 1), (64, 1_800)],
)
def test_find_params_refuses_big_targets_at_once(k, alpha):
    # Past 2**14 bits of 2**k * alpha!, refused from the sizes alone:
    # no 1 << k, no factorial, no float of a huge k.
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="16384 bits"):
            find_params(k, alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_find_params_bound_admits_its_edge():
    # k = 2**14 at alpha = 1 reaches the bound exactly and is still sized.
    assert find_params(1 << 14, 1).params.L == 2**16384 + 1


def test_find_params_for_tolerance_passes_the_refusal_on():
    with pytest.raises(CapacityError, match="16384 bits"):
        find_params_for_tolerance(NINES30, 0.9)


def test_find_params_for_tolerance():
    result = find_params_for_tolerance(64, 0.97)
    assert (result.params.alpha, result.params.L) == (10, 393)
    # Exact comparison: 1 - 10/393 = 0.97455... misses a 0.9746 target,
    # so the search steps back to alpha=9.
    result = find_params_for_tolerance(64, 0.9746)
    assert (result.params.alpha, result.params.L) == (9, 583)
    with pytest.raises(ValueError):
        find_params_for_tolerance(1, 0.9)
    with pytest.raises(ValueError):
        find_params_for_tolerance(64, 1.0)


def test_capacity_property():
    params = CodeParams(k=64, alpha=10, L=393)
    assert params.capacity == math.comb(393, 10)


def test_constant_weight_invariant_table_sets():
    rng = np.random.default_rng(7)
    for k, alpha in [(64, 10), (128, 20)]:
        params = find_params(k, alpha).params
        for _ in range(25):
            value = int(rng.integers(0, 2**63))
            bits = int_to_bits(value, k)
            assert int(encode(bits, params).sum()) == alpha
