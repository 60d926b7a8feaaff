"""Keyed selection, two-threshold projection, top-alpha detection, block mode."""

import dataclasses
import math
import tracemalloc
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from cwmark import (
    CapacityError,
    CodeParams,
    EmbedSpec,
    MalformedCodewordError,
    MessageRangeError,
    PositionRangeError,
    SelectionRatioError,
    ThresholdPair,
    embed,
    embed_message,
    embed_message_blocks,
    encode,
    extract,
    extract_message,
    extract_message_blocks,
    find_params,
    int_to_bits,
    join_blocks,
    q_function,
    q_inverse,
    select_positions,
    split_blocks,
)
from cwmark import watermark
from cwmark.rng import MASK64, mix64, random_bits, splitmix64_stream
from cwmark.watermark import _block_selection_seeds, _draw_positions

PAIR = ThresholdPair(t0=0.5, t1=2.0)


def small_spec(n, alpha=2, L=4, k=2, key=9, positions=None):
    params = CodeParams(k=k, alpha=alpha, L=L)
    if positions is None:
        positions = tuple(range(L))
    return EmbedSpec(key=key, params=params, thresholds=PAIR, positions=positions)


# --- select_positions ------------------------------------------------------


def test_select_positions_deterministic():
    a = select_positions(123, 100_000, 50)
    b = select_positions(123, 100_000, 50)
    assert np.array_equal(a, b)


def test_select_positions_distinct_and_in_range():
    pos = select_positions(7, 50_000, 400)
    assert len(set(pos.tolist())) == 400
    assert pos.min() >= 0 and pos.max() < 50_000


def test_select_positions_full_permutation_with_override():
    pos = select_positions(5, 10, 10, allow_dense=True)
    assert sorted(pos.tolist()) == list(range(10))


def test_select_positions_key_sensitivity():
    a = select_positions(1, 1_000_000, 393)
    b = select_positions(2, 1_000_000, 393)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize(
    "key, n, l",
    [
        (77, 10_000, 60),
        (5, 25_600, 256),
        (2**64 - 3, 25_700, 257),
        (6, 76_900, 769),
        (0, 1_000_000, 393),
        (2**64 - 1, 2_000_000, 12955),
    ],
)
def test_select_positions_matches_sequential_reference(key, n, l):
    # Independent replay: partial Fisher-Yates with modulo draws from the
    # sequential generator, no shared code with the package. The middle
    # cases end at, just past and past the second of the stream's pieces
    # of 256, 512, ... words; the last two are the benchmark's L=393 and
    # L=12955 shapes.
    draws = ref.splitmix64_sequential(key, l)
    swapped = {}
    want = []
    for i in range(l):
        j = i + draws[i] % (n - i)
        want.append(swapped.get(j, j))
        swapped[j] = swapped.get(i, i)
    assert select_positions(key, n, l).tolist() == want


def test_select_positions_density_limit():
    with pytest.raises(SelectionRatioError):
        select_positions(1, 1000, 11)
    assert len(select_positions(1, 1000, 10)) == 10
    assert len(select_positions(1, 1000, 11, allow_dense=True)) == 11


def test_select_positions_domain_errors():
    with pytest.raises(ValueError):
        select_positions(1, 10, 11, allow_dense=True)
    with pytest.raises(ValueError):
        select_positions(1, 10, 0, allow_dense=True)


def test_select_positions_roughly_uniform():
    counts = np.zeros(4)
    for key in range(2000):
        counts[select_positions(key, 4, 1, allow_dense=True)[0]] += 1
    assert counts.min() > 2000 / 4 * 0.8
    assert counts.max() < 2000 / 4 * 1.2


# --- EmbedSpec validation ----------------------------------------------------


def test_embed_spec_validation():
    params = CodeParams(k=2, alpha=2, L=4)
    with pytest.raises(ValueError):
        EmbedSpec(key=-1, params=params, thresholds=PAIR, positions=(0, 1, 2, 3))
    with pytest.raises(ValueError):
        EmbedSpec(key=1, params=params, thresholds=PAIR, positions=(0, 1, 2))
    with pytest.raises(ValueError):
        EmbedSpec(key=1, params=params, thresholds=PAIR, positions=(0, 1, 2, 2))
    with pytest.raises(ValueError):
        EmbedSpec(key=1, params=params, thresholds=PAIR, positions=(0, 1, 2, -1))


# --- embed -------------------------------------------------------------------


def test_embed_projection_cases():
    # One 1-position and one 0-position per input of interest.
    tiny = np.float32(1e-45)  # the smallest binary32 subnormal
    weights = np.array(
        [3.0, -1.0, 0.0, 2.0, -tiny, 0.9, -0.9, 0.4, -0.0, 0.5, tiny],
        dtype=np.float32,
    )
    codeword = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
    spec = small_spec(11, alpha=5, L=11, k=2, positions=tuple(range(11)))
    out, receipt = embed(weights, codeword, spec)
    assert out[0] == np.float32(3.0)  # c=1, already >= t1
    assert out[1] == np.float32(-2.0)  # c=1, raised, sign kept
    assert out[2] == np.float32(2.0)  # c=1 at zero, sgn(0)=+1
    assert out[3] == np.float32(2.0)  # c=1 exactly at t1, untouched
    assert out[4] == np.float32(-2.0)  # c=1 subnormal, raised, sign kept
    assert out[5] == np.float32(0.5)  # c=0, capped down
    assert out[6] == np.float32(-0.5)  # c=0, capped, sign kept
    assert out[7] == np.float32(0.4)  # c=0, already <= t0
    assert out[8:].view(np.uint32).tolist() == weights[8:].view(np.uint32).tolist()
    assert out.view(np.uint32)[8] == 0x80000000  # c=0 at -0.0 keeps its sign bit
    # out[9]: c=0 exactly at t0; out[10]: c=0 subnormal; both untouched.
    assert receipt.modified_count == 5
    assert receipt.max_perturbation == pytest.approx(2.0)


def test_embed_locality():
    rng = np.random.default_rng(3)
    weights = rng.normal(0, 1, size=5000).astype(np.float32)
    positions = tuple(select_positions(11, 5000, 40, allow_dense=True).tolist())
    params = CodeParams(k=8, alpha=5, L=40)
    spec = EmbedSpec(key=11, params=params, thresholds=PAIR, positions=positions)
    codeword = encode(random_bits(4, 8), params)
    out, _ = embed(weights, codeword, spec)
    mask = np.ones(5000, dtype=bool)
    mask[list(positions)] = False
    assert np.array_equal(
        out[mask].view(np.uint32), weights[mask].view(np.uint32)
    )


def test_embed_idempotent():
    rng = np.random.default_rng(4)
    weights = rng.normal(0, 1, size=800).astype(np.float32)
    spec = small_spec(800, alpha=3, L=8, k=3, positions=tuple(range(0, 64, 8)))
    codeword = encode([1, 0, 1], spec.params)
    once, _ = embed(weights, codeword, spec)
    twice, receipt = embed(once, codeword, spec)
    assert np.array_equal(once.view(np.uint32), twice.view(np.uint32))
    assert receipt.modified_count == 0
    assert receipt.max_perturbation == 0.0


def test_embed_preserves_sign_of_nonzero():
    rng = np.random.default_rng(5)
    weights = rng.normal(0, 1, size=400).astype(np.float32)
    weights[weights == 0] = 0.25
    params = CodeParams(k=4, alpha=4, L=16)
    positions = tuple(range(16))
    spec = EmbedSpec(key=1, params=params, thresholds=PAIR, positions=positions)
    codeword = encode([1, 0, 0, 1], params)
    out, _ = embed(weights, codeword, spec)
    w = weights[list(positions)]
    o = out[list(positions)]
    assert np.all(np.sign(o[w != 0]) == np.sign(w[w != 0]))


def test_embed_errors():
    weights = np.zeros(10, dtype=np.float32)
    spec = small_spec(10)
    with pytest.raises(MalformedCodewordError):
        embed(weights, [1, 1, 1, 0], spec)  # weight 3 != alpha 2
    with pytest.raises(ValueError):
        embed(weights, [1, 1, 0], spec)  # wrong length
    with pytest.raises(ValueError):
        embed(np.zeros((2, 5), dtype=np.float32), [1, 1, 0, 0], spec)
    with pytest.raises(ValueError):
        embed(np.array([np.nan] * 10, dtype=np.float32), [1, 1, 0, 0], spec)
    bad = small_spec(10, positions=(0, 1, 2, 99))
    with pytest.raises(PositionRangeError):
        embed(weights, [1, 1, 0, 0], bad)


# --- extract -----------------------------------------------------------------


def test_extract_unique_max():
    weights = np.array([0.0, 0.3, 5.0, 0.1], dtype=np.float32)
    spec = small_spec(4, alpha=1, L=4, k=2)
    assert extract(weights, spec).tolist() == [0, 0, 1, 0]


def test_extract_tie_break_lowest_position_index():
    weights = np.array([1.0, 1.0, 1.0, 0.0], dtype=np.float32)
    spec = small_spec(4, alpha=2, L=4, k=2)
    assert extract(weights, spec).tolist() == [1, 1, 0, 0]
    # Position list order governs the tie-break, not host index order.
    spec_rev = small_spec(4, alpha=2, L=4, k=2, positions=(3, 2, 1, 0))
    assert extract(weights, spec_rev).tolist() == [0, 1, 1, 0]


def test_extract_weight_always_alpha():
    spec = small_spec(8, alpha=3, L=8, k=2, positions=tuple(range(8)))
    for weights in [
        np.zeros(8, dtype=np.float32),
        np.ones(8, dtype=np.float32),
        np.array([1, -1, 1, -1, 1, -1, 1, -1], dtype=np.float32),
    ]:
        assert int(extract(weights, spec).sum()) == 3


def test_extract_inverts_embed_random_and_adversarial():
    rng = np.random.default_rng(6)
    params = CodeParams(k=6, alpha=4, L=12)
    hosts = [
        np.zeros(600, dtype=np.float32),
        np.full(600, 0.7, dtype=np.float32),
        (0.3 * (-1.0) ** np.arange(600)).astype(np.float32),
    ]
    for trial in range(40):
        hosts.append(rng.normal(0, 1, size=600).astype(np.float32))
    for i, host in enumerate(hosts):
        positions = tuple(
            select_positions(1000 + i, 600, 12, allow_dense=True).tolist()
        )
        spec = EmbedSpec(key=1000 + i, params=params, thresholds=PAIR, positions=positions)
        codeword = encode(random_bits(i, 6), params)
        marked, _ = embed(host, codeword, spec)
        assert extract(marked, spec).tolist() == codeword.tolist(), i


# --- message pipeline --------------------------------------------------------


def test_embed_extract_message_roundtrip():
    rng = np.random.default_rng(8)
    weights = rng.normal(0, 0.01, size=60_000).astype(np.float32)
    params = CodeParams(k=16, alpha=6, L=64)
    pair = ThresholdPair(t0=0.01, t1=0.02)
    message = random_bits(99, 16)
    marked, receipt = embed_message(weights, message, 2024, pair, params)
    assert receipt.modified_count <= params.L
    assert extract_message(marked, receipt.spec).tolist() == message.tolist()


def test_embed_message_modification_statistics():
    # Expected fraction of 1-positions needing a push is P(|w| < t1)
    # = 1 - 2 Q(t1/sigma) = 0.9 for the one-sided 0.95 design.
    sigma = 0.01
    t1 = sigma * q_inverse(1 - 0.95)
    pair = ThresholdPair(t0=t1 / 2, t1=t1)
    params = CodeParams(k=16, alpha=10, L=100)
    expected = 1.0 - 2.0 * q_function(t1 / sigma)
    assert expected == pytest.approx(0.9, abs=1e-12)
    rng = np.random.default_rng(12)
    touched = total = 0
    for key in range(30):
        weights = rng.normal(0, sigma, size=10_000).astype(np.float32)
        message = random_bits(key, 16)
        marked, receipt = embed_message(weights, message, key, pair, params)
        assert receipt.modified_count > 0  # alpha >= 8 makes this overwhelming
        pos = np.asarray(receipt.spec.positions)
        word = extract(marked, receipt.spec)
        ones = pos[word == 1]
        changed = marked[ones].view(np.uint32) != weights[ones].view(np.uint32)
        touched += int(changed.sum())
        total += len(ones)
    assert touched / total == pytest.approx(expected, abs=0.08)


def test_embed_message_selects_before_encoding():
    # k=64 at alpha=1 needs L = 2**64 + 1 positions: select_positions
    # refuses it at once, before encode would build a ladder row that long.
    params = find_params(64, 1).params
    assert params.L > 2**64
    with pytest.raises(ValueError, match="cannot select"):
        embed_message(
            np.zeros(1000, dtype=np.float32), random_bits(0, 64), 1,
            ThresholdPair(t0=0.5, t1=2.0), params,
        )


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=400, max_value=5000),
    key=st.integers(min_value=0, max_value=MASK64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    alpha=st.sampled_from([2, 4, 10]),
)
def test_embed_message_is_embed_at_selected_positions(n, key, seed, alpha):
    params = find_params(16, alpha).params
    weights = np.random.default_rng(seed).normal(0, 1, n).astype(np.float32)
    message = random_bits(seed, 16)
    positions = select_positions(key, n, params.L, allow_dense=True)
    spec = EmbedSpec(key=key, params=params, thresholds=PAIR, positions=positions)
    want, want_receipt = embed(weights, encode(message, params), spec)
    got, receipt = embed_message(weights, message, key, PAIR, params, allow_dense=True)
    assert got.tobytes() == want.tobytes()
    assert receipt == want_receipt


# --- blocks ------------------------------------------------------------------


def test_split_blocks_shapes():
    blocks = split_blocks(random_bits(0, 128), 64)
    assert [b.size for b in blocks] == [64, 64]
    message = random_bits(1, 100)
    blocks = split_blocks(message, 64)
    assert [b.size for b in blocks] == [64, 64]
    assert not blocks[1][36:].any()  # zero pad after the 36 payload bits
    assert join_blocks(blocks, 100).tolist() == message.tolist()


def test_split_blocks_errors():
    with pytest.raises(ValueError):
        split_blocks([], 64)
    with pytest.raises(ValueError):
        split_blocks([1, 0], 0)


@pytest.mark.parametrize("size", [100, 128])
def test_split_blocks_do_not_alias_the_message(size):
    message = random_bits(2, size)
    blocks = split_blocks(message, 64)
    before = [b.tolist() for b in blocks]
    message ^= 1
    assert [b.tolist() for b in blocks] == before
    blocks[0][:] = 0
    assert message.tolist() == (random_bits(2, size) ^ 1).tolist()


def test_join_blocks_validation():
    with pytest.raises(ValueError):
        join_blocks([[1, 0, 1]], 5)  # not enough bits
    with pytest.raises(ValueError):
        join_blocks([[1, 0, 1, 1]], 3)  # nonzero padding
    assert join_blocks([[1, 0, 1, 0]], 3).tolist() == [1, 0, 1]


def test_block_mode_roundtrip_disjoint_deterministic():
    rng = np.random.default_rng(13)
    weights = rng.normal(0, 0.01, size=80_000).astype(np.float32)
    pair = ThresholdPair(t0=0.01, t1=0.02)
    message = random_bits(5, 100)
    marked, specs, receipts = embed_message_blocks(
        weights, message, key=555, thresholds=pair, alpha=10, k_block=64
    )
    assert len(specs) == len(receipts) == 2
    seen = set()
    for spec in specs:
        assert seen.isdisjoint(spec.positions)
        seen.update(spec.positions)
    assert extract_message_blocks(marked, specs, 100).tolist() == message.tolist()
    again, specs2, _ = embed_message_blocks(
        weights, message, key=555, thresholds=pair, alpha=10, k_block=64
    )
    assert np.array_equal(marked.view(np.uint32), again.view(np.uint32))
    assert [s.positions for s in specs2] == [s.positions for s in specs]


def test_block_mode_equals_chained_embed_and_keeps_input():
    rng = np.random.default_rng(17)
    weights = rng.normal(0, 0.01, size=200_000).astype(np.float32)
    before = weights.copy()
    pair = ThresholdPair(t0=0.01, t1=0.02)
    message = random_bits(8, 200)  # four 64-bit blocks, the last one padded
    marked, specs, receipts = embed_message_blocks(
        weights, message, key=2024, thresholds=pair, alpha=10, k_block=64
    )
    assert np.array_equal(weights.view(np.uint32), before.view(np.uint32))
    chained = weights
    for spec, block, receipt in zip(specs, split_blocks(message, 64), receipts):
        chained, again = embed(chained, encode(block, spec.params), spec)
        assert again == receipt
    assert np.array_equal(marked.view(np.uint32), chained.view(np.uint32))


def test_embed_leaves_input_unchanged():
    weights = np.random.default_rng(19).normal(0, 0.01, size=5000).astype(np.float32)
    before = weights.copy()
    spec = small_spec(5000, alpha=2, L=4, k=2, positions=(3, 70, 4000, 12))
    marked, receipt = embed(weights, [1, 0, 1, 0], spec)
    assert receipt.modified_count > 0
    assert np.array_equal(weights.view(np.uint32), before.view(np.uint32))
    assert not np.array_equal(marked.view(np.uint32), before.view(np.uint32))


def old_block_selection_seed(key: int, block_index: int, attempt: int) -> int:
    """The re-draw chain before a zero seed re-mixed GOLDEN_GAMMA."""
    seed = mix64((key ^ block_index) & MASK64)
    for _ in range(attempt):
        seed = mix64(seed)
    return seed


def test_block_selection_seed_matches_old_chain_off_zero():
    keys = splitmix64_stream(31, 200).tolist() + list(range(8))
    for key in keys:
        for j in range(6):
            if key == j:
                continue
            seeds = list(islice(_block_selection_seeds(key, j), 4))
            assert seeds == [old_block_selection_seed(key, j, a) for a in range(4)]


def test_block_selection_seed_redraws_when_key_equals_block_index():
    for j in range(4):
        seeds = list(islice(_block_selection_seeds(j, j), 20))
        assert seeds[0] == old_block_selection_seed(j, j, 0) == 0
        assert len(set(seeds)) == 20


def test_draw_with_taken_is_select_positions_or_a_refusal():
    # A draw refused at its first position in taken is refused exactly
    # when the full draw meets taken; an accepted draw is the full one.
    rng = np.random.default_rng(29)
    outcomes = set()
    for _ in range(300):
        n = int(rng.integers(20, 3000))
        l = int(rng.integers(1, min(n, 80) + 1))
        seed = int(rng.integers(0, 1 << 64, dtype=np.uint64))
        size = int(rng.integers(0, n // 8 + 1))
        taken = set(rng.choice(n, size=size, replace=False).tolist())
        full = select_positions(seed, n, l, allow_dense=True).tolist()
        if taken.isdisjoint(full):
            assert _draw_positions([seed], n, l, taken) == full
        else:
            with pytest.raises(SelectionRatioError):
                _draw_positions([seed], n, l, taken)
        outcomes.add(taken.isdisjoint(full))
    assert outcomes == {True, False}


def test_block_refusal_stops_each_redraw_at_its_first_collision(monkeypatch):
    # Two 393-position blocks in 1000 weights are never disjoint, so block 1
    # is refused after all 1000 re-draws. Block 0 takes 393 Fisher-Yates
    # steps; each re-draw meets block 0 after about 1000 / 393 steps, where
    # running every draw in full takes 393 + 1000 * 393 steps.
    steps = 0
    stream = watermark.splitmix64_stream

    def counted(seed, count):
        def step(word):
            nonlocal steps
            steps += 1
            return word

        words = stream(seed, count).tolist()
        return SimpleNamespace(tolist=lambda: map(step, words))

    monkeypatch.setattr(watermark, "splitmix64_stream", counted)
    with pytest.raises(SelectionRatioError, match="disjoint"):
        embed_message_blocks(
            np.ones(1000, dtype=np.float32), random_bits(4, 128), key=5,
            thresholds=PAIR, alpha=10, k_block=64, allow_dense=True,
        )
    assert 393 + 1000 <= steps < 393 + 1000 * 10


def test_block_refusal_draws_its_words_in_pieces(monkeypatch):
    # Block 1 cannot miss the 3000 taken positions of 4000, so all 1000
    # re-draws are refused, each within its first 256 words. Drawing each
    # attempt's 3000 words at once drew 3 million.
    drawn = []
    stream = watermark.splitmix64_stream

    def counted(seed, count):
        drawn.append(count)
        return stream(seed, count)

    monkeypatch.setattr(watermark, "splitmix64_stream", counted)
    taken = set(range(3000))
    with pytest.raises(SelectionRatioError, match="disjoint"):
        _draw_positions(_block_selection_seeds(5, 1), 4000, 3000, taken)
    assert drawn == [256] * 1000
    # A full draw takes pieces that double, so few of them.
    drawn.clear()
    select_positions(7, 2_000_000, 12955)
    assert drawn == [256, 512, 1024, 2048, 4096, 5019]


def test_block_extract_checks_every_position_before_decoding():
    # Block 0 decodes out of range and block 1 has a position past n: the
    # position error wins, as it does for cwmark extract (exit 3).
    weights = np.random.default_rng(23).normal(0, 0.01, 80_000).astype(np.float32)
    pair = ThresholdPair(t0=0.01, t1=0.02)
    marked, specs, _ = embed_message_blocks(
        weights, random_bits(6, 128), key=9, thresholds=pair, alpha=10, k_block=64
    )
    pos = list(specs[0].positions)
    marked[pos] = np.linspace(0.1, 1.0, len(pos), dtype=np.float32)
    with pytest.raises(MessageRangeError):
        extract_message_blocks(marked, specs, 128)
    past = dataclasses.replace(specs[1], positions=(marked.size, *specs[1].positions[1:]))
    with pytest.raises(PositionRangeError):
        extract_message_blocks(marked, [specs[0], past], 128)


def test_block_mode_sizes_the_code_before_padding_the_message():
    # find_params refuses k_block = 5 * 10**7 from its size before
    # split_blocks pads a 1-bit message to a 50 MB block.
    w = np.ones(1000, dtype=np.float32)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            embed_message_blocks(w, [1], key=3, thresholds=PAIR, alpha=10, k_block=50_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_block_mode_density_checks_total():
    pair = ThresholdPair(t0=0.01, t1=0.02)
    message = random_bits(2, 8)  # two 4-bit blocks
    # Each block alone passes the limit, the pair does not.
    weights = np.zeros(1500, dtype=np.float32)
    with pytest.raises(SelectionRatioError):
        embed_message_blocks(
            weights, message, key=1, thresholds=pair, alpha=2, k_block=4
        )
    out, specs, _ = embed_message_blocks(
        weights, message, key=1, thresholds=pair, alpha=2, k_block=4,
        allow_dense=True,
    )
    assert extract_message_blocks(out, specs, 8).tolist() == message.tolist()


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_embed_extract_roundtrip_property(data):
    n = data.draw(st.integers(min_value=16, max_value=400))
    L = data.draw(st.integers(min_value=2, max_value=min(n, 24)))
    alpha = data.draw(st.integers(min_value=1, max_value=L - 1))
    k = math.comb(L, alpha).bit_length() - 1
    if k < 1:
        k = 1
    if 2**k > math.comb(L, alpha):
        k -= 1
    if k < 1:
        return
    params = CodeParams(k=k, alpha=alpha, L=L)
    key = data.draw(st.integers(min_value=0, max_value=2**64 - 1))
    value = data.draw(st.integers(min_value=0, max_value=2**k - 1))
    host = data.draw(
        st.sampled_from(["zeros", "gauss", "alternating", "equal"])
    )
    rng = np.random.default_rng(key & 0xFFFF)
    if host == "zeros":
        weights = np.zeros(n, dtype=np.float32)
    elif host == "gauss":
        weights = rng.normal(0, 1, n).astype(np.float32)
    elif host == "alternating":
        weights = (0.9 * (-1.0) ** np.arange(n)).astype(np.float32)
    else:
        weights = np.full(n, 1.5, dtype=np.float32)
    positions = tuple(select_positions(key, n, L, allow_dense=True).tolist())
    spec = EmbedSpec(key=key, params=params, thresholds=PAIR, positions=positions)
    codeword = encode(int_to_bits(value, k), params)
    marked, receipt = embed(weights, codeword, spec)
    assert receipt.modified_count <= L
    assert extract(marked, spec).tolist() == codeword.tolist()
