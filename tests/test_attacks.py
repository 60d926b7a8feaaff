"""Magnitude pruning, Gaussian noise, and keyless targeted-flip attacks."""

import hashlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwmark import (
    CodeParams,
    CwmarkError,
    ThresholdPair,
    add_noise,
    attacks,
    design_thresholds,
    embed_message,
    encode,
    extract,
    estimate_sigma,
    prune,
    read_weights,
    rng,
    sample_gaussian_weights,
    standard_normals,
    stats,
    targeted_flip_attack,
    watermark,
    write_weights,
)
from cwmark.cli import main
from cwmark.rng import random_bits, splitmix64_stream
from cwmark.watermark import _PIECE, _ArrayPieces

# --- prune -------------------------------------------------------------------


def test_prune_rate_zero_is_identity():
    w = np.array([0.1, -0.5, 2.0, -3.0], dtype=np.float32)
    out, spec = prune(w, 0.0)
    assert spec.p == 0
    assert spec.cutoff == pytest.approx(0.1)
    assert spec.zeroed == 0
    assert np.array_equal(out, w)


def test_prune_hand_worked_case():
    w = np.array([0.1, -0.5, 2.0, -3.0], dtype=np.float32)
    out, spec = prune(w, 0.5)
    assert spec.p == 2
    assert spec.cutoff == pytest.approx(2.0)
    assert out.tolist() == [0.0, 0.0, 2.0, -3.0]
    assert spec.zeroed == 2


def test_prune_ties_at_cutoff_survive():
    w = np.array([2.0, 2.0, 2.0, 3.0], dtype=np.float32)
    out, spec = prune(w, 0.5)
    assert spec.cutoff == pytest.approx(2.0)
    assert spec.zeroed == 0
    assert np.array_equal(out, w)


def test_prune_leaves_input_unchanged():
    w = sample_gaussian_weights(10_000, 0.01, seed=6)
    before = w.copy()
    out, spec = prune(w, 0.9)
    assert spec.zeroed > 0
    assert np.array_equal(w.view(np.uint32), before.view(np.uint32))
    assert np.count_nonzero(out == 0) == spec.zeroed


def test_prune_rate_validation():
    w = np.ones(4, dtype=np.float32)
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            prune(w, bad)


def test_prune_large_gaussian_fraction_and_survivors():
    w = sample_gaussian_weights(1_000_000, sigma=1.0, seed=17)
    out, spec = prune(w, 0.9)
    frac = spec.zeroed / w.size
    assert abs(frac - 0.9) < 0.005
    survivors = out[out != 0]
    assert np.abs(survivors).min() >= spec.cutoff
    # Survivors keep their exact stored values.
    kept = np.abs(w) >= spec.cutoff
    assert np.array_equal(out[kept].view(np.uint32), w[kept].view(np.uint32))
    assert not out[~kept].any()


def test_prune_idempotent_on_generic_input():
    w = sample_gaussian_weights(10_000, sigma=0.5, seed=3)
    once, spec1 = prune(w, 0.7)
    twice, spec2 = prune(once, 0.7)
    assert np.array_equal(once.view(np.uint32), twice.view(np.uint32))
    # The mask re-flags the zeros it created; the values do not move.
    assert spec2.zeroed == spec1.zeroed
    assert spec2.cutoff == pytest.approx(spec1.cutoff)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rate=st.floats(min_value=0.0, max_value=0.999),
    quantize=st.booleans(),
)
def test_prune_invariants_property(n, seed, rate, quantize):
    rng = np.random.default_rng(seed)
    w = rng.normal(0, 1, n).astype(np.float32)
    if quantize:  # force magnitude ties
        w = np.round(w * 4) / 4
    out, spec = prune(w, rate)
    mag = np.abs(w)
    surviving = mag >= np.float32(spec.cutoff)
    # Survivors keep exact values, everything else is zero.
    assert np.array_equal(out[surviving].view(np.uint32), w[surviving].view(np.uint32))
    assert not out[~surviving].any()
    assert spec.p == min(int(rate * n), n - 1)
    ties = int(np.count_nonzero(mag == np.float32(spec.cutoff)))
    assert spec.p - ties <= spec.zeroed <= spec.p
    again, _ = prune(out, rate)
    assert np.array_equal(again.view(np.uint32), out.view(np.uint32))


@pytest.mark.parametrize("rate", [0.0, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("n", [1, 5, 1000, 2**12 + 3])
def test_prune_chunks_match_whole_vector(monkeypatch, n, rate):
    # Chunk edges at every 7 weights; zeros, -0.0 and ties at the cutoff.
    # The select's sample is the whole vector, then every ceil(n / 8)-th
    # weight, which brackets the cutoff loosely or misses it.
    monkeypatch.setattr(watermark, "_PIECE", 7)
    w = np.round(np.random.default_rng(n).normal(0, 1, n) * 4).astype(np.float32) / 4
    w[::5] = 0.0
    w[1::11] = -0.0
    for size in (attacks._sample_size, lambda n: 8):
        monkeypatch.setattr(attacks, "_sample_size", size)
        out, spec = prune(w, rate)
        mask = np.abs(w) < np.float32(spec.cutoff)
        want = w.copy()
        want[mask] = 0.0
        assert out.tobytes() == want.tobytes()
        assert spec.zeroed == int(np.count_nonzero(mask))
        assert spec.cutoff == float(np.sort(np.abs(w))[spec.p])
        inplace = w.copy()
        assert attacks._prune_into(_ArrayPieces(inplace), rate) == spec
        assert inplace.tobytes() == want.tobytes()


def sorted_prune(w, rate):
    """prune by a full sort of the magnitudes: (result, p, cutoff, zeroed)."""
    mag = np.abs(w)
    p = min(int(np.floor(rate * w.size)), w.size - 1)
    cutoff = np.sort(mag)[p]
    mask = mag < cutoff
    out = w.copy()
    out[mask] = 0.0
    return out, p, float(cutoff), int(np.count_nonzero(mask))


# Ties on a grid, both zeros, subnormals and the binary32 extremes.
PRUNE_SPECIAL = [
    0.0, -0.0, 0.25, -0.25, 1.0, -1.0, 1e-45, -1e-45, 1e-40, -1e-40,
    2.0**-126, -(2.0**-126), 3.4028235e38, -3.4028235e38,
]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_prune_into_matches_sort(data):
    # The bit-pattern select against a sort of np.abs: the same bytes
    # (signs of surviving zeros too), p, cutoff and zero count. A sample
    # of 8 values exercises the bracket's edges and the histogram fallback.
    values = st.one_of(
        st.sampled_from(PRUNE_SPECIAL),
        st.floats(width=32, allow_nan=False, allow_infinity=False),
    )
    w = np.array(data.draw(st.lists(values, min_size=1, max_size=400)), dtype=np.float32)
    n = w.size
    rate = data.draw(
        st.sampled_from([0.0, (n - 1) / n, 0.999999])
        | st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
    )
    size = data.draw(st.sampled_from([attacks._sample_size, lambda n: 8]))
    want, p, cutoff, zeroed = sorted_prune(w, rate)
    out = w.copy()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(attacks, "_sample_size", size)
        spec = attacks._prune_into(_ArrayPieces(out), rate)
    assert out.tobytes() == want.tobytes()
    assert (spec.rate, spec.p, spec.cutoff, spec.zeroed) == (rate, p, cutoff, zeroed)
    assert type(spec.zeroed) is int


@pytest.mark.parametrize(
    "w, rate, zeroed",
    [
        ([-0.0], 0.0, 0),
        ([-0.0, 0.0, -0.0, 1.0], 0.5, 0),
        ([-1e-45, 1e-45, -0.0, 2.0], 0.5, 1),
        ([3.4028235e38, -3.4028235e38, -1e-40], 0.9, 1),
    ],
)
def test_prune_into_zeros_and_extremes(w, rate, zeroed):
    # A -0.0 at a cutoff of 0 survives with its sign; a zeroed -0.0 or
    # subnormal becomes +0.0.
    w = np.array(w, dtype=np.float32)
    want, p, cutoff, count = sorted_prune(w, rate)
    out = w.copy()
    spec = attacks._prune_into(_ArrayPieces(out), rate)
    assert out.tobytes() == want.tobytes()
    assert (spec.p, spec.cutoff, spec.zeroed) == (p, cutoff, count) == (p, cutoff, zeroed)


def counted_fallback(monkeypatch) -> list:
    """The ranks _pattern_at hands to its histogram fallback, from now on."""
    ranks, select = [], attacks._histogram_select

    def counted(source, rank):
        ranks.append(rank)
        return select(source, rank)

    monkeypatch.setattr(attacks, "_histogram_select", counted)
    return ranks


def test_select_falls_back_when_the_sample_holds_only_zeros(monkeypatch):
    # n > _SAMPLE, so the sample is every 2nd weight, and those are all 0:
    # the bracket is [0, 1]. The zeros' ties are counted, so a rank among
    # them needs no fallback; a rank above them is past the bracket, and the
    # histogram passes give it. Either way, the sort's bytes and reports.
    n = 3 * _PIECE + 5
    assert attacks._sample_size(n) < n <= 2 * attacks._sample_size(n)
    w = sample_gaussian_weights(n, sigma=0.01, seed=12)
    w[::2] = 0.0
    w[1::14] = -0.0
    zeros = int(np.count_nonzero(w == 0))
    ranks = counted_fallback(monkeypatch)
    for rate in (0.3, 0.5, 0.9):
        want, p, cutoff, zeroed = sorted_prune(w, rate)
        out, spec = prune(w, rate)
        assert out.tobytes() == want.tobytes()
        assert (spec.p, spec.cutoff, spec.zeroed) == (p, cutoff, zeroed)
        assert ranks == ([p] if p >= zeros else [])
        ranks.clear()
    # suppress selects rank n - budget - 1; inflate, with too few candidates
    # (magnitude <= RMS / 2), the budget smallest: rank budget - 1.
    picks = [("suppress", 10), ("suppress", n // 10), ("suppress", n // 2), ("inflate", n - 1)]
    for strategy, budget in picks:
        out, touched = targeted_flip_attack(w, budget, seed=3, strategy=strategy)
        want, want_touched = old_flip(w, budget, 3, strategy)
        assert out.tobytes() == want.tobytes()
        assert touched.tolist() == want_touched.tolist()
        rank = n - budget - 1 if strategy == "suppress" else budget - 1
        assert ranks == ([rank] if rank >= zeros else [])
        ranks.clear()


def test_select_takes_no_fallback_on_gaussian_weights(monkeypatch):
    # A select that always fell back would be exact too, and slower: on
    # Gaussian weights the sampled bracket holds the cutoff.
    w = sample_gaussian_weights(1 << 22, sigma=0.01, seed=13)
    mag = np.abs(w)
    ranks = counted_fallback(monkeypatch)
    for rate in (0.5, 0.9, 0.99):
        _, spec = prune(w, rate)
        assert spec.zeroed == int(np.count_nonzero(mag < np.float32(spec.cutoff)))
    assert ranks == []


def test_select_counts_ties_at_the_bracket_edges(monkeypatch):
    # Many equal weights at the sampled bracket's edges: a vector pruned
    # again (about 90% zeros), and weights on a grid of 0.005, with rates
    # just past the start and just before the end of one grid value's run,
    # so the rank falls among the ties at hi and at lo. The edges' ties are
    # counted, not kept, so the band fits and nothing falls back.
    n = 1 << 20
    w = sample_gaussian_weights(n, sigma=0.01, seed=14)
    pruned, _ = prune(w, 0.9)
    grid = (np.round(w / np.float32(0.005)) * np.float32(0.005)).astype(np.float32)
    run = np.count_nonzero(np.abs(grid) < 0.0125) / n, np.count_nonzero(np.abs(grid) < 0.0175) / n
    ranks = counted_fallback(monkeypatch)
    cases = [(pruned, 0.9), (pruned, 0.5), (pruned, 0.95), (grid, 0.5), (grid, run[0] + 1e-3)]
    for v, rate in cases + [(grid, run[1] - 1e-3)]:
        want, p, cutoff, zeroed = sorted_prune(v, rate)
        out, spec = prune(v, rate)
        assert out.tobytes() == want.tobytes()
        assert (spec.p, spec.cutoff, spec.zeroed) == (p, cutoff, zeroed)
        # The whole triple, count above included, against a sort.
        mag = np.sort(v.view(np.uint32) & 0x7FFFFFFF)
        at = int(mag[p])
        first, last = np.searchsorted(mag, at), np.searchsorted(mag, at, side="right")
        assert attacks._pattern_at(_ArrayPieces(v), p) == (at, p - first, n - last)
    for budget in (n // 20, n // 2):
        out, touched = targeted_flip_attack(pruned, budget, seed=5)
        want, want_touched = old_flip(pruned, budget, 5, "suppress")
        assert out.tobytes() == want.tobytes()
        assert touched.tolist() == want_touched.tolist()
    assert ranks == []


def test_select_memory_grows_as_n_to_the_two_thirds():
    # 2**31 weights, one Gaussian piece over and over: the sample aims at
    # n**(2/3) values, and the band buffer at rate 0.5, the widest bracket,
    # stays within 9 times that (with a fixed 2**17-value sample it would
    # be about 95M values, 380 MB).
    piece = sample_gaussian_weights(_PIECE, sigma=0.01, seed=15)

    class Repeated:
        n = 1 << 31

        def pieces(self):
            return ((start, piece) for start in range(0, self.n, _PIECE))

    size = attacks._sample_size(Repeated.n)
    assert attacks._sample_size(1 << 20) == attacks._SAMPLE
    assert size == round(Repeated.n ** (2 / 3))
    lo, hi, band = attacks._bracket(Repeated(), Repeated.n // 2)
    assert lo < hi and band <= 9 * size


def test_prune_zeroed_fraction_bound():
    rng = np.random.default_rng(8)
    for trial in range(20):
        n = int(rng.integers(10, 2000))
        w = (rng.normal(0, 1, n) * rng.integers(1, 3, n)).astype(np.float32)
        rate = float(rng.uniform(0, 0.99))
        out, spec = prune(w, rate)
        ties = int(np.count_nonzero(np.abs(w) == np.float32(spec.cutoff)))
        assert spec.zeroed <= spec.p
        assert spec.zeroed >= spec.p - ties


# --- add_noise ---------------------------------------------------------------


def test_add_noise_zero_sigma_copies():
    w = np.array([1.0, -2.0], dtype=np.float32)
    out = add_noise(w, 0.0, seed=1)
    assert np.array_equal(out, w)
    out[0] = 5.0
    assert w[0] == 1.0


def test_add_noise_deterministic_per_seed():
    w = sample_gaussian_weights(1000, sigma=1.0, seed=0)
    a = add_noise(w, 0.1, seed=42)
    b = add_noise(w, 0.1, seed=42)
    c = add_noise(w, 0.1, seed=43)
    assert np.array_equal(a.view(np.uint32), b.view(np.uint32))
    assert not np.array_equal(a, c)
    assert np.std(a - w) == pytest.approx(0.1, rel=0.1)


def test_add_noise_negative_sigma_rejected():
    with pytest.raises(ValueError):
        add_noise(np.ones(3, dtype=np.float32), -0.1, seed=0)


def test_watermark_survives_sixth_margin_noise():
    # A flipped codeword bit needs a capped 0-position (magnitude t0) to
    # out-rank a lifted 1-position (magnitude t1). With noise sigma at a
    # sixth of the margin t1 - t0 that takes a 6-sigma swing in the noise
    # difference, so the empirical bit-error rate stays tiny.
    sigma = 0.01
    pair = design_thresholds(sigma, 0.95)
    noise_sigma = (pair.t1 - pair.t0) / 6.0 * 0.99
    params = CodeParams(k=64, alpha=10, L=393)
    trials = 100
    errors = 0
    for trial in range(trials):
        w = sample_gaussian_weights(60_000, sigma=sigma, seed=9000 + trial)
        message = random_bits(trial, 64)
        marked, receipt = embed_message(w, message, 7000 + trial, pair, params)
        noisy = add_noise(marked, noise_sigma, seed=100 + trial)
        got = extract(noisy, receipt.spec)
        sent = encode(message, params)
        errors += int(np.count_nonzero(got != sent))
    assert errors / (trials * params.L) < 1e-3


# --- targeted_flip_attack ----------------------------------------------------


def test_flip_attack_zero_budget_identity():
    w = sample_gaussian_weights(100, sigma=1.0, seed=2)
    for strategy in ("suppress", "inflate"):
        out, touched = targeted_flip_attack(w, 0, seed=1, strategy=strategy)
        assert np.array_equal(out.view(np.uint32), w.view(np.uint32))
        assert touched.size == 0


def test_flip_attack_budget_validation():
    w = np.ones(10, dtype=np.float32)
    with pytest.raises(ValueError):
        targeted_flip_attack(w, -1, seed=0)
    with pytest.raises(ValueError):
        targeted_flip_attack(w, 11, seed=0)
    with pytest.raises(ValueError):
        targeted_flip_attack(w, 1, seed=0, strategy="mystery")
    with pytest.raises(ValueError, match="unknown attack strategy 'mystery'"):
        targeted_flip_attack(w, 0, seed=0, strategy="mystery")


def test_flip_attack_suppress_lowers_top_magnitudes():
    w = np.array([0.1, -5.0, 0.2, 4.0, -0.3], dtype=np.float32)
    out, touched = targeted_flip_attack(w, 2, seed=0, strategy="suppress")
    assert touched.tolist() == [1, 3]
    # Both drop to the next magnitude down, signs kept.
    assert out.tolist() == pytest.approx([0.1, -0.3, 0.2, 0.3, -0.3])


def test_flip_attack_inflate_grows_small_magnitudes():
    w = sample_gaussian_weights(5000, sigma=0.5, seed=4)
    out, touched = targeted_flip_attack(w, 25, seed=11, strategy="inflate")
    assert touched.size == 25
    assert np.all(np.abs(w[touched]) <= 0.5 / 2 * 1.2)  # small before
    assert np.abs(out[touched]).min() > 0.8  # about 2 sigma after
    assert np.all(np.sign(out[touched])[w[touched] != 0]
                  == np.sign(w[touched])[w[touched] != 0])
    untouched = np.ones(w.size, dtype=bool)
    untouched[touched] = False
    assert np.array_equal(
        out[untouched].view(np.uint32), w[untouched].view(np.uint32)
    )
    other = targeted_flip_attack(w, 25, seed=12, strategy="inflate")[1]
    assert not np.array_equal(touched, other)
    same = targeted_flip_attack(w, 25, seed=11, strategy="inflate")[1]
    assert np.array_equal(touched, same)


def test_flip_attack_blind_suppression_rarely_hits_embedded_ones():
    # The alpha raised positions hide among every weight above t1, so a
    # keyless top-alpha suppression hits about alpha * budget / N' of
    # them, with N' around 0.10 * N here. Asserted well under 5%.
    sigma = 0.01
    pair = design_thresholds(sigma, 0.95)
    params = CodeParams(k=64, alpha=10, L=393)
    hits = 0
    trials = 10
    for trial in range(trials):
        w = sample_gaussian_weights(1_000_000, sigma=sigma, seed=500 + trial)
        message = random_bits(50 + trial, 64)
        marked, receipt = embed_message(w, message, 800 + trial, pair, params)
        _, touched = targeted_flip_attack(
            marked, params.alpha, seed=trial, strategy="suppress"
        )
        codeword = encode(message, params)
        ones = {
            int(p)
            for p, bit in zip(receipt.spec.positions, codeword)
            if bit == 1
        }
        hits += len(ones.intersection(touched.tolist()))
    assert hits / (trials * params.alpha) < 0.05


def test_flip_attack_full_budget_destroys_watermark():
    sigma = 0.01
    pair = design_thresholds(sigma, 0.95)
    params = CodeParams(k=64, alpha=10, L=393)
    w = sample_gaussian_weights(100_000, sigma=sigma, seed=77)
    message = random_bits(3, 64)
    marked, receipt = embed_message(w, message, 4, pair, params)
    wrecked, touched = targeted_flip_attack(
        marked, marked.size, seed=0, strategy="suppress"
    )
    assert touched.size == marked.size
    assert extract(wrecked, receipt.spec).tolist() != encode(
        message, params
    ).tolist()


# --- against the binary64 recipes ---------------------------------------------


def old_add_noise(w, sigma_noise, seed):
    """add_noise as one whole-vector binary64 sum."""
    if sigma_noise == 0.0:
        return w.copy()
    noise = standard_normals(w.size, seed) * sigma_noise
    return (w.astype(np.float64) + noise).astype(np.float32)


def old_flip(w, budget, seed, strategy):
    """targeted_flip_attack on binary64 magnitudes, one signed write per strategy."""
    if budget == 0:
        return w.copy(), np.empty(0, dtype=np.int64)
    mag = np.abs(w.astype(np.float64))
    out = w.copy()
    if strategy == "suppress":
        order = np.argsort(-mag, kind="stable")
        idx = order[:budget]
        boundary = mag[order[budget]] if budget < w.size else 0.0
        signs = np.where(w[idx] >= 0, 1.0, -1.0)
        out[idx] = (signs * boundary).astype(np.float32)
    else:
        scale = estimate_sigma(w)
        if scale == 0.0:
            scale = 1.0
        candidates = np.flatnonzero(mag <= scale / 2.0)
        if candidates.size < budget:
            candidates = np.argsort(mag, kind="stable")[:budget]
        keys = splitmix64_stream(seed, candidates.size)
        idx = candidates[np.argsort(keys, kind="stable")[:budget]]
        signs = np.where(w[idx] >= 0, 1.0, -1.0)
        out[idx] = (signs * 2.0 * scale).astype(np.float32)
    return out, np.sort(idx)


# Magnitude ties on a grid, both zeros, and the smallest subnormals.
SPECIAL_WEIGHTS = [0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 1e-45, -1e-45, 1e-40]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_attacks_match_binary64_recipes(data):
    values = st.one_of(
        st.sampled_from(SPECIAL_WEIGHTS),
        st.floats(min_value=-4.0, max_value=4.0, width=32),
    )
    w = np.array(data.draw(st.lists(values, min_size=1, max_size=300)), dtype=np.float32)
    n = w.size
    budget = data.draw(st.sampled_from([0, 1, n - 1, n]) | st.integers(0, n))
    seed = data.draw(st.integers(min_value=0, max_value=2**64 - 1))
    for strategy in ("suppress", "inflate"):
        out, touched = targeted_flip_attack(w, budget, seed, strategy=strategy)
        want, want_touched = old_flip(w, budget, seed, strategy)
        assert out.tobytes() == want.tobytes()
        assert touched.tolist() == want_touched.tolist()
    sigma = data.draw(st.sampled_from([0.0, 1e-40, 0.25]) | st.floats(0.0, 10.0))
    assert add_noise(w, sigma, seed).tobytes() == old_add_noise(w, sigma, seed).tobytes()


@pytest.mark.parametrize("strategy", ["suppress", "inflate"])
@pytest.mark.parametrize("n", [1, 5, 1000, 2**12 + 3])
def test_flip_attack_pieces_match_binary64_recipe(monkeypatch, n, strategy):
    # Pieces of 7 weights: inflate's pool folds across pieces, ties at the
    # new magnitude straddle piece edges, and the larger budgets leave
    # inflate too few candidates, so it takes the budget smallest.
    monkeypatch.setattr(watermark, "_PIECE", 7)
    w = np.round(np.random.default_rng(n).normal(0, 1, n) * 4).astype(np.float32) / 4
    w[::5] = 0.0
    w[1::11] = -0.0
    for budget in sorted({0, 1, min(3, n), n // 2, n - 1, n}):
        out, touched = targeted_flip_attack(w, budget, seed=n, strategy=strategy)
        want, want_touched = old_flip(w, budget, n, strategy)
        assert out.tobytes() == want.tobytes()
        assert touched.tolist() == want_touched.tolist()


class CountedPieces(_ArrayPieces):
    """An array piece source that counts its passes."""

    passes = 0

    def pieces(self):
        self.passes += 1
        return super().pieces()


COUNTED_N = 2 * _PIECE + 3


@pytest.mark.parametrize(
    "strategy, budget, passes",
    [("suppress", 10, 3), ("suppress", COUNTED_N, 1), ("inflate", 10, 3),
     ("inflate", COUNTED_N - 1, 5)],
    ids=["suppress", "suppress-all", "inflate-pool", "inflate-fallback"],
)
def test_flip_attack_pass_counts(strategy, budget, passes):
    # suppress: the rank select's two passes and the write pass, which picks
    # the touched indices itself (budget n: only the write). inflate: the RMS,
    # the bottom-k pool and the write; with too few candidates, the rank
    # select's two passes come before the write.
    source = CountedPieces(sample_gaussian_weights(COUNTED_N, sigma=0.01, seed=31))
    assert attacks._attack_into(source, budget, 5, strategy).size == budget
    assert source.passes == passes


@pytest.mark.parametrize("short_at", [0, 1], ids=["first-piece", "second-piece"])
def test_inflate_pool_stops_once_too_few_candidates_can_follow(monkeypatch, short_at):
    # Once the candidates seen and the weights left fall short of the
    # budget, the bottom-k pass returns before it draws that piece's keys,
    # and inflate takes the budget smallest magnitudes.
    w = sample_gaussian_weights(COUNTED_N, sigma=0.01, seed=31)
    bound = estimate_sigma(w) / 2.0
    per_piece = [int(np.count_nonzero(np.abs(w[s : s + _PIECE]) <= bound))
                 for s in range(0, COUNTED_N, _PIECE)]
    budget = COUNTED_N - 1 if short_at == 0 else per_piece[0] + per_piece[1] + 4
    assert per_piece[0] + COUNTED_N - _PIECE >= budget or short_at == 0
    draws, stream_at = [], rng._stream_at

    def counted(seed, first, count, *rest):
        draws.append(count)
        return stream_at(seed, first, count, *rest)

    monkeypatch.setattr(rng, "_stream_at", counted)  # _bottom_k imports it per call
    out, touched = targeted_flip_attack(w, budget, 5, strategy="inflate")
    assert draws == per_piece[:short_at]
    want, want_touched = old_flip(w, budget, 5, "inflate")
    assert out.tobytes() == want.tobytes()
    assert touched.tolist() == want_touched.tolist()


@pytest.mark.parametrize("n", [1, 5, 6, 7, 13, 1001])
def test_add_noise_small_chunks_match_binary64_recipe(monkeypatch, n):
    # Chunks of 3 pairs: every edge, and an odd tail.
    w = np.round(np.random.default_rng(n).normal(0, 1, n) * 4).astype(np.float32) / 4
    w[::4] = -0.0
    want = old_add_noise(w, 0.5, seed=n)
    monkeypatch.setattr(stats, "_NORMAL_CHUNK", 3)
    assert add_noise(w, 0.5, seed=n).tobytes() == want.tobytes()
    inplace = w.copy()
    attacks._add_noise_into(_ArrayPieces(inplace), 0.5, seed=n)
    assert inplace.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 6, 7, 13, 1001])
def test_add_noise_into_odd_pieces_match_binary64_recipe(monkeypatch, n):
    # Pieces of 7 weights start inside a Box-Muller pair every other time.
    w = np.round(np.random.default_rng(n).normal(0, 1, n) * 4).astype(np.float32) / 4
    want = old_add_noise(w, 0.5, seed=n)
    monkeypatch.setattr(watermark, "_PIECE", 7)
    monkeypatch.setattr(stats, "_NORMAL_CHUNK", 3)
    attacks._add_noise_into(_ArrayPieces(w), 0.5, seed=n)
    assert w.tobytes() == want.tobytes()


def test_add_noise_into_refuses_a_level_past_binary32():
    w = np.array([1.0, -2.0, 3.0], dtype=np.float32)
    with pytest.raises(CwmarkError, match="noise level 1e\\+40 overflows binary32"):
        add_noise(w, 1e40, seed=1)
    with pytest.raises(ValueError, match="nonnegative, got nan"):
        add_noise(w, float("nan"), seed=1)


@pytest.mark.parametrize("at", [0, 2, 4], ids=["first", "middle", "last"])
def test_add_noise_refuses_an_overflow_in_a_short_last_piece(at):
    # One weight of the short last piece sits at the binary32 maximum, with
    # the sign of its noise: the full piece before it noises within range.
    n = _PIECE + 5
    w = sample_gaussian_weights(n, sigma=0.01, seed=6)
    w[_PIECE + at] = np.sign(standard_normals(n, 2)[_PIECE + at]) * np.finfo(np.float32).max
    with np.errstate(over="ignore"):
        assert not np.isfinite(old_add_noise(w, 1e34, seed=2)[_PIECE + at])
    assert np.isfinite(add_noise(w[:_PIECE], 1e34, seed=2)).all()
    with pytest.raises(CwmarkError, match="noise level 1e\\+34 overflows binary32"):
        add_noise(w, 1e34, seed=2)


@pytest.mark.parametrize("sigma", [0.0, 1e-40, 0.003])
def test_add_noise_into_matches_binary64_recipe_in_place(sigma):
    # Each chunk reads its slice before writing it, so adding into the
    # input itself gives the recipe's bytes; at sigma 0 every -0.0 keeps
    # its sign.
    w = sample_gaussian_weights(2 * _PIECE + 3, sigma=0.01, seed=31)
    w[::9] = -0.0
    want = old_add_noise(w, sigma, seed=32)
    attacks._add_noise_into(_ArrayPieces(w), sigma, seed=32)
    assert w.tobytes() == want.tobytes()


def test_add_noise_into_gives_the_pinned_bytes():
    w = sample_gaussian_weights(2 * _PIECE + 3, sigma=0.01, seed=31)
    attacks._add_noise_into(_ArrayPieces(w), 0.003, seed=32)
    assert hashlib.sha256(w.tobytes()).hexdigest() == ATTACK_SHA256["noise"]


def test_noise_starts_no_thread(monkeypatch, tmp_path):
    # Noise is drawn on the calling thread, where add_noise's errstate holds.
    w = sample_gaussian_weights(2 * _PIECE + 5, sigma=0.01, seed=41)
    want = old_add_noise(w, 0.003, seed=42)

    def no_thread(*args, **kwargs):
        raise AssertionError("noise started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    assert add_noise(w, 0.003, seed=42).tobytes() == want.tobytes()
    src, out = tmp_path / "w.cwcw", tmp_path / "n.cwcw"
    write_weights(src, w)
    assert main(["--quiet", "--seed", "42", "noise", str(src), str(out), "--level", "0.003"]) == 0
    assert read_weights(out).tobytes() == want.tobytes()


def bound_above_half_scale(seed):
    """A vector whose w[0] is float32(scale / 2) but lies above scale / 2,
    where scale is the RMS of the vector itself; None if the fix-point
    iteration on w[0] lands on or below it."""
    w = sample_gaussian_weights(1000, sigma=1.0, seed=seed)
    for _ in range(100):
        bound = np.float32(estimate_sigma(w) / 2.0)
        if w[0] == bound:
            break
        w[0] = bound
    scale = estimate_sigma(w)
    return w if w[0] == np.float32(scale / 2.0) and float(w[0]) > scale / 2.0 else None


def test_inflate_compares_the_bound_in_binary64():
    # w[0] is no candidate; as the first index it would shift every
    # candidate's key if a binary32 compare let it in.
    w = next(w for w in map(bound_above_half_scale, range(40, 80)) if w is not None)
    out, touched = targeted_flip_attack(w, 5, seed=41, strategy="inflate")
    want, want_touched = old_flip(w, 5, 41, "inflate")
    assert 0 not in touched.tolist()
    assert out.tobytes() == want.tobytes()
    assert touched.tolist() == want_touched.tolist()


# --- output bytes ------------------------------------------------------------

# sha256 of attack outputs on one Gaussian vector. Noise runs at
# n = 2 * _PIECE + 3, so its draws span two piece boundaries and end
# on an odd count; a flip hashes the attacked vector, then the touched
# indices. Any rework of the attacks must reproduce these bytes.
ATTACK_SHA256 = {
    "noise": "af628361ebf8c9c1a07f4e184c7c4ded4cd38c8fbf00b7f5d0b220cd2f5073de",
    "suppress": "84af9450bfba6c3087ce10ca916e47e241da9e4b63c8de6181ea8727070fce8d",
    "inflate": "9f219f933b7352707ad86cd0579547048ed8268c3277d8d8e76d47f7030d8aaa",
}


@pytest.mark.parametrize("case", sorted(ATTACK_SHA256))
def test_attack_bytes_pinned(case):
    w = sample_gaussian_weights(2 * _PIECE + 3, sigma=0.01, seed=31)
    digest = hashlib.sha256()
    if case == "noise":
        digest.update(add_noise(w, 0.003, seed=32).tobytes())
    else:
        out, touched = targeted_flip_attack(w, 500, seed=33, strategy=case)
        digest.update(out.tobytes())
        digest.update(touched.tobytes())
    assert digest.hexdigest() == ATTACK_SHA256[case]
