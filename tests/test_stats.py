"""Gaussian tail functions, threshold design, and the seeded sampler."""

import functools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from cwmark import (
    GaussianModel,
    ThresholdDesignError,
    ThresholdPair,
    add_noise,
    design_t1,
    design_thresholds,
    estimate_sigma,
    q_function,
    q_inverse,
    sample_gaussian_weights,
    standard_normals,
    stats,
)
from cwmark.rng import (
    _stream_at,
    _stream_gather,
    random_bits,
    splitmix64_stream,
    u64_to_unit,
)
from cwmark.watermark import _PIECE

# Frozen from the quadrature oracle (tests/reference.py normal_quantile_tail).
Q_INV_005 = 1.6448536269514722


def test_q_function_against_quadrature_oracle():
    for x in [0.0, 0.1, 0.5, 1.0, 1.6449, 2.3, 3.7, 5.0, 8.0, -1.0, -4.2]:
        want = ref.normal_tail(x)
        got = q_function(x)
        assert got == pytest.approx(want, rel=5e-13), x


def test_q_function_basics():
    assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)
    assert q_function(30.0) > 0.0
    assert q_function(-3.0) + q_function(3.0) == pytest.approx(1.0, abs=1e-15)


def test_q_inverse_known_value():
    assert q_inverse(0.05) == pytest.approx(Q_INV_005, rel=1e-14)
    assert q_inverse(0.5) == 0.0


def test_q_inverse_against_quadrature_oracle():
    for p in [0.4, 0.1, 0.05, 0.0127, 1e-3, 1e-6, 1e-9]:
        want = ref.normal_quantile_tail(p)
        assert q_inverse(p) == pytest.approx(want, rel=1e-12), p


def test_q_inverse_symmetry_and_roundtrip():
    for p in [1e-9, 1e-6, 1e-3, 0.05, 0.2, 0.5, 0.8, 0.999, 1 - 1e-9]:
        x = q_inverse(p)
        assert q_function(x) == pytest.approx(p, abs=1e-12)
    # Symmetry at moderate p, where 1 - p is exact enough to compare;
    # closer to the ends the subtraction itself moves the quantile.
    for p in [1e-3, 0.05, 0.2, 0.5]:
        assert q_inverse(1.0 - p) == pytest.approx(-q_inverse(p), abs=1e-12)


def test_q_inverse_domain():
    for p in [0.0, 1.0, -0.1, 1.1]:
        with pytest.raises(ValueError):
            q_inverse(p)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-9, max_value=1 - 1e-9))
def test_q_roundtrip_property(p):
    assert abs(q_function(q_inverse(p)) - p) <= 1e-10


def test_design_t1_formula_and_scaling():
    # One-sided rule: t1 = sigma * Qinv(1 - rate).
    assert design_t1(0.01, 0.9746) == pytest.approx(0.01 * q_inverse(0.0254), rel=1e-15)
    assert design_t1(1.0, 0.95) == pytest.approx(Q_INV_005, rel=1e-14)
    assert design_t1(0.02, 0.95) == pytest.approx(2 * design_t1(0.01, 0.95), rel=1e-15)
    # Two-sided rule targets the magnitude quantile instead.
    assert design_t1(1.0, 0.95, two_sided=True) == pytest.approx(
        q_inverse(0.025), rel=1e-14
    )
    assert design_t1(1.0, 0.9, two_sided=True) > design_t1(1.0, 0.9)


def test_design_t1_rejects_unusable_rates():
    with pytest.raises(ThresholdDesignError):
        design_t1(0.01, 0.5)
    with pytest.raises(ThresholdDesignError):
        design_t1(0.01, 0.3)
    # Two-sided variant still works below 0.5.
    assert design_t1(0.01, 0.3, two_sided=True) > 0
    with pytest.raises(ValueError):
        design_t1(0.0, 0.95)
    with pytest.raises(ValueError):
        design_t1(0.01, 1.0)


def test_design_thresholds_default_rule():
    pair = design_thresholds(0.01, 0.95)
    assert pair.t1 == pytest.approx(0.01 * Q_INV_005, rel=1e-14)
    assert pair.t0 == pytest.approx(pair.t1 / 2, rel=1e-15)
    with pytest.raises(ValueError):
        design_thresholds(0.01, 0.95, t0_fraction=1.0)


def test_threshold_pair_validation():
    ThresholdPair(t0=0.5, t1=1.0)
    with pytest.raises(ValueError):
        ThresholdPair(t0=1.0, t1=0.5)
    with pytest.raises(ValueError):
        ThresholdPair(t0=0.0, t1=1.0)
    with pytest.raises(ValueError):
        ThresholdPair(t0=-0.1, t1=1.0)
    with pytest.raises(ValueError):
        ThresholdPair(t0=0.5, t1=math.inf)
    # Finite in binary64, infinite once stored as binary32.
    with pytest.raises(ValueError, match="binary32"):
        ThresholdPair(t0=1.0, t1=1e39)
    ThresholdPair(t0=1.0, t1=float(np.finfo(np.float32).max))
    # Distinct in binary64 but identical once stored as binary32.
    with pytest.raises(ValueError):
        ThresholdPair(t0=1.0, t1=1.0 + 1e-12)


def test_threshold_pair_unpacks():
    t0, t1 = ThresholdPair(t0=0.25, t1=0.75)
    assert (t0, t1) == (0.25, 0.75)


def test_estimate_sigma():
    assert estimate_sigma(np.array([3.0, -4.0, 0.0, 0.0])) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        estimate_sigma(np.array([]))


def test_estimate_sigma_converges():
    w = sample_gaussian_weights(400_000, 0.01, seed=11)
    assert estimate_sigma(w) == pytest.approx(0.01, rel=0.01)


def sigma_oracle(weights) -> float:
    """The whole-vector form estimate_sigma must match bit for bit."""
    return float(np.sqrt(np.mean(np.square(np.asarray(weights, np.float64)))))


def normal_weights(n: int) -> np.ndarray:
    return np.random.default_rng(n).standard_normal(n).astype(np.float32)


def test_estimate_sigma_matches_whole_vector_mean_bit_for_bit():
    for n in range(1, 301):
        w = normal_weights(n)
        assert estimate_sigma(w) == sigma_oracle(w), n
    # Around 2**20, and a length whose first split needs the multiple-of-8
    # rounding (half of 2**21 + 7 is 1048579).
    for n in (2**20 - 1, 2**20, 2**20 + 1, 2**21 + 7):
        w = normal_weights(n)
        assert estimate_sigma(w) == sigma_oracle(w), n
    wide = normal_weights(1000).astype(np.float64) * 1.1
    assert estimate_sigma(wide) == sigma_oracle(wide)
    values = normal_weights(257).tolist()
    assert estimate_sigma(values) == sigma_oracle(values)


@pytest.mark.parametrize("chunk", [128, 1024])
def test_estimate_sigma_small_chunks_split_like_numpy(monkeypatch, chunk):
    # Small chunks put many splits in short vectors; a split anywhere but
    # numpy's changes the rounding of some of these sums.
    monkeypatch.setattr(stats, "_PIECE", chunk)
    for n in [*range(chunk - 8, 301 + chunk), 8193, 65537, 10**6 + 3]:
        w = normal_weights(n)
        assert estimate_sigma(w) == sigma_oracle(w), n


@pytest.mark.parametrize("piece", [7, 1000, 1 << 16])
@pytest.mark.parametrize("chunk", [128, 1 << 16])
def test_rms_of_pieces_matches_whole_vector(monkeypatch, chunk, piece):
    # A file's pieces end anywhere inside numpy's leaves; the leaves are
    # still squared whole and added in numpy's order.
    monkeypatch.setattr(stats, "_PIECE", chunk)
    for n in (1, 129, 8193, 200_003):
        w = normal_weights(n)
        pieces = [(start, w[start : start + piece]) for start in range(0, n, piece)]
        assert stats._rms(pieces, n) == sigma_oracle(w), n


def test_standard_normals_deterministic_and_seed_sensitive():
    a = standard_normals(1000, seed=42)
    b = standard_normals(1000, seed=42)
    c = standard_normals(1000, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        standard_normals(0, seed=1)


def test_standard_normals_matches_reference_transform():
    # Recompute from the sequential generator with the documented recipe.
    n = 8
    words = ref.splitmix64_sequential(123, n)
    u = [((w >> 11) + 1) * 2.0**-53 for w in words]
    want = []
    for i in range(0, n, 2):
        r = math.sqrt(-2.0 * math.log(u[i]))
        want.append(r * math.cos(2.0 * math.pi * u[i + 1]))
        want.append(r * math.sin(2.0 * math.pi * u[i + 1]))
    got = standard_normals(n, seed=123)
    assert got == pytest.approx(want, rel=1e-12)


def whole_vector_normals(n: int, seed: int) -> np.ndarray:
    # The documented recipe over the whole stream at once.
    pairs = (n + 1) // 2
    u = u64_to_unit(splitmix64_stream(seed, 2 * pairs))
    radius = np.sqrt(-2.0 * np.log(u[0::2]))
    angle = (2.0 * np.pi) * u[1::2]
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]


CHUNK = stats._NORMAL_CHUNK  # values per chunk


# Sizes about _PIECE (the pieces eval and noise draw) end on or near a
# chunk edge, past several chunks; 2 * CHUNK + 3 ends inside a Box-Muller pair
# and inside the third chunk.
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize(
    "n",
    [_PIECE - 2, _PIECE - 1, _PIECE, _PIECE + 1, _PIECE + 2, _PIECE + 3, 2 * _PIECE + 1,
     2 * CHUNK + 3],
)
def test_sampler_chunks_match_whole_vector_bit_for_bit(n, seed):
    want = whole_vector_normals(n, seed)
    got = standard_normals(n, seed)
    assert got.shape == (n,) and got.tobytes() == want.tobytes()
    weights = sample_gaussian_weights(n, 0.01, seed)
    assert weights.dtype == np.float32
    assert weights.tobytes() == (0.01 * want).astype(np.float32).tobytes()
    # A stretch that starts past 0, inside a Box-Muller pair or not.
    for first in (1, 2, CHUNK - 1, 3 * CHUNK + 2):
        tail = whole_vector_normals(first + n, seed)[first:]
        for dtype in (np.float32, np.float64):
            out = np.empty(n, dtype=dtype)
            stats._fill_normals(out, seed, 0.01, first)
            assert out.tobytes() == (0.01 * tail).astype(dtype).tobytes(), (first, dtype)


def draws_by_thread(monkeypatch):
    """Patch _stream_at to record (thread ident, first, count) for each call;
    the sampler's scratch, if any, is passed on."""
    calls = []
    draw = stats._stream_at

    def recording(seed, first, count, *scratch):
        calls.append((threading.get_ident(), first, count))
        return draw(seed, first, count, *scratch)

    monkeypatch.setattr(stats, "_stream_at", recording)
    return calls


def words_by_thread(calls) -> dict:
    """{thread ident: (first word, stop)} of the recorded draws; each
    thread must draw its words in order, each once."""
    spans = {}
    for ident, first, count in calls:
        start, stop = spans.get(ident, (first, first))
        assert first == stop, "a thread's draws must follow one another"
        spans[ident] = (start, first + count)
    calls.clear()
    return spans


def test_sampler_draws_one_span_on_the_calling_thread(monkeypatch):
    # Chunk after chunk, and add_noise piece after piece, each draws the
    # words that follow the last, on the thread that called.
    calls = draws_by_thread(monkeypatch)
    n = 2 * _PIECE + 3
    want = whole_vector_normals(n, 9)
    span = {threading.get_ident(): (0, n + 1)}
    assert standard_normals(n, 9).tobytes() == want.tobytes()
    assert words_by_thread(calls) == span
    weights = sample_gaussian_weights(n, 0.5, 9)
    assert weights.tobytes() == (0.5 * want).astype(np.float32).tobytes()
    assert words_by_thread(calls) == span
    add_noise(weights, 0.5, 9)
    assert words_by_thread(calls) == span


# np.uint64 + int overflows, and so does np.int64 & MASK64, so a numpy
# seed must be taken as a Python int: 2**15 + 1 values end one past a
# chunk, 2 * _PIECE + 3 in the third piece of add_noise.
@pytest.mark.parametrize("n", [2**15 + 1, 2 * _PIECE + 3])
@pytest.mark.parametrize("seed", [5, 2**64 - 1])
def test_numpy_seed_samples_like_its_int(n, seed):
    w = np.linspace(-1.0, 1.0, n, dtype=np.float32)
    calls = {
        "splitmix64_stream": lambda s: splitmix64_stream(s, n),
        "standard_normals": lambda s: standard_normals(n, s),
        "sample_gaussian_weights": lambda s: sample_gaussian_weights(n, 0.01, s),
        "GaussianModel.sample": lambda s: GaussianModel(0.01).sample(n, s),
        "add_noise": lambda s: add_noise(w, 0.01, s),
    }
    signed = np.uint64(seed).astype(np.int64)
    for name, call in calls.items():
        want = call(seed).tobytes()
        assert call(np.uint64(seed)).tobytes() == want, name
        assert call(signed).tobytes() == want, (name, signed)


def test_sampler_called_from_more_threads_than_cores():
    # Each call fills its own vector; concurrent calls, switched often,
    # neither share nor lose a chunk.
    n = 4 * CHUNK + 3
    want = {seed: whole_vector_normals(n, seed).tobytes() for seed in range(6)}
    got = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [
            threading.Thread(target=lambda s=seed: got.update({s: standard_normals(n, s).tobytes()}))
            for seed in want
        ]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert got == want


@pytest.mark.parametrize("n", [1, 2, 5, 6, 7, 100])
def test_sampler_small_chunks_match_whole_vector(monkeypatch, n):
    monkeypatch.setattr(stats, "_NORMAL_CHUNK", 3)
    want = whole_vector_normals(n, 77)
    assert standard_normals(n, 77).tobytes() == want.tobytes()
    got = sample_gaussian_weights(n, 2.5, 77)
    assert got.tobytes() == (2.5 * want).astype(np.float32).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 12345, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 1024])
def test_random_bits_matches_sequential_reference(seed, count):
    # Bit t of word j (little-endian) is bit 64*j + t of the draw.
    words = ref.splitmix64_sequential(seed, (count + 63) // 64)
    want = [(words[i // 64] >> (i % 64)) & 1 for i in range(count)]
    got = random_bits(seed, count)
    assert got.dtype == np.uint8
    assert got.tolist() == want
    # A numpy seed gives the same bits (np.uint64 + int overflows, so it
    # must be taken as a Python int first).
    assert random_bits(np.uint64(seed), count).tolist() == want


STREAM_FIRSTS = (0, 1, 255, 256, 2**20 + 1)


@functools.lru_cache(maxsize=None)
def sequential_windows(seed: int) -> dict:
    """{first: ref.splitmix64_sequential(seed, first + 1000)[first:]} for
    each of STREAM_FIRSTS, from one run of the sequential generator."""
    words = ref.splitmix64_sequential(seed, STREAM_FIRSTS[-1] + 1000)
    return {first: words[first : first + 1000] for first in STREAM_FIRSTS}


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 12345, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 3, 1000])
def test_splitmix64_stream_matches_sequential_reference(seed, count):
    got = splitmix64_stream(seed, count)
    assert got.dtype == np.uint64
    assert got.tolist() == ref.splitmix64_sequential(seed, count)
    # Any stretch of the stream, drawn on its own: outputs first + 1 on.
    for first, words in sequential_windows(seed).items():
        got = _stream_at(seed, first, count)
        assert got.dtype == np.uint64
        assert got.tolist() == words[:count], first


def test_splitmix64_stream_matches_published_seed0_vectors():
    want = list(ref.SPLITMIX64_SEED0_FIRST3)
    assert ref.splitmix64_sequential(0, 3) == want
    assert splitmix64_stream(0, 3).tolist() == want


def test_standard_normals_moments():
    x = standard_normals(1_000_000, seed=7)
    assert abs(float(np.mean(x))) < 5e-3
    assert float(np.std(x)) == pytest.approx(1.0, abs=5e-3)
    # Tail mass at 1.6449 should be near 5% per side.
    assert float(np.mean(x > Q_INV_005)) == pytest.approx(0.05, abs=2e-3)


def test_gaussian_model_and_weight_sampler():
    model = GaussianModel(sigma=0.01)
    w = model.sample(1000, seed=5)
    assert w.dtype == np.float32
    assert np.array_equal(w, sample_gaussian_weights(1000, 0.01, seed=5))
    with pytest.raises(ValueError):
        GaussianModel(sigma=0.0)
    with pytest.raises(ValueError):
        sample_gaussian_weights(10, -1.0, seed=0)


# --- the sigma bound, the gathered recompute and the binary32 screen --------

# Just under the largest sigma whose sample stays finite in binary32: the
# recipe's largest |z| is sqrt(-2 ln 2**-53) = 8.5717, at the stream word 0.
SIGMA_MAX = 3.9698e37


@pytest.mark.parametrize("sigma", [1e38, 3.9699e37, math.inf])
def test_sigma_whose_sample_can_overflow_binary32_is_refused(sigma):
    with pytest.raises(ValueError, match=r"sigma must lie in \(0, 3\.9698e37\)"):
        sample_gaussian_weights(100_000, sigma, seed=0)
    with pytest.raises(ValueError, match="sigma"):
        GaussianModel(sigma).sample(10, seed=0)


def test_negative_counts_and_empty_samples_are_refused():
    for draw in (splitmix64_stream, random_bits):
        with pytest.raises(ValueError, match="count must be nonnegative"):
            draw(1, -1)
    with pytest.raises(ValueError, match="n must be >= 1"):
        sample_gaussian_weights(0, 0.01, 1)


def test_sigma_bound_is_where_the_largest_sample_overflows():
    # Word pair (0, 0) is the largest radius at angle 2 pi 2**-53.
    words = np.zeros(2, dtype=np.uint64)
    top = stats._box_muller(words, SIGMA_MAX)[0]
    assert np.isfinite(np.float32(top))
    with np.errstate(over="ignore"):
        assert np.isinf(np.float32(stats._box_muller(words, 3.9699e37)[0]))
    w = sample_gaussian_weights(100_000, SIGMA_MAX, seed=0)
    assert np.isfinite(w).all() and GaussianModel(SIGMA_MAX).sample(3, 1).tobytes() == (
        sample_gaussian_weights(3, SIGMA_MAX, 1).tobytes()
    )


def test_stream_gather_draws_any_counters():
    # Counter c is output c of the stream, word c - 1 of the sequential one.
    words = {}
    for first, window in sequential_windows(2**64 - 1).items():
        words.update(zip(range(first + 1, first + 1001), window))
    counters = [5, 1, 2**20 + 2, 3, 3, 257, 2**20 + 1000]
    got = _stream_gather(2**64 - 1, np.array(counters, dtype=np.uint64))
    assert got.tolist() == [words[c] for c in counters]


# Lengths that are no multiple of 8 or 16, so numpy's SIMD loops run their tails.
@pytest.mark.parametrize("length", [1, 3, 7, 13, 17, 31, 1001])
def test_binary64_cos_and_sin_give_chunk_bits_on_gathered_angles(length):
    # _normals_at takes cos and sin of gathered angles; the exact sampler
    # takes them of whole chunks. Both must give the same bits. The sampler
    # takes the log of u1 as a contiguous row, the recipe of u[0::2]: the
    # strided and the contiguous log must agree too, also at u = 2**-53 and 1.
    u = u64_to_unit(_stream_at(3, 0, CHUNK))
    edges = u64_to_unit(np.array([0, 1, 2**64 - 2**11, 2**64 - 1], dtype=np.uint64))
    for head in (u[: 2 * length], np.resize(edges, 2 * length)):
        assert np.log(head[0::2]).tobytes() == np.log(head[0::2].copy()).tobytes()
    angle = (2.0 * np.pi) * u[1::2]
    rng = np.random.default_rng(length)
    index = rng.choice(angle.size, length, replace=False)
    for fn in (np.cos, np.sin):
        chunk = fn(angle)
        assert fn(angle[index]).tobytes() == chunk[index].tobytes()
        at = int(rng.integers(0, angle.size - length))  # a contiguous stretch
        stretch = slice(at, at + length)
        assert fn(angle[stretch]).tobytes() == chunk[stretch].tobytes()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_normals_at_matches_the_sampler_at_any_index(seed):
    n = 2 * CHUNK + 5
    want = sample_gaussian_weights(n, 0.01, seed)
    rng = np.random.default_rng(seed % 97)
    for size in (0, 1, 7, 13, 1001):
        index = rng.integers(0, n, size)  # unsorted, repeated, either parity
        got = stats._normals_at(seed, index, 0.01).astype(np.float32)
        assert got.tobytes() == want[index].tobytes()
    edges = np.array([n - 1, 0, 1, CHUNK - 1, CHUNK])
    assert stats._normals_at(seed, edges, 1.0).tobytes() == (
        whole_vector_normals(n, seed)[edges].tobytes()
    )


def screened_and_exact(words, sigma):
    """The binary32 values of the interleaved word pairs, screened and exact."""
    rows = words.reshape(-1, 2).T
    radius, cos, sin = stats._screened(rows, sigma, stats._scratch())
    return np.stack([radius * cos, radius * sin]), stats._box_muller(rows, sigma).astype(np.float32)


def whole_vector_screened(n: int, seed: int, sigma: float) -> np.ndarray:
    # The screened recipe over the whole stream at once: the binary64
    # radius times sigma, rounded once to binary32; the angle, u2's top 24
    # bits times f32(2 pi) 2**-24, its cos and sin and both products in
    # binary32.
    pairs = (n + 1) // 2
    words = splitmix64_stream(seed, 2 * pairs)
    radius = (np.sqrt(-2.0 * np.log(u64_to_unit(words[0::2]))) * sigma).astype(np.float32)
    angle = (words[1::2] >> np.uint64(40)).astype(np.float32) * np.float32(2 * np.pi * 2.0**-24)
    out = np.empty(2 * pairs, dtype=np.float32)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]


# The README's delta assumes exactly these roundings. Stretches start inside
# a pair or not, end on or past chunk edges, and come in odd pieces that
# share one pass's scratch, as eval's pieces do.
@pytest.mark.parametrize("chunk", [None, 3])
@pytest.mark.parametrize("sigma", [0.01, 1e-44])
@pytest.mark.parametrize("first", [0, 1, CHUNK - 1, 2 * CHUNK + 3])
def test_screened_sampler_gives_the_recipe_bits(monkeypatch, chunk, sigma, first):
    if chunk:
        monkeypatch.setattr(stats, "_NORMAL_CHUNK", chunk)
    sizes = (1, 2, 7, 100) if chunk else (1, 2, CHUNK - 1, CHUNK + 1, 2 * CHUNK + 2)
    for n in sizes:
        want = whole_vector_screened(first + n, 5, sigma)[first:]
        got = np.empty(n, dtype=np.float32)
        stats._fill_normals(got, 5, sigma, first, screen=True)
        assert got.tobytes() == want.tobytes(), n
    # All the sizes in turn, as pieces of one stretch drawn in one scratch.
    stops, scratch = np.cumsum(sizes).tolist(), stats._scratch()
    got = np.empty(stops[-1], dtype=np.float32)
    for at, stop in zip([0] + stops[:-1], stops):
        stats._fill_normals(got[at:stop], 5, sigma, first + at, screen=True, scratch=scratch)
    assert got.tobytes() == whole_vector_screened(first + stops[-1], 5, sigma)[first:].tobytes()


@pytest.mark.parametrize("sigma", [1.0, 0.01, 1e-44, SIGMA_MAX, 1e-40, 1e-38])
def test_screen_error_within_a_sixteenth_of_its_bound(sigma):
    # _screen_error is 16x or more the error derived from the roundings
    # and measured over every binary32 angle. A numpy whose binary32 cos or
    # sin lost that margin would fail here, not in a wrong cutoff.
    bound = stats._screen_error(sigma) / 16
    n = 1 << 21  # 2**20 pairs
    screened = np.empty(n, dtype=np.float32)
    stats._fill_normals(screened, 8, sigma, screen=True)
    exact = sample_gaussian_weights(n, sigma, 8)
    assert np.abs(screened.astype(np.float64) - exact).max() <= bound
    # The largest radii and a random one, at the angles next to 0, pi/2,
    # pi, 3 pi/2 and 2 pi: u = (m + 1) 2**-53 for the top 53 bits m.
    steps = np.arange(-64, 65)
    tops = np.concatenate([(q << 51) - 1 + steps for q in range(5)])
    tops = tops[(tops >= 0) & (tops < 2**53)].astype(np.uint64)
    for radius_top in (0, 1, 2**52 + 12345):
        words = np.empty(2 * tops.size, dtype=np.uint64)
        words[0::2], words[1::2] = np.uint64(radius_top) << np.uint64(11), tops << np.uint64(11)
        got, want = screened_and_exact(words, sigma)
        assert np.abs(got.astype(np.float64) - want).max() <= bound


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3000)
    | st.integers(min_value=2**14 - 3, max_value=40000),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    rates=st.lists(st.floats(min_value=0.0, max_value=0.999), min_size=1, max_size=6),
    sigma=st.sampled_from([1e-44, 1.0, SIGMA_MAX]),
    marks=st.integers(min_value=0, max_value=40),
)
def test_screened_cutoffs_match_full_sort(n, seed, rates, sigma, marks):
    # Unsorted and repeated rates give the p-th smallest magnitude of the
    # marked sample, as a full sort does. The marked values copy sample
    # values, and sigma 1e-44 leaves some 60 magnitudes: ties throughout.
    # SIGMA_MAX puts the largest values next to binary32's overflow.
    rng = np.random.default_rng(seed % 2**32)
    exact = sample_gaussian_weights(n, sigma, seed)
    positions = rng.choice(n, min(marks, n), replace=False)
    marked = exact[rng.integers(0, n, positions.size)]
    exact[positions] = marked
    ordered = np.sort(np.abs(exact))
    ps = [min(int(rate * n), n - 1) for rate in rates]
    got = stats._cutoffs(n, sigma, seed, positions, marked, ps)
    assert got == {p: float(ordered[p]) for p in ps}
