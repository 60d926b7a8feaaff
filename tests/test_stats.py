"""Gaussian tail functions, threshold design, and the seeded sampler."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference as ref
from cwmark import (
    GaussianModel,
    ThresholdDesignError,
    ThresholdPair,
    design_t1,
    design_thresholds,
    estimate_sigma,
    q_function,
    q_inverse,
    sample_gaussian_weights,
    standard_normals,
    stats,
)
from cwmark.rng import random_bits, splitmix64_stream, u64_to_unit

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
    # Around the 2**20 chunk, and a length whose first split needs the
    # multiple-of-8 rounding (half of 2**21 + 7 is 1048579).
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
    monkeypatch.setattr(stats, "_SIGMA_CHUNK", chunk)
    for n in [*range(chunk - 8, 301 + chunk), 8193, 65537, 10**6 + 3]:
        w = normal_weights(n)
        assert estimate_sigma(w) == sigma_oracle(w), n


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


CHUNK = 2 * stats._NORMAL_CHUNK  # values per chunk


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize(
    "n", [CHUNK - 2, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 2, CHUNK + 3, 2 * CHUNK + 1]
)
def test_sampler_chunks_match_whole_vector_bit_for_bit(n, seed):
    want = whole_vector_normals(n, seed)
    got = standard_normals(n, seed)
    assert got.shape == (n,) and got.tobytes() == want.tobytes()
    weights = sample_gaussian_weights(n, 0.01, seed)
    assert weights.dtype == np.float32
    assert weights.tobytes() == (0.01 * want).astype(np.float32).tobytes()


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


@pytest.mark.parametrize("seed", [0, 1, 2**63 + 12345, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 3, 1000])
def test_splitmix64_stream_matches_sequential_reference(seed, count):
    got = splitmix64_stream(seed, count)
    assert got.dtype == np.uint64
    assert got.tolist() == ref.splitmix64_sequential(seed, count)


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
