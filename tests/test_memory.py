"""Peak memory of the whole-vector layers, as multiples of the payload.

tracemalloc sees numpy's data buffers, so the traced peak during a call,
above what was traced when the call began, is what the call allocates:
its result plus its temporaries. Inputs are built before tracing starts.
Each bound sits between the layer's measured peak and the peak of the
version that held whole-vector temporaries (shown per test).
"""

import tracemalloc

import numpy as np
import pytest

from cwmark import (
    add_noise,
    decode,
    design_thresholds,
    embed_message,
    embed_message_blocks,
    encode,
    estimate_sigma,
    extract_message_blocks,
    find_params,
    prune,
    read_weights,
    sample_gaussian_weights,
    targeted_flip_attack,
    write_weights,
)
from cwmark.cli import _eval_rows, build_parser, main
from cwmark.codec import _weight_rows
from cwmark.rng import random_bits
from cwmark.stats import _SIGMA_CHUNK

N = 1 << 22
PAYLOAD = 4 * N  # bytes of binary32 weights


@pytest.fixture(scope="module")
def weights():
    return sample_gaussian_weights(N, 0.01, seed=21)


def peak_over_payload(fn, *args, **kwargs) -> float:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / PAYLOAD


def test_read_weights_peak(tmp_path, weights):
    # The result alone: 1.0003 (with an n-byte non-finite mask: 1.25;
    # a blob and its copy: 2.25).
    path = tmp_path / "w.cwcw"
    write_weights(path, weights)
    assert peak_over_payload(read_weights, path) <= 1.1


def test_write_weights_peak(tmp_path, weights):
    # Small objects only: 0.0003 (with an n-byte non-finite mask: 0.25;
    # payload bytes plus header concat: 2.0).
    assert peak_over_payload(write_weights, tmp_path / "w.cwcw", weights) <= 0.1


def test_estimate_sigma_peak(weights):
    # One chunk of binary64 squares: 0.5 (widened vector and its squares: 4.0).
    assert peak_over_payload(estimate_sigma, weights) <= 1.0


def test_prune_peak(weights):
    # One buffer, magnitudes then the result, and one chunk's mask: 1.02
    # (with an n-byte mask: 1.25; a mask and a copy beside it: 2.25).
    assert peak_over_payload(prune, weights, 0.9) <= 1.1


def test_sample_gaussian_weights_peak():
    # The result and one chunk of draws: 1.19 (the whole stream, its
    # uniforms, radius, angle and doubles at once: 7.0).
    assert peak_over_payload(sample_gaussian_weights, N, 0.01, seed=21) <= 1.5


def test_add_noise_peak(weights):
    # The result and one chunk of draws: 1.19 (whole-vector binary64
    # noise, widened weights and their sum: 5.0).
    assert peak_over_payload(add_noise, weights, 0.001, seed=22) <= 1.5


@pytest.mark.parametrize("strategy", ["suppress", "inflate"])
def test_targeted_flip_attack_peak(weights, strategy):
    # suppress: binary32 magnitudes, partitioned in place, then the
    # result: 2.0 (with an int64 argsort of all n: 4.0). inflate: the
    # magnitudes, the int64 candidates, then the result: 3.5. On binary64
    # magnitudes both were 7.0 and 5.3.
    ratio = peak_over_payload(targeted_flip_attack, weights, 10, seed=23, strategy=strategy)
    assert ratio <= {"suppress": 2.5, "inflate": 4.5}[strategy]


def test_embed_message_peak(weights):
    # One copy and L gathered values: 1.02.
    pair = design_thresholds(0.01, 0.95, two_sided=True)
    params = find_params(64, 10).params
    ratio = peak_over_payload(
        embed_message, weights, random_bits(3, 64), 77, pair, params
    )
    assert ratio <= 1.1


def test_embed_message_blocks_peak(weights):
    # One copy for all blocks: 1.03 (a copy per block, two alive: 2.03).
    pair = design_thresholds(0.01, 0.95, two_sided=True)
    ratio = peak_over_payload(
        embed_message_blocks, weights, random_bits(3, 256), key=77,
        thresholds=pair, alpha=10, k_block=64,
    )
    assert ratio <= 1.5


@pytest.mark.parametrize("blocks", [1, 4], ids=["single", "block"])
def test_cli_embed_peak(tmp_path, weights, blocks):
    # The vector read_weights returns, marked in place and written from
    # its own buffer, beside estimate_sigma's one chunk of squares (8 MiB,
    # 0.5 at this n): 1.51 (marking a copy of it: 2.02).
    src = tmp_path / "w.cwcw"
    write_weights(src, weights)
    argv = [
        "--quiet", "embed", str(src), str(tmp_path / "s.spec"), str(tmp_path / "m.cwcw"),
        "--message", "deadbeef01234567" * blocks, "--key", "7", "-a", "10",
        "--rate", "0.95", "--block-bits", "64",
    ]
    codes = []
    ratio = peak_over_payload(lambda: codes.append(main(argv)))
    assert codes == [0]
    assert ratio <= 1.1 + 8 * _SIGMA_CHUNK / PAYLOAD


def test_extract_message_blocks_peak(weights):
    # Per-block gathers of L values only (with an n-byte non-finite mask: 0.25).
    pair = design_thresholds(0.01, 0.95, two_sided=True)
    marked, specs, _ = embed_message_blocks(
        weights, random_bits(3, 256), key=77, thresholds=pair, alpha=10, k_block=64
    )
    assert peak_over_payload(extract_message_blocks, marked, specs, 256) <= 0.1


def test_eval_rows_peak():
    # Three trials, each marking its sample in place and freeing it before
    # the next is drawn: the sample and one chunk of draws, 1.20 (with a
    # marked copy: 2.02; with that copy alive into the next trial: 3.02).
    args = build_parser().parse_args(
        ["--seed", "24", "eval", "--trials", "3", "--n", str(N), "--two-sided"]
    )
    assert peak_over_payload(lambda: list(_eval_rows(args))) <= 1.5


def test_first_encode_and_decode_build_no_table():
    # A code's first encode, and its first decode, read alpha binomials
    # through math.comb: 0.045 MiB at (L=12955, alpha=127), where
    # the coding table takes 158 MiB. A bound in bytes, not payloads.
    params = find_params(1024, 127).params
    message = random_bits(5, 1024)
    tracemalloc.start()
    try:
        _weight_rows.cache_clear()
        word = encode(message, params)
        _weight_rows.cache_clear()
        decode(word, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
