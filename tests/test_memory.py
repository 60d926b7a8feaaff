"""Peak memory of the whole-vector layers, as multiples of the payload.

tracemalloc sees numpy's data buffers, so the traced peak during a call,
above what was traced when the call began, is what the call allocates:
its result plus its temporaries. Inputs are built before tracing starts.
Each bound sits between the layer's measured peak and the peak of the
version that held whole-vector temporaries (shown per test).
"""

import os
import subprocess
import sys
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
    # The result and one piece of the reader: 1.016 (the result read in
    # place: 1.0003; with an n-byte non-finite mask: 1.25; a blob and its
    # copy: 2.25).
    path = tmp_path / "w.cwcw"
    write_weights(path, weights)
    assert peak_over_payload(read_weights, path) <= 1.1


def test_write_weights_peak(tmp_path, weights):
    # Small objects only: 0.0003 (with an n-byte non-finite mask: 0.25;
    # payload bytes plus header concat: 2.0).
    assert peak_over_payload(write_weights, tmp_path / "w.cwcw", weights) <= 0.1
    # A strided vector is copied one piece at a time: 0.032 of its own
    # payload (a whole contiguous copy: 1.001), the same bytes.
    strided = weights[::2]
    peak = peak_over_payload(write_weights, tmp_path / "s.cwcw", strided)
    assert peak * PAYLOAD / strided.nbytes <= 0.1
    write_weights(tmp_path / "c.cwcw", np.ascontiguousarray(strided))
    assert (tmp_path / "s.cwcw").read_bytes() == (tmp_path / "c.cwcw").read_bytes()


def test_estimate_sigma_peak(weights):
    # One leaf of binary64 squares: 0.03 (leaves of 8 MiB: 0.5; widened
    # vector and its squares: 4.0).
    assert peak_over_payload(estimate_sigma, weights) <= 0.1


def test_prune_peak(weights):
    # The result and the select's 2**17-pattern sample, then one piece of
    # bit patterns and the band around the cutoff: 1.034 (one piece and a
    # 2**16-entry int64 histogram: 1.063; magnitudes partitioned in one
    # n-sized buffer, then refilled with the result: 1.02; with an n-byte
    # mask: 1.25; a mask and a copy beside it: 2.25).
    assert peak_over_payload(prune, weights, 0.9) <= 1.05


def test_sample_gaussian_weights_peak():
    # The result and the sampler's buffers for 2**14-value chunks: 1.024
    # (the temporaries of each 2**13-value chunk: 1.018; 2**15-value
    # chunks, a half vector on each of two threads: 1.17; a whole chunk on
    # each thread: 1.38; the whole stream, its uniforms, radius, angle and
    # doubles at once: 7.0).
    assert peak_over_payload(sample_gaussian_weights, N, 0.01, seed=21) <= 1.1


def test_add_noise_peak(weights):
    # The result, one piece of binary64 noise and the sampler's buffers:
    # 1.059 (the temporaries of each 2**13-value chunk: 1.049; 2**15-value
    # chunks: 1.12; a whole chunk of draws per piece: 1.17; whole-vector
    # binary64 noise, widened weights and their sum: 5.0).
    assert peak_over_payload(add_noise, weights, 0.001, seed=22) <= 1.1


@pytest.mark.parametrize("strategy", ["suppress", "inflate"])
def test_targeted_flip_attack_peak(weights, strategy):
    # The result, attacked in pieces: the select's 2**17-pattern sample,
    # then one piece of magnitude patterns and the band around the cutoff
    # (suppress: 1.032; with a 2**16-entry int64 histogram: 1.063), or one
    # leaf of binary64 squares and a pool of budget keys (inflate: 1.089).
    # With the binary32 magnitudes partitioned in place, then the result:
    # 2.0 (an int64 argsort of all n: 4.0); with the magnitudes, the int64
    # candidates, then the result: 3.5. On binary64 magnitudes both were
    # 7.0 and 5.3.
    ratio = peak_over_payload(targeted_flip_attack, weights, 10, seed=23, strategy=strategy)
    assert ratio <= {"suppress": 1.05, "inflate": 1.1}[strategy]


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


def cli_peak(argv) -> float:
    codes = []
    ratio = peak_over_payload(lambda: codes.append(main(argv)))
    assert codes == [0]
    return ratio


@pytest.mark.parametrize("blocks", [1, 4], ids=["single", "block"])
def test_cli_embed_peak(tmp_path, weights, blocks):
    # One piece of the file, one leaf of binary64 squares and the L * blocks
    # selected values: 0.066 single, 0.055 block (marking the vector
    # read_weights returned, beside 8 MiB leaves of squares: 1.51).
    src = tmp_path / "w.cwcw"
    write_weights(src, weights)
    ratio = cli_peak([
        "--quiet", "embed", str(src), str(tmp_path / "s.spec"), str(tmp_path / "m.cwcw"),
        "--message", "deadbeef01234567" * blocks, "--key", "7", "-a", "10",
        "--rate", "0.95", "--block-bits", "64",
    ])
    assert ratio <= 0.1


def test_cli_prune_peak(tmp_path, weights):
    # One piece of the file and the select's 2**17-pattern sample, then a
    # piece of bit patterns and the band around the cutoff: 0.056 (one
    # piece of bit patterns and a 2**16-entry int64 histogram: 0.084; a
    # band buffer of a fixed 2**18 values: 0.104; pruning the vector
    # read_weights returned in place: 1.07; pruning a copy of it: 2.04).
    src = tmp_path / "w.cwcw"
    write_weights(src, weights)
    argv = ["--quiet", "prune", str(src), str(tmp_path / "p.cwcw"), "--rate", "0.9"]
    assert cli_peak(argv) <= 0.075


def test_cli_noise_peak(tmp_path, weights):
    # One piece of the file, one piece of binary64 noise and the sampler's
    # buffers: 0.079 (the temporaries of each 2**13-value chunk: 0.070;
    # 2**15-value chunks: 0.139; a whole chunk of draws per piece: 0.193;
    # adding the noise into the vector read_weights returned: 1.19; into a
    # copy of it: 2.19).
    src = tmp_path / "w.cwcw"
    write_weights(src, weights)
    argv = ["--quiet", "noise", str(src), str(tmp_path / "n.cwcw"), "--level", "0.001"]
    assert cli_peak(argv) <= 0.1


def test_cli_attack_text_mode_peak(tmp_path, weights):
    # Every weight touched, in text mode: the int64 touched indices plus
    # one piece's temporaries: 2.13.
    src = tmp_path / "w.cwcw"
    write_weights(src, weights)
    argv = ["--quiet", "attack", str(src), str(tmp_path / "a.cwcw"), "--budget", str(N)]
    assert cli_peak(argv) <= 2.5


@pytest.mark.parametrize("blocks", [1, 4], ids=["single", "block"])
def test_cli_extract_peak(tmp_path, weights, blocks):
    # One piece of the file and the L * blocks gathered values: 0.035
    # (the vector read_weights returned: 1.0).
    src, spec, marked = tmp_path / "w.cwcw", tmp_path / "s.spec", tmp_path / "m.cwcw"
    write_weights(src, weights)
    assert main([
        "--quiet", "embed", str(src), str(spec), str(marked),
        "--message", "deadbeef01234567" * blocks, "--key", "7", "-a", "10",
        "--rate", "0.95", "--block-bits", "64",
    ]) == 0
    assert cli_peak(["--quiet", "extract", str(marked), str(spec)]) <= 0.1


# Spawns one Python child (its arguments after the interpreter's) with its
# stdout on /dev/null and prints its exit code and ru_maxrss (KiB). Standard
# library only: on Linux a child's ru_maxrss includes the high-water RSS of
# the process that spawned it, so the test process, which holds numpy and
# these vectors, must not spawn it.
SPAWN_ONE = """
import os, sys
pid = os.posix_spawn(
    sys.executable, [sys.executable, *sys.argv[1:]], dict(os.environ),
    file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


# The baseline child: the interpreter, numpy and every module a data verb
# runs, imported and compiled, and no work. A codec verb's child imports
# no numpy and peaks about 14 MiB lower, so it is no baseline for them.
IMPORT_ONLY = ("-c", "import cwmark.cli, cwmark.attacks, cwmark.model_io")


def child_maxrss_kib(*argv) -> int:
    root = os.path.dirname(os.path.dirname(sys.modules["cwmark"].__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SPAWN_ONE, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    code, rss = proc.stdout.split()
    assert code == "0", proc.stderr
    return int(rss)


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="ru_maxrss in KiB, as Linux gives it"
)
def test_cli_prune_child_maxrss(tmp_path, weights):
    # tracemalloc misses page-cache and mapped pages; the child's RSS does
    # not. prune streams the file: about 1.8 MiB above an import-only child
    # (with the 2**16-entry histogram: 1.9; the vector read_weights
    # returned, pruned in place: about 17 MiB).
    src = tmp_path / "w.cwcw"
    write_weights(src, weights)
    bare = child_maxrss_kib(*IMPORT_ONLY)
    pruned = child_maxrss_kib(
        "-m", "cwmark", "prune", str(src), str(tmp_path / "p.cwcw"), "--rate", "0.9"
    )
    assert pruned <= bare + 16 * 1024


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="ru_maxrss in KiB, as Linux gives it"
)
@pytest.mark.parametrize("strategy", ["suppress", "inflate"])
def test_cli_attack_child_maxrss(tmp_path, weights, strategy):
    # attack streams the file as prune does: 1.7 MiB (suppress; 2.0 with
    # the 2**16-entry histogram) and 3.0 MiB (inflate) above an import-only
    # child (the vector read_weights
    # returned, then the attacked copy, its magnitudes and, for inflate,
    # the candidates and their keys: 53 and 77 MiB).
    src = tmp_path / "w.cwcw"
    write_weights(src, weights)
    bare = child_maxrss_kib(*IMPORT_ONLY)
    attacked = child_maxrss_kib(
        "-m", "cwmark", "attack", str(src), str(tmp_path / "a.cwcw"),
        "--budget", "1000", "--strategy", strategy,
    )
    assert attacked <= bare + 16 * 1024


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="ru_maxrss in KiB, as Linux gives it"
)
def test_cli_eval_child_maxrss():
    # Each trial draws its sample in pieces of 2**16 values and keeps only
    # the bracketed magnitudes: about 2.6 MiB above an import-only child.
    # Against a bare encode child, which peaked 0.3-0.4 MiB above it while
    # it imported numpy, this was 2.0-2.2 (with the temporaries of each
    # 2**13-value chunk in place of the sampler's buffers: 1.6-1.9; with a
    # lookup table for the marked positions: 3.2-3.4; the 16 MiB sample
    # held whole, drawn on two threads: 21.3).
    bare = child_maxrss_kib(*IMPORT_ONLY)
    evaluated = child_maxrss_kib(
        "-m", "cwmark", "--quiet", "--seed", "24", "eval",
        "--trials", "3", "--n", str(N), "--two-sided",
    )
    assert evaluated <= bare + 3 * 1024


def test_extract_message_blocks_peak(weights):
    # Per-block gathers of L values only (with an n-byte non-finite mask: 0.25).
    pair = design_thresholds(0.01, 0.95, two_sided=True)
    marked, specs, _ = embed_message_blocks(
        weights, random_bits(3, 256), key=77, thresholds=pair, alpha=10, k_block=64
    )
    assert peak_over_payload(extract_message_blocks, marked, specs, 256) <= 0.1


def test_eval_rows_peak():
    # Three trials, each one screened pass in pieces, in the sampler's
    # buffers, that keeps the indices and magnitudes inside each rate's
    # bracket: 0.097, with the binary32 screened kernel in those same
    # buffers (0.101 while a rate's masks outlived the piece loop; with
    # the temporaries of each 2**13-value chunk in place of those buffers:
    # 0.070; with a lookup table for the marked positions: 0.144; the
    # sample held whole, marked in place: 1.20; with a marked copy: 2.02;
    # with that copy alive into the next trial: 3.02).
    args = build_parser().parse_args(
        ["--seed", "24", "eval", "--trials", "3", "--n", str(N), "--two-sided"]
    )
    assert peak_over_payload(lambda: list(_eval_rows(args))) <= 0.1


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
