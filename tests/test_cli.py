"""End-to-end CLI coverage: verbs, exit codes, JSON mode, determinism."""

import contextlib
import csv
import errno
import functools
import gc
import hashlib
import io
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cwmark
from cwmark import (
    NonFiniteWeightError,
    PositionRangeError,
    SpecDocument,
    SpecFormatError,
    WeightFileError,
    design_thresholds,
    embed_message,
    embed_message_blocks,
    encode,
    extract,
    find_params,
    int_to_bits,
    prune,
    read_spec,
    read_weights,
    sample_gaussian_weights,
    targeted_flip_attack,
    write_spec,
    write_weights,
)
from cwmark import cli
from cwmark.cli import main
from cwmark.rng import random_bits, splitmix64_stream
from cwmark.watermark import _PIECE

MSG64 = "deadbeef01234567"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_weights(tmp_path, n=100_000, sigma=0.01, seed=0, name="w.cwcw"):
    path = tmp_path / name
    write_weights(path, sample_gaussian_weights(n, sigma=sigma, seed=seed))
    return path


# --- params ------------------------------------------------------------------


def test_params_known_rows(capsys):
    code, out, _ = run(capsys, "params", "-k", "64", "-a", "10")
    assert code == 0
    assert "393" in out and "0.9746" in out
    code, out, _ = run(capsys, "params", "-k", "512", "-a", "79")
    assert code == 0
    assert "2780" in out and "0.9716" in out


def test_params_minimal_case(capsys):
    # Sized by the conservative capacity estimate, so (1, 1) needs L=3.
    code, out, _ = run(capsys, "params", "-k", "1", "-a", "1")
    assert code == 0
    assert out.split()[6] == "1"  # k column of the data row
    assert "0.6667" in out


def test_params_grid_and_alias(capsys):
    code, out, _ = run(capsys, "params", "--grid")
    assert code == 0
    assert len(out.strip().splitlines()) == 21  # header + 20 rows
    code, alias_out, _ = run(capsys, "params", "--table-1")
    assert code == 0
    assert alias_out == out


def test_params_tolerance_search(capsys):
    code, out, _ = run(capsys, "--json", "params", "-k", "64", "--tolerance", "0.97")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["alpha"] == 10 and row["L"] == 393


def test_params_json_grid(capsys):
    code, out, _ = run(capsys, "--json", "params", "--grid")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 20
    assert {"k", "alpha", "L", "capacity_bits", "tolerance", "tight"} <= rows[0].keys()


def test_params_usage_errors(capsys):
    assert run(capsys, "params")[0] == 2
    assert run(capsys, "params", "-k", "64")[0] == 2
    assert run(capsys, "params", "-k", "64", "-a", "10", "--tolerance", "0.9")[0] == 2
    with pytest.raises(SystemExit) as err:
        run(capsys, "params", "-k", "64", "-a", "0")
    assert err.value.code == 2


# --- encode / decode ---------------------------------------------------------


def test_encode_decode_roundtrip(capsys):
    code, out, _ = run(capsys, "--json", "encode", "--message", "ff", "-a", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 8
    word = payload["codeword"]
    assert len(word) == payload["L"] and word.count("1") == 2
    code, out, _ = run(capsys, "--quiet", "decode", "--codeword", word, "-k", "8")
    assert code == 0
    assert out.strip() == "ff"


def test_decode_range_failure_exits_4(capsys):
    # Ones packed at the high positions give a combinadic index >= 2**k.
    code, out, err = run(capsys, "decode", "--codeword", "0011", "-k", "2")
    assert code == 4
    assert "range" in err


@pytest.mark.parametrize(
    "argv, option, out_of_range, rule, noun",
    [
        ("embed w s o --key {}", "--key", "-1",
         "value must fit in 64 unsigned bits", "an integer"),
        ("--seed {} params --grid", "--seed", str(2**64),
         "value must fit in 64 unsigned bits", "an integer"),
        ("params -k {}", "-k", "0", "value must be >= 1", "an integer"),
        ("eval --trials {}", "--trials", "-1", "value must be >= 0", "an integer"),
        ("embed w s o --rate {}", "--rate", "1.0", "rate must lie in [0, 1)", "a number"),
        ("embed w s o --t0 {}", "--t0", "0", "value must be > 0", "a number"),
        ("noise a b --level {}", "--level", "-0.1", "value must be >= 0", "a number"),
    ],
    ids=["u64-key", "u64-seed", "positive-int", "nonneg-int", "unit-rate",
         "positive-float", "nonneg-float"],
)
def test_number_arguments_refused_with_exit_2(capsys, argv, option, out_of_range, rule, noun):
    for value, message in (("x", f"not {noun}: 'x'"), (out_of_range, rule)):
        with pytest.raises(SystemExit) as err:
            main(argv.format(value).split())
        assert err.value.code == 2
        assert f"error: argument {option}: {message}" in capsys.readouterr().err


def test_encode_oversized_code_refused_with_exit_2(capsys):
    # k=64 at alpha=1 needs L = 2**64 + 1; the ladder bound refuses it
    # from its size estimate, before a row of that length is built.
    code, out, err = run(capsys, "encode", "--message", "ffffffffffffffff", "-a", "1")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "MiB limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        f"params -k {'9' * 30} -a 10",
        f"params -k {'9' * 30} --tolerance 0.9",
        f"eval --trials 1 -k {'9' * 30}",
        "params -k 20000 -a 10",
        "encode --message 0 -a 99999999999",
        "params -k 16000 --tolerance 0.9",
    ],
    ids=["params", "tolerance", "eval", "k-20000", "encode", "tolerance-k-16000"],
)
def test_oversized_code_search_refused_with_exit_2(capsys, argv):
    # find_params refuses a target 2**k * alpha! past 2**14 bits from the
    # sizes alone, before any big-integer or float work on k.
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "16384 bits" in err


def test_memory_error_exits_2_with_one_line(capsys, monkeypatch):
    def exhausted(args, console):
        raise MemoryError()

    monkeypatch.setattr(cwmark.cli, "cmd_eval", exhausted)
    code, out, err = run(capsys, "eval", "--trials", "1")
    assert code == 2
    assert out == ""
    assert err == "cwmark: error: out of memory: allocation failed\n"


@pytest.mark.parametrize(
    "message",
    ["zz", "dead_beef", " ff", "ff ", "+ff", "0x_ff", "\u0661\u0662", "\uff46", "0x"],
    ids=["letters", "underscore", "leading-space", "trailing-space", "plus",
         "prefix-underscore", "arabic-indic-digits", "fullwidth-f", "prefix-only"],
)
def test_encode_bad_hex_rejected(capsys, message):
    # int(body, 16) accepts the underscore, space, plus and Arabic-Indic
    # cases, and each of their characters would count toward k = 4 * len.
    with pytest.raises(SystemExit) as err:
        run(capsys, "encode", "--message", message, "-a", "2")
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        ("eval --attack-rates ,", "empty rate list"),
        ("decode --codeword 012 -k 1", "codeword must be a nonempty 0/1 string"),
    ],
    ids=["empty-rate-list", "non-binary-codeword"],
)
def test_malformed_list_arguments_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as err:
        main(argv.split())
    assert err.value.code == 2
    assert message in capsys.readouterr().err


def test_embed_bad_hex_rejected_before_writing(capsys, tmp_path):
    spec, out = tmp_path / "mark.spec", tmp_path / "marked.cwcw"
    with pytest.raises(SystemExit) as err:
        run(capsys, "embed", str(make_weights(tmp_path)), str(spec), str(out),
            "--message", "de_ad", "--key", "7", "-a", "10", "--rate", "0.95")
    assert err.value.code == 2
    assert not spec.exists() and not out.exists()


@pytest.mark.parametrize("spelled", ["same", "dotted", "dir-link"])
def test_embed_spec_and_weights_to_one_file_exits_2_and_leaves_no_file(
    capsys, tmp_path, spelled
):
    # The weight file's temp file would replace the spec written inside its
    # block, so the mark could not be read back: both outputs are refused.
    # Symlinks and '..' in the directory part lead to the same entry.
    weights = make_weights(tmp_path)
    before = weights.read_bytes()
    out = tmp_path / "same.out"
    (tmp_path / "sub").mkdir()
    (tmp_path / "dir").symlink_to(tmp_path)
    spec = {"same": out, "dotted": tmp_path / "sub" / ".." / "same.out",
            "dir-link": tmp_path / "dir" / "same.out"}
    code, stdout, stderr = run(
        capsys, "embed", str(weights), str(spec[spelled]), str(out),
        "--message", MSG64, "--key", "3", "-a", "10", "--rate", "0.95",
    )
    assert code == 2 and stdout == ""
    assert stderr == f"cwmark: error: spec_out and weights_out are the same file: {spec[spelled]}\n"
    assert sorted(os.listdir(tmp_path)) == ["dir", "sub", "w.cwcw"]
    assert not os.listdir(tmp_path / "sub") and weights.read_bytes() == before


def test_embed_spec_to_a_symlink_of_the_weight_output_replaces_the_link(capsys, tmp_path):
    # os.replace replaces a symlink at the end of a path, not its target:
    # the spec takes the link's place and the weights go to its old target.
    weights = make_weights(tmp_path)
    out, link = tmp_path / "same.out", tmp_path / "link"
    link.symlink_to(out)
    code, _, _ = run(
        capsys, "embed", str(weights), str(link), str(out),
        "--message", MSG64, "--key", "3", "-a", "10", "--rate", "0.95",
    )
    assert code == 0 and not link.is_symlink()
    code, stdout, _ = run(capsys, "--quiet", "extract", str(out), str(link))
    assert code == 0 and stdout.strip() == MSG64


# --- embed / extract ---------------------------------------------------------


def embed_ok(capsys, tmp_path, *extra, message=MSG64, n=100_000):
    weights = make_weights(tmp_path, n=n)
    spec = tmp_path / "mark.spec"
    out = tmp_path / "marked.cwcw"
    code, stdout, stderr = run(
        capsys, "--json", "embed", str(weights), str(spec), str(out),
        "--message", message, "--key", "7", "-a", "10", *extra,
    )
    return code, stdout, stderr, spec, out


def test_embed_extract_pipeline(capsys, tmp_path):
    code, stdout, _, spec, marked = embed_ok(capsys, tmp_path, "--rate", "0.95")
    assert code == 0
    payload = json.loads(stdout)
    assert 0 < payload["modified_count"] <= 393
    assert payload["blocks"] == 1
    code, out, _ = run(capsys, "--quiet", "extract", str(marked), str(spec))
    assert code == 0
    assert out.strip() == MSG64


def test_extract_survives_prune_below_design_rate(capsys, tmp_path):
    code, _, _, spec, marked = embed_ok(capsys, tmp_path, "--rate", "0.95")
    assert code == 0
    pruned = tmp_path / "pruned.cwcw"
    code, _, _ = run(
        capsys, "prune", str(marked), str(pruned), "--rate", "0.9"
    )
    assert code == 0
    code, out, _ = run(capsys, "--quiet", "extract", str(pruned), str(spec))
    assert code == 0
    assert out.strip() == MSG64


def test_embed_rate_half_is_design_error(capsys, tmp_path):
    code, _, _, _, _ = embed_ok(capsys, tmp_path, "--rate", "0.5")
    assert code == 2


def test_embed_threshold_flag_conflicts(capsys, tmp_path):
    code, _, _, _, _ = embed_ok(
        capsys, tmp_path, "--rate", "0.95", "--t0", "0.01", "--t1", "0.02"
    )
    assert code == 2
    code, _, _, _, _ = embed_ok(capsys, tmp_path, "--t1", "0.02")
    assert code == 2
    code, _, _, _, _ = embed_ok(capsys, tmp_path)
    assert code == 2


def test_embed_t1_past_binary32_exits_2_before_writing(capsys, tmp_path):
    code, _, stderr, spec, marked = embed_ok(capsys, tmp_path, "--t0", "1", "--t1", "1e39")
    assert code == 2
    assert "binary32" in stderr
    assert not spec.exists() and not marked.exists()


def test_embed_explicit_thresholds_record_rate_zero(capsys, tmp_path):
    code, _, _, spec, marked = embed_ok(
        capsys, tmp_path, "--t0", "0.01", "--t1", "0.02"
    )
    assert code == 0
    doc = read_spec(spec)
    assert doc.rate == 0.0
    assert doc.spec.thresholds.t1 == 0.02
    code, out, _ = run(capsys, "--quiet", "extract", str(marked), str(spec))
    assert code == 0 and out.strip() == MSG64


@pytest.mark.parametrize(
    "message, extra",
    [(MSG64, ()), (MSG64 + "cafef00d89abcdef", ("--block-bits", "64"))],
    ids=["single", "block"],
)
def test_embed_density_limit_and_force(capsys, tmp_path, message, extra):
    # 393 positions (single) or 2 x 393 (block) need n >= 39300 or 78600.
    code, _, stderr, _, _ = embed_ok(
        capsys, tmp_path, "--rate", "0.95", *extra, message=message, n=30_000
    )
    assert code == 2
    assert "density limit" in stderr and "--force" in stderr
    code, _, _, spec, marked = embed_ok(
        capsys, tmp_path, "--rate", "0.95", "--force", *extra,
        message=message, n=30_000,
    )
    assert code == 0
    code, out, _ = run(capsys, "--quiet", "extract", str(marked), str(spec))
    assert code == 0 and out.strip() == message


def test_embed_refuses_oversized_code_before_encoding(capsys, tmp_path):
    # k=64 at alpha=1 needs L = 2**64 + 1 positions. The L <= n check
    # refuses it before encode would try to build a ladder row that long.
    weights = make_weights(tmp_path)
    spec, out = tmp_path / "mark.spec", tmp_path / "marked.cwcw"
    code, stdout, stderr = run(
        capsys, "embed", str(weights), str(spec), str(out),
        "--message", "ffffffffffffffff", "--key", "1", "-a", "1", "--rate", "0.95",
    )
    assert code == 2
    assert "cannot select" in stderr
    assert stdout == "" and not spec.exists() and not out.exists()


def test_embed_block_mode_roundtrip(capsys, tmp_path):
    long_message = "deadbeef01234567cafef00d89abcdef"  # 128 bits
    code, stdout, _, spec, marked = embed_ok(
        capsys, tmp_path, "--rate", "0.95", "--block-bits", "64",
        message=long_message,
    )
    assert code == 0
    assert json.loads(stdout)["blocks"] == 2
    doc = read_spec(spec)
    assert len(doc.specs) == 2 and doc.total_bits == 128
    code, out, _ = run(capsys, "--quiet", "extract", str(marked), str(spec))
    assert code == 0
    assert out.strip() == long_message


def test_block_mode_roundtrip_when_key_equals_a_block_index(capsys, tmp_path):
    # Block 1's seed is mix64(1 ^ 1) == 0 and its first draw collides with
    # block 0, so it must re-draw away from the zero seed.
    long_message = "ab" * 128  # 1024 bits, eight 128-bit blocks
    weights = make_weights(tmp_path, n=2_000_000, seed=5)
    spec, marked = tmp_path / "mark.spec", tmp_path / "marked.cwcw"
    code, _, _ = run(
        capsys, "--quiet", "embed", str(weights), str(spec), str(marked),
        "--message", long_message, "--key", "1", "-a", "20",
        "--block-bits", "128", "--rate", "0.95", "--two-sided",
    )
    assert code == 0
    code, out, _ = run(capsys, "--quiet", "extract", str(marked), str(spec))
    assert code == 0
    assert out.strip() == long_message


# sha256 of the spec and of the marked weights that embed writes, as
# (n, key, extra argv, message) -> (spec, weights). Both block cases
# re-draw: at key 7 and n = 200000 block 1 takes attempt 4, and at key 1
# and n = 160000 block 1, whose chain starts at mix64(1 ^ 1) == 0, takes
# attempt 3. Any rework of the embed path must reproduce these bytes.
EMBED_SHA256 = {
    "single": (
        (100_000, "7", (), MSG64),
        (
            "8fddd1545babc282ebafbd8da39bffb411e98d5b9dbf1f9738bfcfb1cf518c42",
            "ae3c730cb6074c575a11e5cbfdaaec83f19a4a7224c3abc85f42c58a14839d2d",
        ),
    ),
    "block": (
        (200_000, "7", ("--block-bits", "64"), MSG64 * 4),
        (
            "8b2c3ea5239e60e8e6364dc91d7bc0b372e936eb462c9f9d92209c575993331e",
            "58a76f00daa91027fcce3dd5ce74865a7d4a0b548ab8f6603e273f7f4751659e",
        ),
    ),
    "key-equals-block": (
        (160_000, "1", ("--block-bits", "64"), MSG64 * 4),
        (
            "cff513f4034578f4886ae515c3a00f8acbb012d0aa3d5bf378aff34cdd0da45c",
            "d20749ac8340462413d64d7fcb68cc8fa795268c0df474015021f090e4426bfd",
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(EMBED_SHA256))
def test_embed_bytes_pinned(capsys, tmp_path, case):
    (n, key, extra, message), digests = EMBED_SHA256[case]
    weights = make_weights(tmp_path, n=n)
    spec, marked = tmp_path / "mark.spec", tmp_path / "marked.cwcw"
    code, _, _ = run(
        capsys, "--quiet", "embed", str(weights), str(spec), str(marked),
        "--message", message, "--key", key, "-a", "10", "--rate", "0.95", *extra,
    )
    assert code == 0
    got = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (spec, marked))
    assert got == digests


def test_extract_all_zero_weights_decodes_zero_message(capsys, tmp_path):
    code, _, _, spec, marked = embed_ok(capsys, tmp_path, "--rate", "0.95")
    assert code == 0
    zeros = tmp_path / "zeros.cwcw"
    write_weights(zeros, np.zeros(100_000, dtype=np.float32))
    code, out, _ = run(capsys, "--quiet", "extract", str(zeros), str(spec))
    assert code == 0
    assert out.strip() == "0" * 16


def test_extract_range_failure_exits_4(capsys, tmp_path):
    code, _, _, spec, marked = embed_ok(capsys, tmp_path, "--rate", "0.95")
    assert code == 0
    doc = read_spec(spec)
    pos = np.asarray(doc.spec.positions)
    w = np.zeros(100_000, dtype=np.float32)
    w[pos] = np.linspace(0.1, 1.0, pos.size, dtype=np.float32)
    bad = tmp_path / "bad.cwcw"
    write_weights(bad, w)
    code, out, _ = run(capsys, "extract", str(bad), str(spec))
    assert code == 4
    assert "range check: failed" in out
    assert "codeword:" in out


LONG128 = "deadbeef01234567cafef00d89abcdef"


def block_out_of_range(spec, marked, block=1):
    # Ones packed at the block's last positions give an index >= 2**k.
    doc = read_spec(spec)
    w = read_weights(marked)
    pos = np.asarray(doc.specs[block].positions)
    w[pos] = np.linspace(0.1, 1.0, pos.size, dtype=np.float32)
    write_weights(marked, w)


def nonzero_padding(spec, marked):
    # Bits 100..127 of LONG128 are nonzero, so they cannot be padding.
    spec.write_text(set_field("total_bits", "100")(spec.read_text()))


@pytest.mark.parametrize(
    "corrupt", [block_out_of_range, nonzero_padding],
    ids=["block-out-of-range", "nonzero-padding"],
)
def test_block_extract_range_failure_exits_4(capsys, tmp_path, corrupt):
    code, _, _, spec, marked = embed_ok(
        capsys, tmp_path, "--rate", "0.95", "--block-bits", "64", message=LONG128
    )
    assert code == 0
    corrupt(spec, marked)
    code, out, _ = run(capsys, "extract", str(marked), str(spec))
    assert code == 4
    lines = out.splitlines()
    assert len(lines) == 3
    assert all(line.startswith("codeword: ") for line in lines[:2])
    assert lines[2] == "range check: failed"
    code, out, _ = run(capsys, "--json", "extract", str(marked), str(spec))
    assert code == 4
    assert json.loads(out) == {"weight_ok": True, "range_ok": False}


def test_block_extract_position_error_after_range_failure_exits_3(capsys, tmp_path):
    code, _, _, spec, marked = embed_ok(
        capsys, tmp_path, "--rate", "0.95", "--block-bits", "64", message=LONG128
    )
    assert code == 0
    block_out_of_range(spec, marked, block=0)
    spec.write_text(with_first_position("100000", "positions.1")(spec.read_text()))
    code, out, err = run(capsys, "extract", str(marked), str(spec))
    assert code == 3
    assert out == ""
    assert "out of range" in err


# Three pieces of a pass, the last one short.
N_PIECES = 2 * _PIECE + 5


def file_verb_argv(verb, weights, out, spec, message=MSG64):
    """argv of one file verb on weights: embed writes out and spec,
    extract reads spec, prune, noise and attack write out."""
    return {
        "embed": [
            "embed", str(weights), str(spec), str(out), "--message", message,
            "--key", "7", "-a", "10", "--rate", "0.95", "--block-bits", "64",
        ],
        "extract": ["--quiet", "extract", str(weights), str(spec)],
        "prune": ["prune", str(weights), str(out), "--rate", "0.9"],
        "noise": ["noise", str(weights), str(out), "--level", "0.001"],
        "attack": ["attack", str(weights), str(out), "--budget", "10"],
    }[verb]


def marked_pieces_file(capsys, tmp_path, message=MSG64):
    """A marked N_PIECES-weight file and its spec."""
    weights = make_weights(tmp_path, n=N_PIECES)
    spec, marked = tmp_path / "mark.spec", tmp_path / "marked.cwcw"
    argv = file_verb_argv("embed", weights, marked, spec, message)
    assert run(capsys, *argv)[0] == 0
    return marked, spec


@pytest.mark.parametrize(
    "verb, message, code",
    [
        ("embed", MSG64, 0),
        ("embed", LONG128, 0),
        ("extract", LONG128, 0),
        ("extract", LONG128, 4),
        ("prune", MSG64, 0),
        ("noise", MSG64, 0),
        ("attack", MSG64, 0),
    ],
    ids=[
        "embed-single", "embed-block", "extract", "extract-range-failure", "prune", "noise",
        "attack",
    ],
)
def test_file_verbs_check_each_weight_once_in_pieces(
    capsys, tmp_path, monkeypatch, verb, message, code
):
    # Each file verb reads the weight file in pieces of at most _PIECE
    # weights and checks each weight once, in its first pass: the pieces
    # checked sum to n. It calls no public step and never reads or writes
    # the whole vector (read_weights, write_weights).
    marked, spec = marked_pieces_file(capsys, tmp_path, message)
    if code == 4:
        block_out_of_range(spec, marked, block=len(read_spec(spec).specs) - 1)
    check = cwmark.model_io._all_finite
    checked = []

    def counted(raw):  # a piece's binary32 values as bytes
        checked.append(len(raw) // 4)
        return check(raw)

    def refused(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{verb} called {name}")
        return call

    monkeypatch.setattr(cwmark.model_io, "_all_finite", counted)
    public = {
        cwmark.model_io: ["read_weights", "write_weights"],
        cwmark.stats: ["estimate_sigma"],
        cwmark.attacks: ["prune", "add_noise", "targeted_flip_attack"],
        cwmark.watermark: [
            "embed", "embed_message", "embed_message_blocks",
            "extract", "extract_message", "extract_message_blocks",
        ],
    }
    for module, names in public.items():
        for name in names:
            monkeypatch.setattr(module, name, refused(name))
    spec_arg = spec if verb == "extract" else tmp_path / "out.spec"
    argv = file_verb_argv(verb, marked, tmp_path / "out.cwcw", spec_arg, message)
    assert run(capsys, *argv)[0] == code
    assert sum(checked) == N_PIECES and max(checked) == _PIECE


def write_raw_weights(path, w):
    """Write w as a weight file without write_weights' finiteness check."""
    path.write_bytes(b"CWCW" + struct.pack("<HQ", 1, w.size) + w.astype("<f4").tobytes())


@pytest.mark.parametrize("verb", ["embed", "extract", "prune", "noise", "attack"])
def test_nan_in_last_piece_exits_3_and_leaves_no_file(capsys, tmp_path, verb):
    # The NaN is read after every earlier piece, which noise has already
    # written to its temp file; the temp file goes, and extract prints nothing.
    marked, spec = marked_pieces_file(capsys, tmp_path)
    w = read_weights(marked)
    w[-1] = np.nan
    write_raw_weights(marked, w)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    spec_arg = spec if verb == "extract" else out_dir / "out.spec"
    argv = file_verb_argv(verb, marked, out_dir / "out.cwcw", spec_arg)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err == "cwmark: error: payload contains NaN or infinity\n"
    assert out == ""
    assert os.listdir(out_dir) == []


@pytest.mark.parametrize(
    "verb, nan_at",
    [
        ("extract", -1), ("embed", -1), ("prune", -1), ("noise", -1), ("attack", -1),
        ("noise", 0),
    ],
    ids=["extract", "embed", "prune", "noise", "attack", "noise-first-piece"],
)
def test_fault_before_the_pass_is_reported_before_a_nan(capsys, tmp_path, verb, nan_at):
    # Two faults: a NaN in the first or last piece, and a spec in a bad
    # format (extract) or an output in a missing directory (every verb that
    # writes). The spec is read, and the output opened, right after the
    # header, before any pass reaches the NaN.
    marked, spec = marked_pieces_file(capsys, tmp_path)
    w = read_weights(marked)
    w[nan_at] = np.nan
    write_raw_weights(marked, w)
    out = tmp_path / "missing" / "out.cwcw"
    if verb == "extract":
        spec.write_text(spec.read_text().replace("format: ", "format: x", 1))
        want = "unknown format 'xcwmark-spec/1', expected 'cwmark-spec/1'"
    else:
        want = f"[Errno 2] No such file or directory: {str(out)!r}"
    code, stdout, err = run(capsys, *file_verb_argv(verb, marked, out, spec))
    assert code == 3 and stdout == ""
    assert err == f"cwmark: error: {want}\n"
    assert not out.parent.exists()


def test_attack_budget_is_checked_before_a_nan(capsys, tmp_path):
    # The budget is checked against the header's count before the first
    # pass, so a budget past n is reported before the NaN in the last piece.
    marked, _ = marked_pieces_file(capsys, tmp_path)
    w = read_weights(marked)
    w[-1] = np.nan
    write_raw_weights(marked, w)
    out = tmp_path / "out.cwcw"
    argv = ["attack", str(marked), str(out), "--budget", str(N_PIECES + 1)]
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == ""
    assert err == f"cwmark: error: budget {N_PIECES + 1} exceeds vector length {N_PIECES}\n"
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("verb", ["embed", "extract", "prune", "noise", "attack"])
def test_piped_weight_file_refused_by_its_size(capsys, tmp_path, verb):
    # A pipe's fstat size is 0, so the size checks refuse it after the
    # header, before any pass reads the payload.
    data = make_weights(tmp_path, n=1000).read_bytes()
    fifo = tmp_path / "w.fifo"
    os.mkfifo(fifo)

    def feed():
        with contextlib.suppress(BrokenPipeError), open(fifo, "wb") as handle:
            handle.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    argv = file_verb_argv(verb, fifo, tmp_path / "out.cwcw", tmp_path / "out.spec")
    code, out, err = run(capsys, *argv)
    writer.join(timeout=10)
    assert code == 3 and out == ""
    assert err == "cwmark: error: header declares 1000 weights (4014 bytes) but file has 0\n"
    assert not (tmp_path / "out.cwcw").exists()


@pytest.mark.parametrize("verb", ["embed", "prune", "noise", "attack"])
def test_file_verbs_write_over_their_own_input(capsys, tmp_path, verb):
    # Every pass reads the input until os.replace moves the output over it,
    # so writing over the input gives the bytes of a separate output.
    weights = make_weights(tmp_path, n=N_PIECES)
    own = tmp_path / "own.cwcw"
    shutil.copyfile(weights, own)
    apart, apart_spec = tmp_path / "apart.cwcw", tmp_path / "apart.spec"
    own_spec = tmp_path / "own.spec"
    assert run(capsys, *file_verb_argv(verb, weights, apart, apart_spec))[0] == 0
    assert run(capsys, *file_verb_argv(verb, own, own, own_spec))[0] == 0
    assert own.read_bytes() == apart.read_bytes() != weights.read_bytes()
    if verb == "embed":
        assert own_spec.read_bytes() == apart_spec.read_bytes()
    assert not [name for name in os.listdir(tmp_path) if name.startswith(".cwmark-")]


BAD_OUTPUT_CASES = pytest.mark.parametrize(
    "verb, which",
    [
        ("embed", "out"),
        ("embed", "spec"),
        ("prune", "out"),
        ("noise", "out"),
        ("attack", "out"),
    ],
    ids=["embed-weights", "embed-spec", "prune", "noise", "attack"],
)


def run_to_bad_output(capsys, tmp_path, verb, which, given):
    """Run verb on a fresh weight file with its `which` output at given."""
    weights = make_weights(tmp_path, n=N_PIECES)
    out = given if which == "out" else tmp_path / "o.cwcw"
    spec = given if which == "spec" else tmp_path / "s.spec"
    if verb == "attack":
        argv = ["attack", str(weights), str(out), "--budget", "2"]
    else:
        argv = file_verb_argv(verb, weights, out, spec)
    return weights, run(capsys, *argv)


@BAD_OUTPUT_CASES
def test_output_in_missing_directory_named_and_no_file_left(capsys, tmp_path, verb, which):
    # The error names the path given, not the temp file beside it, and no
    # output is left: a spec embed cannot write leaves no marked weights.
    given = tmp_path / "nodir" / "x"
    weights, (code, out_text, err) = run_to_bad_output(capsys, tmp_path, verb, which, given)
    assert code == 3 and out_text == ""
    assert err.startswith("cwmark: error: [Errno 2] ")
    assert err.endswith(f": {str(given)!r}\n") and ".cwmark-" not in err
    assert os.listdir(tmp_path) == [weights.name]


@BAD_OUTPUT_CASES
def test_output_that_is_a_directory_named_and_no_file_left(capsys, tmp_path, verb, which):
    # os.replace would name the temp file too; the error names the path
    # given, and no output is left: embed writes no spec beside weights
    # it cannot write.
    given = tmp_path / "adir"
    given.mkdir()
    weights, (code, out_text, err) = run_to_bad_output(capsys, tmp_path, verb, which, given)
    assert code == 3 and out_text == ""
    assert err == f"cwmark: error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(given)!r}\n"
    assert sorted(os.listdir(tmp_path)) == sorted([weights.name, given.name])
    assert os.listdir(given) == []


# --- prune / noise / attack wrappers -----------------------------------------


def test_prune_verb(capsys, tmp_path):
    src = tmp_path / "w.cwcw"
    write_weights(src, np.array([0.1, -0.5, 2.0, -3.0], dtype=np.float32))
    dst = tmp_path / "p.cwcw"
    code, out, _ = run(capsys, "--json", "prune", str(src), str(dst), "--rate", "0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 2 and payload["zeroed"] == 2
    assert read_weights(dst).tolist() == [0.0, 0.0, 2.0, -3.0]
    with pytest.raises(SystemExit) as err:
        run(capsys, "prune", str(src), str(dst), "--rate", "1.0")
    assert err.value.code == 2


def test_noise_verb_deterministic_per_seed(capsys, tmp_path):
    src = make_weights(tmp_path, n=1000)
    a, b, c = tmp_path / "a.cwcw", tmp_path / "b.cwcw", tmp_path / "c.cwcw"
    assert run(capsys, "--seed", "5", "noise", str(src), str(a), "--level", "0.1")[0] == 0
    assert run(capsys, "--seed", "5", "noise", str(src), str(b), "--level", "0.1")[0] == 0
    assert run(capsys, "--seed", "6", "noise", str(src), str(c), "--level", "0.1")[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_noise_level_past_binary32_exits_2_and_leaves_no_file(capsys, tmp_path):
    # The last piece ends in weights near the binary32 maximum, where this
    # noise level overflows after the earlier pieces were written.
    w = sample_gaussian_weights(N_PIECES, sigma=0.01, seed=0)
    w[-100:] = 3.4e38
    src = tmp_path / "w.cwcw"
    write_weights(src, w)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    for level in ("1e36", "1e39"):
        argv = ["noise", str(src), str(out_dir / "n.cwcw"), "--level", level]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"cwmark: error: noise level {float(level)!r} overflows binary32\n"
        assert os.listdir(out_dir) == []


def test_attack_verb(capsys, tmp_path):
    src = tmp_path / "w.cwcw"
    write_weights(src, np.array([0.1, -5.0, 0.2, 4.0, -0.3], dtype=np.float32))
    dst = tmp_path / "a.cwcw"
    code, out, _ = run(
        capsys, "--json", "attack", str(src), str(dst), "--budget", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["touched"] == 2 and payload["touched_indices"] == [1, 3]
    assert read_weights(dst).tolist() == pytest.approx([0.1, -0.3, 0.2, 0.3, -0.3])


def tie_budget(w, strategy):
    """A budget whose cutoff ties straddle the first piece edge: it takes the
    ties of the first piece and two more. suppress cuts among the magnitude
    1.0; inflate, past its candidates (at most RMS / 2), among 0.75."""
    mag = np.abs(w)
    tie = np.float32(1.0 if strategy == "suppress" else 0.75)
    beyond = mag > tie if strategy == "suppress" else mag < tie
    return int(np.count_nonzero(beyond) + np.count_nonzero(mag[:_PIECE] == tie) + 2)


@pytest.mark.parametrize("strategy", ["suppress", "inflate"])
def test_attack_on_a_file_equals_targeted_flip_attack(capsys, tmp_path, strategy):
    # The file's pieces go through the write path of a _WeightFile; the
    # library's through an array. Magnitudes on a grid of 0.25 tie everywhere.
    w = np.round(np.random.default_rng(5).normal(0, 1, N_PIECES) * 4).astype(np.float32) / 4
    w[::5] = 0.0
    w[1::11] = -0.0
    src, out, want = tmp_path / "w.cwcw", tmp_path / "a.cwcw", tmp_path / "want.cwcw"
    write_weights(src, w)
    rms = np.sqrt(np.mean(w.astype(np.float64) ** 2))
    tied = tie_budget(w, strategy)
    assert strategy == "suppress" or np.count_nonzero(np.abs(w) <= rms / 2) < tied
    for budget in [1, tied, N_PIECES - 1, N_PIECES]:
        argv = ["--json", "--seed", "9", "attack", str(src), str(out), "--budget", str(budget)]
        code, stdout, _ = run(capsys, *argv, "--strategy", strategy)
        attacked, touched = targeted_flip_attack(w, budget, 9, strategy)
        write_weights(want, attacked)
        assert code == 0 and out.read_bytes() == want.read_bytes()
        assert json.loads(stdout)["touched_indices"] == touched.tolist()


@pytest.mark.parametrize("strategy", ["suppress", "inflate"])
def test_attack_budget_past_the_vector_exits_2_and_leaves_no_file(capsys, tmp_path, strategy):
    src = tmp_path / "w.cwcw"
    write_weights(src, np.array([0.1, -5.0, 0.2, 4.0, -0.3], dtype=np.float32))
    argv = ["attack", str(src), str(tmp_path / "a.cwcw"), "--budget", "6", "--strategy", strategy]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "cwmark: error: budget 6 exceeds vector length 5\n"
    assert os.listdir(tmp_path) == ["w.cwcw"]


# --- eval --------------------------------------------------------------------

EVAL_SMALL = (
    "eval", "--trials", "2", "--n", "20000", "-k", "16", "-a", "8",
    "--sigma", "0.01", "--design-rate", "0.95", "--attack-rates", "0.5",
)


def test_eval_csv_stdout_and_recovery(capsys):
    code, out, err = run(capsys, "--seed", "1", *EVAL_SMALL)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "seed,n,sigma,k,alpha,L,design_rate,attack_rate,"
        "bit_errors,recovered,cutoff,t1,modified_count"
    )
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[9] == "yes" and fields[8] == "0"
    assert "2/2 recoveries" in err


def test_eval_deterministic_csv_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "--seed", "9", *EVAL_SMALL, "--out", str(a))[0] == 0
    assert run(capsys, "--seed", "9", *EVAL_SMALL, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.csv"
    assert run(capsys, "--seed", "10", *EVAL_SMALL, "--out", str(c))[0] == 0
    assert a.read_bytes() != c.read_bytes()


# sha256 of the --seed 9 CSV at three unsorted attack rates. It pins eval's
# output bytes: a faster harness must reproduce them exactly.
EVAL_SEED9_SHA256 = "cc7d577dba4f0873e98ab79d61d0f88ba6c31e7a763647029a70bfbd5bcc1ee0"


def test_eval_csv_bytes_pinned(capsys, tmp_path):
    out = tmp_path / "e.csv"
    argv = (*EVAL_SMALL[:-1], "0.94,0.5,0.9", "--out", str(out))
    assert run(capsys, "--seed", "9", *argv)[0] == 4  # 0.94 is a protected rate
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EVAL_SEED9_SHA256


def public_recipe(seed, trials, n, sigma, k, alpha, rates, force=False):
    """Per trial: the marked vector, the selected positions and the rows'
    (cutoff, bit_errors, recovered, modified_count), from public calls
    only: the exact sampler, embed_message, prune and extract."""
    params = find_params(k, alpha).params
    pair = design_thresholds(sigma, 0.95)
    for trial_seed in splitmix64_stream(seed, trials).tolist():
        weight_seed, key, message_seed = splitmix64_stream(trial_seed, 3).tolist()
        message = random_bits(message_seed, k)
        weights = sample_gaussian_weights(n, sigma, weight_seed)
        marked, receipt = embed_message(weights, message, key, pair, params, force)
        codeword = encode(message, params)
        rows = []
        for rate in rates:
            pruned, report = prune(marked, rate)
            errors = int(np.count_nonzero(extract(pruned, receipt.spec) != codeword))
            recovered = "yes" if errors == 0 else "no"
            modified = receipt.modified_count
            rows.append((repr(rate), repr(report.cutoff), errors, recovered, modified))
        yield weights, marked, list(receipt.spec.positions), rows


def eval_rows(argv):
    rows = cli._eval_rows(cli.build_parser().parse_args(argv))
    fields = ("attack_rate", "cutoff", "bit_errors", "recovered", "modified_count")
    return [tuple(row[name] for name in fields) for row in rows]


@pytest.mark.parametrize("tie", [None, "unmodified"])
def test_eval_rows_agree_with_prune_and_extract(tie):
    # The harness reads only the selected weights; each row must still be
    # what prune followed by extract gives. With tie, one rate's p is the
    # rank of a selected weight that embedding left alone, so that weight
    # ties with the cutoff.
    rates = [0.9, 0.5, 0.0, 0.9, 0.94]
    [(weights, marked, positions, _), _] = public_recipe(5, 2, 20000, 0.01, 16, 8, [])
    if tie is not None:
        kept = [i for i in positions if marked[i] == weights[i]][0]
        rank = int(np.count_nonzero(np.abs(marked) < abs(marked[kept])))
        rates.append((rank + 0.5) / 20000)
    argv = ["--seed", "5", *EVAL_SMALL[:-1], ",".join(map(repr, rates))]
    want = [row for *_, rows in public_recipe(5, 2, 20000, 0.01, 16, 8, rates) for row in rows]
    assert eval_rows(argv) == want
    # The first trial's last rate.
    cutoff = np.float32(float(want[len(rates) - 1][1]))
    ties = int(np.count_nonzero(np.abs(marked[positions]) == cutoff))
    assert (ties > 0) == (tie is not None)


# Just under the largest sigma whose sample stays finite in binary32.
SIGMA_MAX = 3.9698e37


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    n=st.integers(min_value=8, max_value=70)
    | st.integers(min_value=2**14 - 3, max_value=40000),
    picks=st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=5),
    sigma=st.sampled_from([1e-44, 0.01, SIGMA_MAX]),
)
def test_eval_rows_match_the_public_recipe(seed, n, picks, sigma):
    # Rates 0, 0.5 and (n - 1)/n, repeated and unsorted; tiny n, whose
    # brackets hold every weight, and n of more than one screened piece.
    rates = [(0.0, 0.5, (n - 1) / n)[i] for i in picks]
    argv = [
        "--seed", str(seed), "eval", "--trials", "2", "--n", str(n), "-k", "4",
        "-a", "2", "--sigma", repr(sigma), "--attack-rates", ",".join(map(repr, rates)),
        "--force",
    ]
    recipe = public_recipe(seed, 2, n, sigma, 4, 2, rates, force=True)
    assert eval_rows(argv) == [row for *_, rows in recipe for row in rows]


def test_eval_trials_trust_the_values_they_draw(monkeypatch):
    # Each trial draws its own positions, message and Gaussian weights, so
    # it runs none of the public checks on them: no weight vector is coerced.
    calls = []
    coerce = cwmark.watermark.as_weight_vector
    monkeypatch.setattr(
        cwmark.watermark, "as_weight_vector", lambda w: calls.append(1) or coerce(w)
    )
    assert len(eval_rows(["--seed", "3", *EVAL_SMALL])) == 2
    assert calls == []


def count_exact_samples(monkeypatch):
    """Record each call of the exact sampler, which the harness makes only
    when a rate falls back to the exact recipe."""
    calls = []
    sample = cwmark.stats.sample_gaussian_weights
    monkeypatch.setattr(
        cwmark.stats, "sample_gaussian_weights", lambda *a: calls.append(a) or sample(*a)
    )
    return calls


def test_eval_falls_back_to_the_exact_recipe_when_a_bracket_misses(monkeypatch):
    argv = ["--seed", "5", *EVAL_SMALL[:-1], "0.9,0.5,0.0,0.94,0.9"]
    want = eval_rows(argv)
    calls = count_exact_samples(monkeypatch)
    assert eval_rows(argv) == want and calls == []
    # Brackets far below every cutoff: no screened select may be trusted.
    monkeypatch.setattr(
        cwmark.stats, "_bracket", lambda p, n, L, sigma, delta: (np.float32(1e-9), np.float32(2e-9))
    )
    assert eval_rows(argv) == want
    assert len(calls) == 2  # one exact sample per trial, partitioned for each p


def test_eval_bracket_edges_on_sample_values(monkeypatch):
    # Edges that equal screened magnitudes: a count and a band split at
    # different edges would lose a weight on an edge, or count it twice.
    argv = ["--seed", "5", *EVAL_SMALL[:2], "1", *EVAL_SMALL[3:-1], "0.5,0.9"]
    want = eval_rows(argv)
    trial_seed = splitmix64_stream(5, 1).tolist()[0]
    weight_seed = splitmix64_stream(trial_seed, 1).tolist()[0]
    [(_, marked, positions, _)] = public_recipe(5, 1, 20000, 0.01, 16, 8, [])
    screened = np.empty(20000, dtype=np.float32)
    cwmark.stats._fill_normals(screened, weight_seed, 0.01, screen=True)
    screened[positions] = marked[positions]
    mags = np.sort(np.abs(screened))
    monkeypatch.setattr(
        cwmark.stats, "_bracket", lambda p, n, L, sigma, delta: (mags[p - 300], mags[p + 300])
    )
    calls = count_exact_samples(monkeypatch)
    assert eval_rows(argv) == want and calls == []


def test_eval_sigma_whose_sample_overflows_binary32_exits_2(capsys, tmp_path):
    out = tmp_path / "e.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(
            capsys, "eval", "--trials", "1", "--n", "100000", "-k", "8", "-a", "2",
            "--sigma", "1e38", "--design-rate", "0.95", "--out", str(out),
        )
    assert code == 2 and stdout == "" and not out.exists()
    assert err.splitlines() == [
        "cwmark: error: sigma must lie in (0, 3.9698e37) for a finite sample, got 1e+38"
    ]


@pytest.mark.parametrize("name", ["missing/e.csv", ""], ids=["missing-directory", "empty"])
def test_eval_unwritable_out_exits_3_before_the_argument_checks(
    capsys, tmp_path, monkeypatch, name
):
    # --out is claimed before the first trial and before the argument
    # checks, so the sigma eval refuses (exit 2) is not reached.
    monkeypatch.chdir(tmp_path)
    given = str(tmp_path / name) if name else ""
    code, stdout, err = run(
        capsys, "eval", "--trials", "1", "--n", "100", "--sigma", "3e38", "--out", given
    )
    assert code == 3 and stdout == ""
    assert err == f"cwmark: error: [Errno 2] No such file or directory: {given!r}\n"
    assert os.listdir(tmp_path) == []


def test_eval_write_that_fails_leaves_an_existing_out_as_it_was(capsys, tmp_path, monkeypatch):
    # The CSV goes to a temp file that replaces --out only when it is whole.
    out = tmp_path / "e.csv"
    out.write_bytes(b"previous")
    real = csv.writer

    class Full:
        def __init__(self, handle, **kwargs):
            self.writerow = real(handle, **kwargs).writerow

        def writerows(self, rows):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(csv, "writer", Full)
    code, _, err = run(capsys, *EVAL_SMALL, "--out", str(out))
    assert code == 3
    assert err == f"cwmark: error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert out.read_bytes() == b"previous"
    assert os.listdir(tmp_path) == ["e.csv"]


def test_replaced_outputs_keep_their_mode_and_new_ones_are_owner_only(capsys, tmp_path):
    # Each output is written to a temp file that replaces it: one that
    # replaces a file takes that file's permission bits, and a new one
    # keeps the temp file's 0600, which keeps a spec's key private.
    weights = make_weights(tmp_path, n=2000)
    outputs = {
        "prune": [tmp_path / "p.cwcw"],
        "embed": [tmp_path / "e.cwcw", tmp_path / "e.spec"],
        "eval": [tmp_path / "e.csv"],
    }
    argv = {
        "prune": ["prune", str(weights), str(tmp_path / "p.cwcw"), "--rate", "0.5"],
        "embed": [
            "embed", str(weights), str(tmp_path / "e.spec"), str(tmp_path / "e.cwcw"),
            "--message", "ab", "--key", "3", "-a", "2", "--t0", "0.01", "--t1", "0.02",
            "--force",
        ],
        "eval": [*EVAL_SMALL, "--out", str(tmp_path / "e.csv")],
    }
    for verb, paths in outputs.items():
        assert run(capsys, *argv[verb])[0] == 0
        assert [path.stat().st_mode & 0o777 for path in paths] == [0o600] * len(paths)
        for path in paths:
            path.chmod(0o640)
        assert run(capsys, *argv[verb])[0] == 0
        assert [path.stat().st_mode & 0o777 for path in paths] == [0o640] * len(paths)
    # In place: the input is the output.
    weights.chmod(0o644)
    assert run(capsys, "prune", str(weights), str(weights), "--rate", "0.5")[0] == 0
    assert weights.stat().st_mode & 0o777 == 0o644


SIGMA_MESSAGE = "sigma must lie in (0, 3.9698e37) for a finite sample, got 3e+38"
CODE_MESSAGE = (
    "2**k * alpha! would pass 16384 bits: no coding table within the 256 MiB limit "
    "holds such a code"
)
THRESHOLD_MESSAGE = (
    "rate 0.3 gives a non-positive t1; pick a rate above 0.5 or set thresholds explicitly"
)


# eval checks sigma, the code, the thresholds, then the selection. Each
# input fails both checks its case names (at --n 100, every selection fails).
@pytest.mark.parametrize(
    "extra, message",
    [
        (["--sigma", "3e38", "-k", "20000"], SIGMA_MESSAGE),
        (["--sigma", "3e38"], SIGMA_MESSAGE),
        (["-k", "20000", "--design-rate", "0.3"], CODE_MESSAGE),
        (["--design-rate", "0.3"], THRESHOLD_MESSAGE),
    ],
    ids=[
        "sigma-before-code", "sigma-before-thresholds", "code-before-thresholds",
        "thresholds-before-selection",
    ],
)
def test_eval_reports_the_first_failing_check(capsys, extra, message):
    code, out, err = run(capsys, "eval", "--trials", "1", "--n", "100", *extra)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"cwmark: error: {message}"]


def test_eval_checks_the_selection_before_any_trial(capsys):
    code, out, err = run(capsys, "--quiet", "eval", "--trials", "0", "--n", "100")
    assert code == 2 and out == ""
    assert err.splitlines() == ["cwmark: error: cannot select 393 positions from 100"]


def test_eval_trials_zero_header_only(capsys):
    code, out, _ = run(capsys, "--quiet", "eval", "--trials", "0")
    assert code == 0
    assert out.strip().splitlines() == [
        "seed,n,sigma,k,alpha,L,design_rate,attack_rate,"
        "bit_errors,recovered,cutoff,t1,modified_count"
    ]


def test_eval_failure_at_protected_rate_exits_4(capsys):
    code, out, err = run(
        capsys, "--seed", "3", "eval", "--trials", "1", "--n", "50000",
        "--attack-rates", "0.94",
    )
    assert code == 4
    row = out.strip().splitlines()[1].split(",")
    assert row[9] == "no" and int(row[8]) > 0
    assert "1 failures at protected rates" in err


def test_eval_failure_above_design_rate_records_but_exits_0(capsys):
    code, out, _ = run(
        capsys, "--seed", "3", "eval", "--trials", "1", "--n", "50000",
        "--attack-rates", "0.999",
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[9] == "no"


def test_eval_json_payload(capsys):
    code, out, _ = run(capsys, "--seed", "1", "--json", *EVAL_SMALL)
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 2 and payload["failures"] == 0
    assert len(payload["rows"]) == 2
    assert payload["rows"][0]["recovered"] == "yes"


def test_eval_quiet_suppresses_summary(capsys):
    code, _, err = run(capsys, "--quiet", "--seed", "1", *EVAL_SMALL)
    assert code == 0
    assert err == ""


# --- data errors map to exit 3 -----------------------------------------------


def test_missing_weight_file_exits_3(capsys, tmp_path):
    spec = tmp_path / "s.spec"
    out = tmp_path / "o.cwcw"
    code, _, err = run(
        capsys, "embed", str(tmp_path / "nope.cwcw"), str(spec), str(out),
        "--message", "ff", "--key", "1", "-a", "2", "--rate", "0.95",
    )
    assert code == 3
    assert "error" in err


def test_corrupt_weight_file_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.cwcw"
    bad.write_bytes(b"XXXX" + b"\x00" * 20)
    code, _, _ = run(capsys, "extract", str(bad), str(tmp_path / "s.spec"))
    assert code == 3


def set_field(name, value):
    def edit(text):
        return "".join(
            f"{name}: {value}\n" if line.startswith(f"{name}:") else line
            for line in text.splitlines(keepends=True)
        )
    return edit


def repeat_first_position(text):
    head, _, positions = text.rpartition("positions: ")
    first, _, *rest = positions.split()
    return head + "positions: " + " ".join([first, first, *rest]) + "\n"


def drop_last_position(text):
    return text.rstrip().rsplit(" ", 1)[0] + "\n"


def with_first_position(value, field="positions"):
    # The field must be the spec's last line, as the last block's list is.
    def edit(text):
        head, _, positions = text.rpartition(f"{field}: ")
        _, *rest = positions.split()
        return head + f"{field}: " + " ".join([value, *rest]) + "\n"
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text + "k: 64\n",
        set_field("t0", "1.0"),
        set_field("key", "-4"),
        lambda text: text + "# caf\u00e9\n",
        set_field("alpha", "400"),
        repeat_first_position,
        drop_last_position,
        set_field("alpha", "1"),
        set_field("k", "1" + "0" * 4000),
        with_first_position(str(2**63)),
        set_field("t1", "1e39"),
        set_field("k", "064"),
        with_first_position("-0"),
    ],
    ids=[
        "duplicate-field", "t0-not-below-t1", "negative-key", "non-ascii",
        "L-below-alpha", "duplicate-positions", "position-count", "capacity",
        "oversized-k", "position-past-int64", "t1-past-binary32", "k-leading-zero",
        "position-minus-zero",
    ],
)
def test_corrupt_spec_file_exits_3(capsys, tmp_path, edit):
    code, _, _, spec, marked = embed_ok(capsys, tmp_path, "--rate", "0.95")
    assert code == 0
    spec.write_bytes(edit(spec.read_text()).encode("utf-8"))
    code, _, err = run(capsys, "extract", str(marked), str(spec))
    assert code == 3
    assert err.startswith("cwmark: error:")


def test_spec_position_out_of_range_exits_3(capsys, tmp_path):
    code, _, _, spec, marked = embed_ok(capsys, tmp_path, "--rate", "0.95")
    assert code == 0
    short = tmp_path / "short.cwcw"
    write_weights(short, np.zeros(50, dtype=np.float32))
    code, _, _ = run(capsys, "extract", str(short), str(spec))
    assert code == 3


@functools.lru_cache(maxsize=None)
def fuzz_inputs():
    """Bytes of a marked 400-weight file and of its one- and two-block specs."""
    weights = sample_gaussian_weights(400, sigma=0.01, seed=0)
    pair = design_thresholds(0.01, 0.95)
    marked, specs, _ = embed_message_blocks(
        weights, int_to_bits(0xBEEF, 16), 3, pair, alpha=2, k_block=8, allow_dense=True
    )
    docs = {
        1: SpecDocument.single(specs[0], sigma=0.01, rate=0.95),
        2: SpecDocument(specs=specs, sigma=0.01, rate=0.95, total_bits=16),
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f")
        write_weights(path, marked)
        with open(path, "rb") as handle:
            weight_bytes = handle.read()
        spec_bytes = {}
        for blocks, doc in docs.items():
            write_spec(path, doc)
            with open(path, "rb") as handle:
                spec_bytes[blocks] = handle.read()
    return weight_bytes, spec_bytes


# NaN and infinity patterns of binary32: the infinities, quiet and
# signalling NaNs of both signs.
NONFINITE_PATTERNS = (0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC00000, 0x7F800001, 0xFFBFFFFF)


def mutate(data, blob: bytes) -> bytes:
    """Up to three bit flips, truncations, inserted digit runs or non-finite
    weights, often near the start."""
    out = bytearray(blob)
    for _ in range(data.draw(st.integers(0, 3))):
        if not out:
            break
        last = len(out) - 1
        at = data.draw(st.integers(0, min(31, last)) | st.integers(0, last))
        kind = data.draw(st.sampled_from(("flip", "truncate", "digits", "nonfinite")))
        if kind == "flip":
            out[at] ^= 1 << data.draw(st.integers(0, 7))
        elif kind == "truncate":
            del out[at:]
        elif kind == "digits":
            digit = data.draw(st.sampled_from(b"0123456789"))
            out[at:at] = bytes([digit]) * data.draw(st.integers(1, 24))
        elif len(out) >= 18:  # a weight after the 14-byte header
            at = 14 + 4 * data.draw(st.integers(0, (len(out) - 18) // 4))
            struct.pack_into("<I", out, at, data.draw(st.sampled_from(NONFINITE_PATTERNS)))
    return bytes(out)


def payload_finite(blob: bytes):
    """Whether numpy finds the payload of the weight file blob finite; None if
    its header or size is at fault."""
    if len(blob) < 14:
        return None
    magic, version, n = struct.unpack("<4sHQ", blob[:14])
    if magic != b"CWCW" or version != 1 or n == 0 or len(blob) != 14 + 4 * n:
        return None
    return bool(np.isfinite(np.frombuffer(blob[14:], dtype="<f4")).all())


def fuzz_argv(verb, weights, spec, out, out_spec):
    """A valid argv of verb for the fuzz corpus's 400 weights and spec."""
    return {
        "embed": [
            "embed", weights, out_spec, out, "--message", "beef", "--key", "3", "-a", "2",
            "--rate", "0.95", "--block-bits", "8", "--force",
        ],
        "extract": ["extract", weights, spec],
        "prune": ["prune", weights, out, "--rate", "0.9"],
        "noise": ["noise", weights, out, "--level", "0.001"],
        "attack": ["attack", weights, out, "--budget", "1"],
    }[verb]


def contents(path):
    """The bytes of the file at path, or None if there is none."""
    with contextlib.suppress(FileNotFoundError), open(path, "rb") as handle:
        return handle.read()
    return None


def reader_error(path):
    try:
        read_weights(path)
    except WeightFileError as exc:
        return exc
    return None


@pytest.mark.parametrize("verb", ["embed", "extract", "prune", "noise", "attack"])
@settings(max_examples=100, deadline=None)
@given(data=st.data(), blocks=st.sampled_from((1, 2)), existed=st.booleans())
def test_fuzzed_files_exit_with_a_documented_code_in_every_file_verb(
    verb, data, blocks, existed
):
    # Each verb meets the mutated bytes that the readers refuse with typed
    # errors. It reports the reader's fault, in one line, and leaves its
    # outputs as they were; it reports no weight fault the reader does not.
    weight_bytes, spec_bytes = fuzz_inputs()
    with tempfile.TemporaryDirectory() as tmp:
        weights, spec = os.path.join(tmp, "w.cwcw"), os.path.join(tmp, "s.spec")
        outs = [os.path.join(tmp, "o.cwcw"), os.path.join(tmp, "o.spec")]
        blob = mutate(data, weight_bytes)
        with open(weights, "wb") as handle:
            handle.write(blob)
        with open(spec, "wb") as handle:
            handle.write(mutate(data, spec_bytes[blocks]))
        for path in outs if existed else []:
            with open(path, "wb") as handle:
                handle.write(b"previous")
        before = [contents(path) for path in outs]
        weight_error = reader_error(weights)
        with contextlib.suppress(SpecFormatError):
            read_spec(spec)

        raised = []
        cmd = getattr(cli, f"cmd_{verb}")

        def recording(args, console):
            try:
                return cmd(args, console)
            except Exception as exc:
                raised.append(exc)
                raise

        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.object(cli, f"cmd_{verb}", recording), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(fuzz_argv(verb, weights, spec, *outs))
        after = [contents(path) for path in outs]
        left = [name for name in os.listdir(tmp) if name.startswith(".cwmark-")]
    err = stderr.getvalue()
    assert code in ((0, 3, 4) if verb == "extract" else (0, 2, 3))
    assert "Traceback" not in err and not left
    if code in (2, 3):
        [exc] = raised
        assert err == f"cwmark: error: {exc}\n"
    else:
        assert raised == [] and "cwmark: error:" not in err
    if code == 3:
        assert stdout.getvalue() == ""
    if code != 0:
        assert after == before
    if weight_error is None:
        assert not any(isinstance(exc, WeightFileError) for exc in raised)
    elif verb == "extract" and isinstance(weight_error, NonFiniteWeightError):
        # extract reads its spec, and checks its positions, before the pass.
        assert code == 3
        assert isinstance(raised[0], (NonFiniteWeightError, SpecFormatError, PositionRangeError))
    else:
        assert code == 3 and type(raised[0]) is type(weight_error)
        assert str(raised[0]) == str(weight_error)
    # NonFiniteWeightError exactly when numpy finds a NaN or an infinity in
    # a payload whose header holds, unless extract refused its spec or its
    # positions before the pass.
    before_pass = raised and isinstance(raised[0], (SpecFormatError, PositionRangeError))
    nonfinite = [exc for exc in raised if isinstance(exc, NonFiniteWeightError)]
    assert bool(nonfinite) == (payload_finite(blob) is False and not before_pass)


# --- entry point -------------------------------------------------------------


def child(*args, environ=os.environ, stdout=subprocess.PIPE, cwd=None):
    """A fresh interpreter run on args, importing the same package as this
    process, installed or not."""
    root = os.path.dirname(os.path.dirname(cwmark.__file__))
    path = os.pathsep.join(filter(None, [root, environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True,
        env={**environ, "PYTHONPATH": path}, cwd=cwd,
    )


def test_module_entry_point():
    proc = child("-m", "cwmark.cli", "--quiet", "params", "-k", "64", "-a", "10")
    assert proc.returncode == 0
    assert "393" in proc.stdout


PARAMS_64_10 = (
    "     k  alpha        L   capacity  tolerance  tight\n"
    "    64     10      393      64.23     0.9746    yes\n"
)


@pytest.mark.parametrize(
    "argv, code, stdout, stderr",
    [
        (["params", "-k", "64", "-a", "10"], 0, PARAMS_64_10, ""),
        (["decode", "--codeword", "0011"], 2, "",
         "cwmark decode: error: the following arguments are required: -k"),
        (["extract", "missing.cwcw", "missing.spec"], 3, "",
         "cwmark: error: [Errno 2] No such file or directory: 'missing.cwcw'"),
        (["decode", "--codeword", "0011", "-k", "2"], 4, "",
         "cwmark: range check failed: decoded index 5 does not fit in 2 bits; "
         "codeword is corrupted"),
    ],
    ids=["ok", "usage", "data", "verify"],
)
def test_package_entry_point_exit_codes(tmp_path, argv, code, stdout, stderr):
    # `python -m cwmark` is the entry the benchmark's children run.
    proc = child("-m", "cwmark", *argv, cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (code, stdout)
    assert proc.stderr.splitlines()[-1:] == ([stderr] if stderr else [])


# Runs each entry module as `python -m` would, on params; an atexit hook,
# which runs after the entry has exited, reports whether it froze the heap.
FREEZE_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: print(gc.get_freeze_count() > 0))
module = sys.argv[1]
sys.argv = ["cwmark", "params", "-k", "64", "-a", "10"]
runpy.run_module(module, run_name="__main__")
"""


@pytest.mark.parametrize("module", ["cwmark", "cwmark.cli"])
def test_process_entry_freezes_the_heap_at_exit(module):
    proc = child("-c", FREEZE_PROBE, module)
    assert proc.returncode == 0
    assert proc.stdout == PARAMS_64_10 + "True\n"


def test_main_help_still_exits_through_system_exit(capsys):
    # Only the process entry turns argparse's exit into a code.
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cwmark")


def test_main_does_not_freeze_the_heap(capsys):
    before = gc.get_freeze_count()
    assert main(["params", "-k", "64", "-a", "10"]) == 0
    assert capsys.readouterr().out == PARAMS_64_10
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv", [["params", "--grid"], ["--json", "params", "--grid"],
                                  ["--help"]], ids=["text", "json", "help"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink", ["full", "closed-pipe"])
def test_failed_stdout_exits_3_with_one_error_line(argv, unbuffered, sink):
    # Buffered (the interpreter's default), the write fails only at the
    # entry's flush; unbuffered, it fails inside the verb, or inside
    # argparse for --help.
    if sink == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("needs /dev/full")
        stdout, fault = os.open("/dev/full", os.O_WRONLY), errno.ENOSPC
    else:
        read_end, stdout = os.pipe()
        os.close(read_end)
        fault = errno.EPIPE
    environ = {name: value for name, value in os.environ.items()
               if name != "PYTHONUNBUFFERED"}
    if unbuffered:
        environ["PYTHONUNBUFFERED"] = "1"
    try:
        proc = child("-m", "cwmark", *argv, environ=environ, stdout=stdout)
    finally:
        os.close(stdout)
    message = f"cwmark: error: [Errno {fault}] {os.strerror(fault)}\n"
    assert (proc.returncode, proc.stderr) == (3, message)
