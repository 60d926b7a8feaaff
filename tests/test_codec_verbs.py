"""The codec verbs (params, encode, decode), extract's and eval's start-up,
the numpy verbs' BLAS threads, and the package's lazy exports.

The codec verbs run on codec's integer core, and extract on model_io's
byte-level reader and detect's integer decode, so a child that runs one
never imports numpy. The codec verbs' output must stay what the library's
array recipe gives: codec.encode of the message's bits, and codec.decode
of the word.
"""

import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import cwmark
from cwmark import (
    SpecDocument,
    design_thresholds,
    embed_message_blocks,
    sample_gaussian_weights,
    write_spec,
    write_weights,
)
from cwmark import codec
from cwmark.cli import DEMO_PARAM_GRID, main
from cwmark.rng import random_bits

# Runs the CLI on its arguments, if any, after `import cwmark`, and prints
# its exit code; then prints whether numpy and json were imported.
NUMPY_PROBE = """
import sys
import cwmark
if sys.argv[1:]:
    from cwmark.cli import main
    try:
        print("exit", main(sys.argv[1:]))
    except SystemExit:
        pass
print("numpy" in sys.modules, "json" in sys.modules)
"""


def child_lines(script, *argv, environ=os.environ) -> list[str]:
    """stdout lines of a fresh interpreter that runs script with argv."""
    root = os.path.dirname(os.path.dirname(cwmark.__file__))
    path = os.pathsep.join(filter(None, [root, environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True,
        env={**environ, "PYTHONPATH": path}, check=True,
    )
    return proc.stdout.splitlines()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["params", "-k", "64", "-a", "10"],
        ["--json", "params", "--grid"],
        ["params", "-k", "128", "--tolerance", "0.97"],
        ["encode", "--message", "0123456789abcdef", "-a", "10"],
        ["--json", "encode", "--message", "f" * 256, "-a", "127"],
        ["decode", "--codeword", "0110", "-k", "2"],
        ["--json", "decode", "--codeword", "0011", "-k", "2"],
        ["decode", "--codeword", "0000", "-k", "2"],
        ["--help"],
    ],
    ids=["import", "params", "params-grid", "params-tolerance", "encode",
         "encode-k1024", "decode", "decode-range-failure", "decode-weight-0", "help"],
)
def test_codec_verbs_import_no_numpy(argv):
    # Only a JSON payload needs json.
    assert child_lines(NUMPY_PROBE, *argv)[-1] == f"False {'--json' in argv}"


@pytest.fixture(scope="module")
def extract_files(tmp_path_factory):
    """A marked file, its one- and four-block specs, and faulty variants."""
    root = tmp_path_factory.mktemp("extract")
    pair = design_thresholds(0.01, 0.95, two_sided=True)
    w = sample_gaussian_weights(200_000, sigma=0.01, seed=4)
    marked, specs, _ = embed_message_blocks(w, random_bits(4, 256), 4, pair, 10, 64)
    write_weights(root / "marked.cwcw", marked)
    write_spec(root / "one.spec", SpecDocument.single(specs[0], sigma=0.01, rate=0.95))
    write_spec(root / "four.spec", SpecDocument(specs, sigma=0.01, rate=0.95, total_bits=256))
    # Ones packed at the last positions give an index >= 2**k.
    packed = marked.copy()
    packed[list(specs[0].positions)] = np.linspace(0.1, 1.0, specs[0].params.L)
    write_weights(root / "packed.cwcw", packed)
    blob = bytearray((root / "marked.cwcw").read_bytes())
    blob[-4:] = np.float32(np.nan).tobytes()
    (root / "nan.cwcw").write_bytes(blob)
    write_weights(root / "short.cwcw", marked[:50])
    text = (root / "one.spec").read_text()
    (root / "bad.spec").write_text(text.replace("\nk: 64\n", "\nk: 064\n"))
    return root


@pytest.mark.parametrize(
    "argv, code",
    [
        (["extract", "marked.cwcw", "one.spec"], 0),
        (["--json", "extract", "marked.cwcw", "one.spec"], 0),
        (["extract", "marked.cwcw", "four.spec"], 0),
        (["extract", "packed.cwcw", "one.spec"], 4),
        (["extract", "nan.cwcw", "one.spec"], 3),
        (["extract", "short.cwcw", "one.spec"], 3),
        (["extract", "marked.cwcw", "bad.spec"], 3),
    ],
    ids=["text", "json", "four-blocks", "range-failure", "nan-payload",
         "position-out-of-range", "malformed-spec"],
)
def test_extract_imports_no_numpy(extract_files, argv, code):
    paths = [str(extract_files / arg) if "." in arg else arg for arg in argv]
    lines = child_lines(NUMPY_PROBE, *paths)
    assert lines[-2:] == [f"exit {code}", f"False {'--json' in argv}"]


# The variables OpenBLAS reads for its thread count, highest priority first.
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Runs the CLI on its arguments, then prints the process's thread count and
# the OpenBLAS setting it ends with.
THREAD_PROBE = """
import os
import sys
from cwmark.cli import main
main(sys.argv[1:])
print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize(
    "argv",
    [
        ["prune", "marked.cwcw", "out.cwcw", "--rate", "0.5"],
        ["embed", "marked.cwcw", "out.spec", "out.cwcw", "--message", "ff",
         "--key", "7", "-a", "10", "--rate", "0.95", "--two-sided"],
        ["eval", "--trials", "1", "--n", "100000", "--out", "out.csv"],
    ],
    ids=["prune", "embed", "eval"],
)
def test_numpy_verbs_start_no_blas_worker(extract_files, tmp_path, argv):
    # No verb calls BLAS, so a child that loads numpy keeps to its one
    # thread unless the caller asked OpenBLAS for more.
    paths = [
        str(extract_files / arg) if arg == "marked.cwcw"
        else str(tmp_path / arg) if arg.startswith("out.") else arg
        for arg in argv
    ]
    bare = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    assert child_lines(THREAD_PROBE, *paths, environ=bare)[-1] == "1 1"
    if len(os.sched_getaffinity(0)) >= 2:
        two = {**bare, "OPENBLAS_NUM_THREADS": "2"}
        assert child_lines(THREAD_PROBE, *paths, environ=two)[-1] == "2 2"


# Draws and prunes a small vector through the library in a fresh
# interpreter, then prints the OpenBLAS setting it ends with.
LIBRARY_PROBE = """
import os
import cwmark
cwmark.prune(cwmark.sample_gaussian_weights(1000, 0.01, 1), 0.5)
print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""


def test_only_a_cli_that_loads_numpy_sets_the_blas_variable(
    extract_files, tmp_path, monkeypatch
):
    # A library import or call leaves the caller's BLAS alone, and so does
    # an in-process main once numpy is loaded.
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert child_lines(LIBRARY_PROBE) == ["None"]
    cwmark.prune(sample_gaussian_weights(1000, 0.01, 1), 0.5)
    out = str(tmp_path / "out.cwcw")
    assert main(["--quiet", "prune", str(extract_files / "marked.cwcw"), out, "--rate", "0.5"]) == 0
    assert "OPENBLAS_NUM_THREADS" not in os.environ


# Binds each export named in its arguments, then prints whether numpy was imported.
EXPORT_PROBE = """
import sys
import cwmark
for name in sys.argv[1:]:
    getattr(cwmark, name)
print("numpy" in sys.modules)
"""


@pytest.mark.parametrize("name", ["EmbedSpec", "ThresholdPair", "SpecDocument", "read_spec"])
def test_spec_exports_import_no_numpy(name):
    assert child_lines(EXPORT_PROBE, name) == ["False"]


# In a fresh interpreter, where no export is bound yet: does dir() list
# every export, does a module resolve after a bare import, and does a star
# import bind exactly __all__?
STAR_PROBE = """
import cwmark
listed = set(cwmark.__all__) <= set(dir(cwmark))
module = callable(cwmark.watermark.select_positions)
namespace = {}
exec("from cwmark import *", namespace)
del namespace["__builtins__"]
print(listed, module, sorted(namespace) == cwmark.__all__)
"""


def test_star_import_binds_exactly_all():
    assert child_lines(STAR_PROBE) == ["True True True"]
    namespace = {}
    exec("from cwmark import *", namespace)
    assert namespace["encode"] is codec.encode and cwmark.codec is codec
    assert namespace["SpecDocument"] is cwmark.model_io.SpecDocument
    assert not hasattr(cwmark, "no_such_name")


# Runs the CLI on its arguments, then prints whether the attacks module was imported.
ATTACKS_PROBE = """
import sys
from cwmark.cli import main
print("exit", main(sys.argv[1:]))
print("cwmark.attacks" in sys.modules)
"""


def test_eval_does_not_load_the_attacks():
    # eval's trial lives in stats, beside the cutoff select it drives.
    lines = child_lines(
        ATTACKS_PROBE, "--quiet", "eval", "--trials", "1", "--n", "40000", "--two-sided"
    )
    assert lines[-2:] == ["exit 0", "False"]


# Runs the CLI on its arguments, then prints which of the modules that
# some verbs never need were imported.
LOADED_PROBE = """
import sys
from cwmark.cli import main
print("exit", main(sys.argv[1:]))
skippable = {"dataclasses", "cwmark.rng", "cwmark.stats", "cwmark.watermark"}
print("loaded", *sorted(skippable & set(sys.modules)))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["params", "-k", "64", "-a", "10"],
        ["encode", "--message", "0123456789abcdef", "-a", "10"],
        ["decode", "--codeword", "0110", "-k", "2"],
        ["extract", "marked.cwcw", "one.spec"],
        ["prune", "marked.cwcw", "out.cwcw", "--rate", "0.5"],
        ["embed", "marked.cwcw", "out.spec", "out.cwcw", "--message", "ff",
         "--key", "7", "-a", "10", "--rate", "0.95", "--two-sided"],
        ["eval", "--trials", "1", "--n", "40000", "--two-sided", "--out", "out.csv"],
    ],
    ids=["params", "encode", "decode", "extract", "prune", "embed", "eval"],
)
def test_no_verb_loads_dataclasses_and_prune_loads_no_sampler(extract_files, tmp_path, argv):
    # The records build without dataclasses (which loads inspect, ast and
    # dis), and prune's pass needs neither the sampler nor the embedder.
    paths = [
        str(extract_files / arg) if arg in ("marked.cwcw", "one.spec")
        else str(tmp_path / arg) if arg.startswith("out.") else arg
        for arg in argv
    ]
    exit_line, loaded = child_lines(LOADED_PROBE, "--quiet", *paths)[-2:]
    assert exit_line == "exit 0"
    assert "dataclasses" not in loaded.split()
    if argv[0] == "prune":
        assert loaded == "loaded"


def run(capsys, *argv):
    """One CLI call as a new process makes it: each code at its first use."""
    codec._weight_rows.cache_clear()
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def word_text(word) -> str:
    return "".join(map(str, word.tolist()))


def check_encode(capsys, message, alpha):
    """encode's text and JSON against codec.encode of the message's 4d bits."""
    body = message[2:] if message[:2].lower() == "0x" else message
    k = 4 * len(body)
    params = codec.find_params(k, alpha).params
    codec._weight_rows.cache_clear()
    word = word_text(codec.encode(codec.int_to_bits(int(body, 16), k), params))
    header = f"k: {k}  alpha: {alpha}  L: {params.L}"
    argv = ["encode", "--message", message, "-a", str(alpha)]
    assert run(capsys, *argv) == (0, f"{header}\n{word}\n", "")
    assert run(capsys, "--quiet", *argv) == (0, f"{word}\n", "")
    code, out, err = run(capsys, "--json", *argv)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"k": k, "alpha": alpha, "L": params.L, "codeword": word}
    return word


def check_decode(capsys, word, k):
    """decode's text and JSON against codec.decode of the word."""
    params = codec.CodeParams(k=k, alpha=word.count("1"), L=len(word))
    codec._weight_rows.cache_clear()
    bits = codec.decode(np.frombuffer(word.encode(), dtype=np.uint8) - ord("0"), params)
    message = format(codec.bits_to_int(bits), f"0{-(-k // 4)}x")
    argv = ["decode", "--codeword", word, "-k", str(k)]
    assert run(capsys, *argv) == (0, f"{message}\n", "")
    code, out, err = run(capsys, "--json", *argv)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"message": message, "k": k, "range_ok": True}
    return message


@pytest.mark.parametrize("k, alpha", DEMO_PARAM_GRID)
def test_codec_verbs_match_the_library_on_the_grid(capsys, k, alpha):
    # A k-bit message in ceil(k/4) digits: the CLI codes it at k = 4d,
    # which is k itself except at k = 254.
    digits = -(-k // 4)
    message = format(random.Random(k * 1000 + alpha).getrandbits(k), f"0{digits}x")
    word = check_encode(capsys, message, alpha)
    assert check_decode(capsys, word, 4 * digits) == message
    # The library's word at the row's own (k, alpha), decoded at k.
    params = codec.find_params(k, alpha).params
    bits = codec.int_to_bits(int(message, 16), k)
    assert check_decode(capsys, word_text(codec.encode(bits, params)), k) == message


@pytest.mark.parametrize(
    "message, alpha",
    [("0" * 16, 10), ("f" * 16, 10), ("7", 2), ("0xDEADbeef01234567", 10)],
    ids=["all-zero", "all-f", "one-digit", "0x-prefix"],
)
def test_codec_verbs_match_the_library_on_edge_messages(capsys, message, alpha):
    word = check_encode(capsys, message, alpha)
    body = message[2:] if message[:2].lower() == "0x" else message
    assert check_decode(capsys, word, 4 * len(body)) == body.lower()


def test_decode_failures_match_the_library(capsys):
    # Ones at the high positions: an index past 2**k, the library's
    # MessageRangeError, exit 4. Weight 0 is no code: exit 2.
    params = codec.CodeParams(k=2, alpha=2, L=4)
    with pytest.raises(cwmark.MessageRangeError) as exc:
        codec.decode(np.array([0, 0, 1, 1], dtype=np.uint8), params)
    argv = ["decode", "--codeword", "0011", "-k", "2"]
    assert run(capsys, *argv) == (4, "", f"cwmark: range check failed: {exc.value}\n")
    assert run(capsys, "--json", *argv) == (
        4, '{"range_ok": false}\n', f"cwmark: range check failed: {exc.value}\n"
    )
    code, out, err = run(capsys, "decode", "--codeword", "0000", "-k", "2")
    assert (code, out) == (2, "")
    assert err == "cwmark: error: alpha must satisfy 1 <= alpha <= L\n"


def test_decode_refuses_a_code_past_the_table_limit_before_its_binomial(capsys, monkeypatch):
    # binomial(131071, 65536) takes about 0.2 s; decode refuses the code on
    # its table size alone, as read_spec does, before any big-integer work.
    def refused(n, r):
        raise AssertionError(f"binomial({n}, {r}) computed")

    monkeypatch.setattr(codec, "binomial", refused)
    word = "1" * 65536 + "0" * 65535
    code, out, err = run(capsys, "decode", "--codeword", word, "-k", "8")
    assert (code, out) == (2, "")
    assert err == "cwmark: error: coding table for L=131071, alpha=65536 is past the 256 MiB limit\n"


@pytest.mark.parametrize("k, alpha, L", [(2, 2, 4), (64, 10, 393)])
def test_range_check_at_the_boundary(capsys, k, alpha, L):
    # Index 2**k - 1 is the largest message; 2**k is the first corrupted word.
    params = codec.CodeParams(k=k, alpha=alpha, L=L)
    top, past = (word_text(codec.encode_index(v, alpha, L)) for v in (2**k - 1, 2**k))
    assert check_decode(capsys, top, k) == format(2**k - 1, "x")
    with pytest.raises(cwmark.MessageRangeError):
        codec.decode(codec.encode_index(2**k, alpha, L), params)
    code, out, err = run(capsys, "decode", "--codeword", past, "-k", str(k))
    assert (code, out) == (4, "") and err.startswith("cwmark: range check failed: ")
