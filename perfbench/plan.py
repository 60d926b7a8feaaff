"""Workloads, CLI call plans, output checks and metric names.

Shared by the driver (run.py) and the traced run (trace.py). Standard
library only: the driver imports this module and must stay free of
numpy, see run.py.
"""

from __future__ import annotations

import csv
import hashlib
import os

SIGMA = 0.01
DESIGN_RATE = "0.95"
ATTACK_RATES = "0.5,0.8,0.9,0.94"
SETUP_REPEATS = 3
# The calibration child's (calibrate.py) start-up time and work time at
# the reference speed, about their medians on the reference machine
# (NOTES.md, "Speed calibration"). setup_s and pass_s are reported at that
# speed. They only set the scale, so they must never change.
CALIBRATION_START_REF_S = 0.22
CALIBRATION_WORK_REF_S = 0.60

# Each workload stresses different layers; NOTES.md says which and why.
WORKLOADS = {
    # Owner's file workflow at model scale: weight I/O, pruning, sigma
    # estimate and whole-vector copies; block path, codec nearly idle.
    "file-20m": {
        "kind": "file", "n": 20_000_000, "bits": 256, "alpha": 10,
        "block_bits": 64, "prune_rate": "0.9",
    },
    # One 1024-bit codeword: ladder build, 12955-step selection and the
    # 12955-position spec dominate; weight I/O is light.
    "long-msg-2m": {
        "kind": "file", "n": 2_000_000, "bits": 1024, "alpha": 127,
        "block_bits": None, "prune_rate": None,
    },
    # Monte-Carlo harness: sampler, rng and in-memory pruning, no file I/O.
    "eval-1m": {
        "kind": "eval", "n": 1_000_000, "bits": 64, "alpha": 10, "trials": 20,
    },
}

# --smoke: toy sizes for the benchmark's own tests. Same code paths; the
# long message shrinks to 256 bits so the toy vector meets the density limit.
SMOKE = {
    "file-20m": {"n": 200_000},
    "long-msg-2m": {"n": 400_000, "bits": 256, "alpha": 32},
    "eval-1m": {"n": 50_000, "trials": 2},
}

END_TO_END = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
]

GRID_KS = (64, 128, 254, 512, 1024)
SELECT_LS = (393, 12955)
TIMED = (
    ["codec.find_params", "codec.encode_cold"]
    + [f"codec.encode_k{k}" for k in GRID_KS]
    + [f"codec.decode_k{k}" for k in GRID_KS]
    + ["rng.splitmix64_stream", "stats.sample_gaussian_weights", "stats.estimate_sigma"]
    + [f"watermark.select_positions_L{l}" for l in SELECT_LS]
    + [
        "watermark.embed", "watermark.embed_message",
        "watermark.embed_message_blocks", "watermark.extract", "attacks.prune",
        "model_io.read_weights", "model_io.write_weights",
        "model_io.read_spec", "model_io.write_spec",
    ]
)
# tracemalloc peaks; codec.ladder_mb is the peak of the cold encode.
TRACED_MB = {
    "codec.ladder_mb": "codec.encode_cold",
    "model_io.read_weights_mb": "model_io.read_weights",
    "model_io.write_weights_mb": "model_io.write_weights",
    "stats.estimate_sigma_mb": "stats.estimate_sigma",
    "watermark.embed_mb": "watermark.embed",
    "watermark.embed_message_blocks_mb": "watermark.embed_message_blocks",
    "attacks.prune_mb": "attacks.prune",
}
PER_LAYER = (
    [("cli.import_s", "s")]
    + [(f"{name}_s", "s") for name in TIMED]
    + [(name, "MB") for name in TRACED_MB]
    + [("model_io.bytes_read", "B"), ("model_io.bytes_written", "B")]
    + [("trace.untraced_pass_s", "s"), ("trace.traced_pass_s", "s")]
)


def config(workload: str, smoke: bool) -> dict:
    cfg = dict(WORKLOADS[workload])
    if smoke:
        cfg.update(SMOKE[workload])
    return cfg


def cli_calls(cfg: dict, inputs: dict, work: str, expected: str) -> list[dict]:
    """The verb calls of one pass of a CLI workload, in order.

    `expected` is the hex that extract must print; the driver passes the
    embedded message. Each call lists the files it writes, for digests.
    """
    def path(name):
        return os.path.join(work, name)

    if cfg["kind"] == "eval":
        out = path("eval.csv")
        argv = [
            "--seed", str(inputs["eval_seed"]), "eval",
            "--trials", str(cfg["trials"]), "--n", str(cfg["n"]),
            "-k", str(cfg["bits"]), "-a", str(cfg["alpha"]),
            "--design-rate", DESIGN_RATE, "--two-sided",
            "--attack-rates", ATTACK_RATES, "--out", out,
        ]
        rows = cfg["trials"] * len(ATTACK_RATES.split(","))
        return [{"verb": "eval", "argv": argv, "csv_rows": rows, "outputs": [out]}]

    spec, marked = path("mark.spec"), path("marked.cwcw")
    embed = [
        "embed", path("in.cwcw"), spec, marked,
        "--message", inputs["message"], "--key", str(inputs["key"]),
        "-a", str(cfg["alpha"]), "--rate", DESIGN_RATE, "--two-sided",
    ]
    if cfg["block_bits"] is not None:
        embed += ["--block-bits", str(cfg["block_bits"])]
    calls = [{"verb": "embed", "argv": embed, "outputs": [spec, marked]}]
    target = marked
    if cfg["prune_rate"] is not None:
        target = path("pruned.cwcw")
        calls.append({
            "verb": "prune",
            "argv": ["prune", marked, target, "--rate", cfg["prune_rate"]],
            "outputs": [target],
        })
    calls.append({
        "verb": "extract",
        "argv": ["--quiet", "extract", target, spec],
        "expect": expected + "\n",
        "outputs": [],
    })
    return calls


def setup_argv(cfg: dict, inputs: dict) -> list[str]:
    """`cwmark encode` at the workload's (k, alpha): builds the ladder once."""
    return ["--quiet", "encode", "--message", inputs["setup_message"], "-a", str(cfg["alpha"])]


def check_call(call: dict, code: int, stdout: str) -> str | None:
    """None when the call succeeded, else why it counts as a failed operation."""
    if code != 0:
        return f"{call['verb']} exited {code}"
    if "expect" in call and stdout != call["expect"]:
        return f"{call['verb']} printed {stdout.strip()[:80]!r}, expected {call['expect'].strip()[:80]!r}"
    if "csv_rows" in call:
        with open(call["outputs"][0], newline="") as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != call["csv_rows"]:
            return f"eval wrote {len(rows)} rows, expected {call['csv_rows']}"
        lost = [r for r in rows if r["recovered"] != "yes" or r["bit_errors"] != "0"]
        if lost:
            return f"eval lost the mark in {len(lost)} rows at protected rates"
    return None


def check_codeword(stdout: str, alpha: int) -> str | None:
    word = stdout.strip()
    if not word or set(word) - {"0", "1"} or word.count("1") != alpha:
        return f"encode printed {word[:40]!r}, not a weight-{alpha} codeword"
    return None


def file_digest(paths) -> str:
    """sha256 over the named files' bytes, in order, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as handle:
            while chunk := handle.read(1 << 20):
                digest.update(chunk)
    return digest.hexdigest()
