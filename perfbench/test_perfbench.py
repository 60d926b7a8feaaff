"""The benchmark's own tests, at toy sizes (--smoke).

    python3 -m pytest perfbench -q

They check that every metric BENCHMARK.json names is printed with its
unit, that the output bytes match the recorded digests, that a wrong
expected message counts as a failed operation, that one seed gives one
set of output bytes, and that the benchmark refuses to run where there
is no package to measure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# sha256 of every output file of a --smoke pass at seed 7, recorded with
# Python 3.11.7 and numpy 2.4.6 on x86-64. Output bytes must not change
# (ROADMAP: same behaviour means byte-identical output).
REFERENCE_DIGESTS = {
    "file-20m": "d3eb11ca9b3b8184c96867591710aea08fbae885aa75a59166f7b91ca666e7c4",
    "long-msg-2m": "ce6814f4247ebef019e3ee507bcff4389b818e85666c24c12ca16b1db1469fc0",
    "eval-1m": "09128047a89ba1d7ca816b1e96007f17b2106d67056a536a5c01614966294270",
}


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    detail, last = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail), json.loads(last)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    detail, last = result(run(workload, trace, "--smoke"))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0, detail["failures"]
    assert last["attempted"] >= 1
    assert detail["digest"] == REFERENCE_DIGESTS[workload]
    if not trace:
        assert detail["calibration_s"]["samples"] >= 2
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        value = last["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float)) and value["value"] > 0


@pytest.mark.parametrize("workload", ["file-20m", "long-msg-2m"])
def test_wrong_expected_message_is_a_failed_operation(workload):
    detail, last = result(run(workload, 0, "--smoke", "--break-expected"))
    assert not last["correct"]
    assert last["failed"] >= 1
    assert any("extract printed" in reason for reason in detail["failures"])


def test_same_seed_gives_same_output_bytes():
    first, _ = result(run("file-20m", 0, "--smoke"))
    second, last = result(run("file-20m", 0, "--smoke"))
    assert first["digest"] == second["digest"]
    assert second["digest_matches_earlier_run"] and last["correct"]


def test_refuses_to_run_without_the_package():
    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
