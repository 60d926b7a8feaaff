#!/usr/bin/env python3
"""cwmark benchmark: one run of one workload.

    python3 perfbench/run.py --workload file-20m --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the package is loaded from
src/ (no install step). Load is a closed loop with one client: this
process starts one child at a time and waits for it. With --trace 0 it
measures the end-to-end metrics on child processes; with --trace 1 it
runs perfbench/trace.py, which times every layer in process. It prints
one detail JSON line (machine, sizes, samples, digests, failures), then
as its last line {"correct", "attempted", "failed", "metrics"}. Work
files go to .perfbench_work/ in the checkout; NOTES.md has the rest.

The driver imports no numpy and never holds large arrays. On Linux a
child's ru_maxrss, as wait4 reports it, includes the high-water RSS of
the process that spawned it, so a fat driver would inflate every child's
figure; the RSS self-check below guards this.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import plan

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0
# Bare interpreter plus numpy is about 30 MB; a trivial verb must stay near it.
LEAN_RSS_MB = 64.0


class Deadline(Exception):
    """The run's time limit passed while a child was running."""


def _alarm(signum, frame):
    raise Deadline()


class Runner:
    """Spawns children one at a time and counts operations."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.spawned = 0

    def op(self, failure: str | None) -> bool:
        """Count one operation; record its failure reason, if any."""
        return self.ops(1, failure is not None, failure)

    def ops(self, attempted: int, failed: int, reason: str | None) -> bool:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(reason)
        return not failed

    def spawn(self, argv: list[str]) -> dict:
        """Run a child to completion: exit code, wall time, peak RSS, output."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Deadline()
        self.spawned += 1
        out_path = self.work / f"child{self.spawned}.out"
        err_path = self.work / f"child{self.spawned}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            actions = [
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
            ]
            start = time.perf_counter()
            pid = os.posix_spawn(argv[0], argv, self.env, file_actions=actions)
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.wait4(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
        return {
            "code": os.waitstatus_to_exitcode(status),
            "wall_s": wall,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out_path.read_text(errors="replace"),
            "stderr": err_path.read_text(errors="replace")[-400:],
        }

    def cwmark(self, argv: list[str]) -> dict:
        return self.spawn([sys.executable, "-m", "cwmark", *argv])

    def script(self, name: str, argv: list[str]) -> dict:
        return self.spawn([sys.executable, str(BENCH / name), *argv])


def machine() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": None,
        "caches": {},
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info["caches"][f"L{level}"] = size
    return info


def _cache_bytes(text: str | None) -> int | None:
    if not text:
        return None
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def summary(values: list[float]) -> dict:
    return {
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "samples": len(values),
    }


def set_up_once(runner: Runner, cfg: dict, inputs: dict, calibs: list, setups: list, outputs: set) -> None:
    """One fresh `cwmark encode` child at the workload's (k, alpha): import plus ladder build.

    Its wall time goes to `setups` as a sample for `scaled`.
    """
    child = runner.cwmark(plan.setup_argv(cfg, inputs))
    failure = (
        f"set-up encode exited {child['code']}: {child['stderr']}"
        if child["code"] else plan.check_codeword(child["stdout"], cfg["alpha"])
    )
    outputs.add(child["stdout"])
    if runner.op(failure):
        setups.append((child["wall_s"], 1, len(calibs) - 1))


def calibrate(runner: Runner, calibs: list) -> bool:
    """One calibration child (calibrate.py); appends its wall time and part times to `calibs`."""
    child = runner.script("calibrate.py", [str(runner.work)])
    if runner.op(f"calibration exited {child['code']}: {child['stderr']}" if child["code"] else None):
        calibs.append((child["wall_s"], [float(t) for t in child["stdout"].split()]))
        return True
    return False


def scaled(samples: list, calibs: list) -> list:
    """Wall times at the reference speed.

    A sample (wall, m, j) is the summed wall time of m children that ran
    between calibration children j and j + 1. Each child pays a start-up
    (interpreter, numpy import, exit) like the calibration child's, which
    is its wall time less its timed work. So m of those start-ups are
    replaced by the reference start-up, and the rest of the time is
    scaled by the reference work time over the calibration's work time.
    Start-up and work change speed separately on the reference machine.
    """
    def start_and_work(index):
        wall, parts = calibs[index]
        work = sum(parts[1:])
        return wall - work, work

    values = []
    for wall, m, j in samples:
        (s0, w0), (s1, w1) = start_and_work(j), start_and_work(j + 1)
        start, work = (s0 + s1) / 2, (w0 + w1) / 2
        values.append(
            m * plan.CALIBRATION_START_REF_S
            + (wall - m * start) * plan.CALIBRATION_WORK_REF_S / work
        )
    return values


def run_passes(runner: Runner, cfg, inputs, seconds, expected, detail) -> dict:
    """Calibration, set-up child and one pass, until `seconds` are spent; then medians.

    Set-up children are spread through the run, one before each pass,
    so that their median sees the same mix of machine states as the
    passes. A calibration child runs before each set-up child and after
    the last pass, so every set-up and pass sits between two of them.
    """
    calls = plan.cli_calls(cfg, inputs, str(runner.work), expected)
    walls = {call["verb"]: [] for call in calls}
    rss = {call["verb"]: [] for call in calls}
    pass_rss, digests = [], []
    calibs, setups, passes, setup_outputs = [], [], [], set()
    start = time.monotonic()
    if not calibrate(runner, calibs):
        return {}
    while not passes or time.monotonic() - start < seconds:
        if passes and time.monotonic() + 1.5 * max(sample[0] for sample in passes) > runner.deadline:
            break
        if passes and not calibrate(runner, calibs):
            return {}
        set_up_once(runner, cfg, inputs, calibs, setups, setup_outputs)
        children = []
        for call in calls:
            child = runner.cwmark(call["argv"])
            failure = plan.check_call(call, child["code"], child["stdout"])
            if failure and child["code"]:
                failure += f": {child['stderr'].strip()[-200:]}"
            if not runner.op(failure):
                break
            children.append(child)
        if len(children) < len(calls):
            break
        for call, child in zip(calls, children):
            walls[call["verb"]].append(child["wall_s"])
            rss[call["verb"]].append(child["rss_mb"])
        passes.append((sum(child["wall_s"] for child in children), len(children), len(calibs) - 1))
        pass_rss.append(max(child["rss_mb"] for child in children))
        digests.append(plan.file_digest(p for call in calls for p in call["outputs"]))
        if len(digests) > 1:
            runner.op(None if digests[-1] == digests[0] else "output digest changed between passes")
    if runner.failed or not calibrate(runner, calibs):
        return {}
    while len(setups) < plan.SETUP_REPEATS:
        set_up_once(runner, cfg, inputs, calibs, setups, setup_outputs)
        if runner.failed or not calibrate(runner, calibs):
            return {}
    if len(setup_outputs) > 1:
        runner.op("set-up children disagree on their output")
    if not passes:
        return {}
    setup_scaled, pass_scaled = scaled(setups, calibs), scaled(passes, calibs)
    detail["calibration_s"] = summary([wall for wall, _ in calibs])
    detail["calibration_parts_s"] = dict(zip(
        ("numpy_import", "ladder", "arrays", "file"),
        (statistics.median(column) for column in zip(*(parts for _, parts in calibs))),
    ))
    detail["setup_s"] = {"wall": summary([sample[0] for sample in setups]), "scaled": summary(setup_scaled)}
    detail["verbs"] = {
        verb: {"wall_s": summary(walls[verb]), "rss_mb": summary(rss[verb])}
        for verb in walls if walls[verb]
    }
    pass_walls = [sample[0] for sample in passes]
    detail["pass_s"] = {"wall": summary(pass_walls), "scaled": summary(pass_scaled)}
    detail["digest"] = digests[0]
    if cfg["kind"] == "eval":
        detail["eval_trials_per_s"] = cfg["trials"] * len(pass_walls) / sum(pass_walls)
    return {
        "setup_s": statistics.median(setup_scaled),
        "pass_s": statistics.median(pass_scaled),
        "peak_rss_mb": statistics.median(pass_rss),
    }


def run_trace(runner: Runner, workload, cfg, inputs, seconds, expected, detail, seed) -> dict:
    imports = []
    for _ in range(plan.SETUP_REPEATS):
        child = runner.spawn([sys.executable, "-c", "import cwmark.cli"])
        if runner.op(f"import cwmark.cli exited {child['code']}" if child["code"] else None):
            imports.append(child["wall_s"])
    task = {
        "cfg": cfg, "inputs": inputs, "expected": expected,
        "work": str(runner.work), "seconds": seconds, "seed": seed,
    }
    (runner.work / "task.json").write_text(json.dumps(task))
    out = runner.work / "trace.json"
    spans = WORK_ROOT / "results" / f"spans-{workload}-seed{seed}.json"
    child = runner.script(
        "trace.py", ["--task", str(runner.work / "task.json"), "--out", str(out), "--spans", str(spans)]
    )
    if not runner.op(f"traced run exited {child['code']}: {child['stderr']}" if child["code"] else None):
        return {}
    result = json.loads(out.read_text())
    runner.ops(result["attempted"], result["failed"], "; ".join(result["failures"]))
    detail["trace"] = {key: result[key] for key in ("self_s", "overhead", "sources", "samples", "spans")}
    detail["spans_file"] = str(spans.relative_to(ROOT))
    detail["digest"] = result["digest"]
    metrics = dict(result["metrics"])
    if imports:
        metrics["cli.import_s"] = statistics.median(imports)
    return metrics


def check_digest(runner: Runner, key: str, digest: str | None, detail: dict) -> None:
    """Same workload, seed and sizes must give the same bytes in every run of this checkout."""
    if digest is None:
        return
    store = WORK_ROOT / "digests" / f"{key}.sha256"
    store.parent.mkdir(parents=True, exist_ok=True)
    if store.exists():
        previous = store.read_text().strip()
        detail["digest_matches_earlier_run"] = previous == digest
        runner.op(None if previous == digest else f"output digest {digest} differs from an earlier run's {previous}")
    else:
        store.write_text(digest + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(plan.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the benchmark's own tests")
    parser.add_argument(
        "--break-expected", action="store_true",
        help="expect a wrong extract message (tests that failures are counted)",
    )
    args = parser.parse_args()

    if not (SRC / "cwmark" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'cwmark'}; run from a source checkout", file=sys.stderr)
        return 2
    started = time.monotonic()
    signal.signal(signal.SIGALRM, _alarm)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cfg = plan.config(args.workload, args.smoke)
    mode = "smoke" if args.smoke else "full"
    work = WORK_ROOT / f"run-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (WORK_ROOT / "results").mkdir(exist_ok=True)
    runner = Runner(work, started + RUN_LIMIT_S)

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "mode": mode, "config": cfg, "machine": machine(),
        "load": "closed loop, one client: one child process at a time",
    }
    metrics: dict = {}
    try:
        gen = runner.script("gen.py", [
            "--seed", str(args.seed), "--n", str(cfg["n"] if cfg["kind"] == "file" else 0),
            "--bits", str(cfg.get("bits", 64)),
            "--setup-bits", str(cfg.get("block_bits") or cfg.get("bits", 64)),
            "--out", str(work),
        ])
        if runner.op(f"input generator exited {gen['code']}: {gen['stderr']}" if gen["code"] else None):
            inputs = json.loads(gen["stdout"])
            detail["numpy"] = inputs["numpy"]
            detail["input_bytes"] = inputs["input_bytes"]
            l3 = _cache_bytes(detail["machine"]["caches"].get("L3"))
            share = f"{inputs['input_bytes'] / l3:.2f}x the {l3} B shared L3, " if l3 else ""
            below = "below" if l3 and inputs["input_bytes"] < 4 * l3 else "not shown below"
            detail["cache_note"] = (
                f"input payload {inputs['input_bytes']} B is {share}{below} 4x the L3; "
                "inputs and outputs are read back from the page cache (caches are never "
                "dropped), so no disk or memory-bandwidth figure is claimed"
            )
            expected = inputs["message"]
            if args.break_expected:
                expected = format(int(expected[0], 16) ^ 1, "x") + expected[1:]

            lean = runner.cwmark(["params", "-k", "64", "-a", "10"])
            detail["lean_child_rss_mb"] = lean["rss_mb"]
            runner.op(
                f"params exited {lean['code']}" if lean["code"]
                else None if lean["rss_mb"] < LEAN_RSS_MB
                else f"trivial child reports {lean['rss_mb']:.1f} MB peak RSS; the driver inflates RSS"
            )

            if args.trace:
                metrics = run_trace(runner, args.workload, cfg, inputs, args.seconds, expected, detail, args.seed)
            else:
                metrics = run_passes(runner, cfg, inputs, args.seconds, expected, detail)
            if not args.break_expected:
                check_digest(runner, f"{args.workload}-{mode}-seed{args.seed}", detail.get("digest"), detail)
    except Deadline:
        runner.op(f"run passed its {RUN_LIMIT_S:.0f} s limit")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = plan.PER_LAYER if args.trace else plan.END_TO_END
    missing = [name for name, _ in wanted if name not in metrics]
    if missing and not runner.failed:
        runner.ops(0, 1, f"metrics not measured: {missing}")
    detail["failures"] = runner.failures
    detail["elapsed_s"] = time.monotonic() - started
    with open(WORK_ROOT / "results" / f"{args.workload}-{mode}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(detail, handle, indent=1)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not runner.failed,
        "attempted": max(runner.attempted, runner.failed, 1),
        "failed": runner.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in wanted if name in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
