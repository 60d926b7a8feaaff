"""Traced run: per-layer spans, self times and tracemalloc peaks for one workload.

    python3 perfbench/trace.py --task TASK.json --out RESULT.json --spans SPANS.json

run.py --trace 1 starts this child. It drives the workload in process,
calling cli.main(argv) with the same argv and inputs as the untraced
run; the package is not edited. Timing wrappers go on the public
functions in TRACED, in every cwmark.* namespace that binds them, so
spans follow whatever the CLI really calls.

Passes alternate untraced and traced until --seconds are spent. The
tracing overhead is the median ratio of each traced pass to the
untraced pass before it, minus one. One more pass runs under
tracemalloc, for memory peaks only; its timings are not used. Before
every verb call the codec's ladder cache is cleared, as a fresh CLI
process would find it. A listed function that the workload never calls
is timed by a probe at reference size (n = 1M, the grid's first row per
k); the result says which source each metric came from.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

from cwmark import attacks, cli, codec, model_io, rng, stats, watermark

import plan

MODULES = {
    "cli": cli, "codec": codec, "rng": rng, "stats": stats,
    "watermark": watermark, "attacks": attacks, "model_io": model_io,
}
TRACED = (
    "cli.main",
    "codec.find_params", "codec.encode", "codec.decode",
    "rng.splitmix64_stream", "rng.random_bits",
    "stats.sample_gaussian_weights", "stats.estimate_sigma", "stats.design_thresholds",
    "watermark.select_positions", "watermark.embed", "watermark.embed_message",
    "watermark.embed_message_blocks", "watermark.extract",
    "attacks.prune",
    "model_io.read_weights", "model_io.write_weights",
    "model_io.read_spec", "model_io.write_spec",
)
SPAN_FIELDS = ("name", "key", "start_ns", "end_ns", "parent", "request", "phase", "bytes")
PROBE_N = 1_000_000
PROBE_REPEATS = 5
# rng.splitmix64_stream_s times bulk draws (a sampler's), not the few-word
# draws behind random_bits and per-trial seeds.
BULK_DRAWS = 4096


class Tracer:
    """Installs wrappers and records spans (mode "time") or tracemalloc peaks ("mem")."""

    def __init__(self):
        self.mode = None
        self.phase = "pass"
        self.request = 0
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.mem_stack: list[list[int]] = []
        self.peaks: dict[tuple[str, str], int] = {}
        self.seen: set[tuple[int, int]] = set()
        self.verb = "main"
        self.bindings = []
        for name in TRACED:
            layer, attr = name.split(".")
            original = getattr(MODULES[layer], attr)
            wrapper = self._wrap(name, original)
            for module_name, module in list(sys.modules.items()):
                if module_name == "cwmark" or module_name.startswith("cwmark."):
                    for bound, value in list(vars(module).items()):
                        if value is original:
                            self.bindings.append((module, bound, original, wrapper))

    def install(self) -> None:
        for module, bound, _, wrapper in self.bindings:
            setattr(module, bound, wrapper)

    def uninstall(self) -> None:
        for module, bound, original, _ in self.bindings:
            setattr(module, bound, original)

    def fresh_process(self) -> None:
        """Forget ladders and seen code geometries, as a new CLI process would."""
        self.next_request()
        self.seen.clear()
        rows = getattr(codec, "_weight_rows", None)
        if hasattr(rows, "cache_clear"):
            rows.cache_clear()

    def next_request(self) -> None:
        self.request += 1

    def key(self, name: str, args, kwargs) -> str:
        """Metric key of one call: adds k, L, cold or the verb where they matter."""
        if name in ("codec.encode", "codec.decode"):
            params = args[1] if len(args) > 1 else kwargs["params"]
            geometry = (params.k, params.alpha)
            if geometry not in self.seen:
                self.seen.add(geometry)
                return f"{name}_cold"
            return f"{name}_k{params.k}"
        if name == "rng.splitmix64_stream":
            count = args[1] if len(args) > 1 else kwargs["count"]
            return name if count >= BULK_DRAWS else f"{name}_small"
        if name == "watermark.select_positions":
            return f"{name}_L{args[2] if len(args) > 2 else kwargs['l']}"
        if name == "cli.main":
            return f"cli.{self.verb}"
        return name

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.mode is None:
                return fn(*args, **kwargs)
            key = tracer.key(name, args, kwargs)
            if tracer.mode == "mem":
                return tracer._mem_call(key, fn, args, kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, key, 0, 0, parent, tracer.request, tracer.phase, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                tracer.stack.pop()
                if name.startswith("model_io."):
                    with contextlib.suppress(OSError):
                        span[7] = os.path.getsize(args[0])

        return wrapper

    def _mem_call(self, key, fn, args, kwargs):
        """Peak traced bytes above the level at entry, nested calls included."""
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self.mem_stack:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        frame = [base, base]
        self.mem_stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self.mem_stack.pop()
            top = max(frame[1], tracemalloc.get_traced_memory()[1])
            if self.mem_stack:
                self.mem_stack[-1][1] = max(self.mem_stack[-1][1], top)
            slot = (self.phase, key)
            self.peaks[slot] = max(self.peaks.get(slot, 0), top - base)


class Workload:
    """One pass of the workload, checked; counts operations and failures."""

    def __init__(self, task: dict, tracer: Tracer):
        self.task = task
        self.cfg = task["cfg"]
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.calls = plan.cli_calls(self.cfg, task["inputs"], task["work"], task["expected"])

    def op(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.failures.append(reason)

    def run_pass(self) -> float:
        start = time.perf_counter()
        for call in self.calls:
            self.tracer.fresh_process()
            self.tracer.verb = call["verb"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(call["argv"])
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
            self.op(plan.check_call(call, code, out.getvalue()))
        wall = time.perf_counter() - start
        digest = plan.file_digest(p for call in self.calls for p in call["outputs"])
        if self.digests:
            self.op(None if digest == self.digests[0] else "output digest changed between passes")
        self.digests.append(digest)
        return wall


def probe_calls(tracer: Tracer, work: str, seed: int) -> dict:
    """metric key -> (set-up, call) at reference size, for keys a workload never reaches."""
    n = PROBE_N
    weights = stats.sample_gaussian_weights(n, plan.SIGMA, seed)
    params = codec.find_params(64, 10).params
    pair = stats.design_thresholds(plan.SIGMA, float(plan.DESIGN_RATE), two_sided=True)
    message = rng.random_bits(seed, 64)
    long_message = rng.random_bits(seed ^ 1, 256)
    spec = watermark.EmbedSpec(
        key=seed, params=params, thresholds=pair,
        positions=tuple(watermark.select_positions(seed, n, params.L)),
    )
    word = codec.encode(message, params)
    doc = model_io.SpecDocument.single(spec, sigma=plan.SIGMA, rate=float(plan.DESIGN_RATE))
    weight_path = os.path.join(work, "probe.cwcw")
    spec_path = os.path.join(work, "probe.spec")
    model_io.write_weights(weight_path, weights)
    model_io.write_spec(spec_path, doc)

    calls = {
        "codec.find_params": (lambda: None, lambda: codec.find_params(64, 10)),
        "codec.encode_cold": (tracer.fresh_process, lambda: codec.encode(message, params)),
        "rng.splitmix64_stream": (lambda: None, lambda: rng.splitmix64_stream(seed, 2 * ((n + 1) // 2))),
        "stats.sample_gaussian_weights": (lambda: None, lambda: stats.sample_gaussian_weights(n, plan.SIGMA, seed)),
        "stats.estimate_sigma": (lambda: None, lambda: stats.estimate_sigma(weights)),
        "watermark.select_positions_L393": (lambda: None, lambda: watermark.select_positions(seed, n, 393)),
        "watermark.select_positions_L12955": (
            lambda: None, lambda: watermark.select_positions(seed, n, 12955, allow_dense=True)
        ),
        "watermark.embed": (lambda: None, lambda: watermark.embed(weights, word, spec)),
        "watermark.embed_message": (
            lambda: None, lambda: watermark.embed_message(weights, message, seed, pair, params)
        ),
        "watermark.embed_message_blocks": (
            lambda: None,
            lambda: watermark.embed_message_blocks(weights, long_message, seed, pair, alpha=10, k_block=64),
        ),
        "watermark.extract": (lambda: None, lambda: watermark.extract(weights, spec)),
        "attacks.prune": (lambda: None, lambda: attacks.prune(weights, 0.9)),
        "model_io.read_weights": (lambda: None, lambda: model_io.read_weights(weight_path)),
        "model_io.write_weights": (lambda: None, lambda: model_io.write_weights(weight_path, weights)),
        "model_io.read_spec": (lambda: None, lambda: model_io.read_spec(spec_path)),
        "model_io.write_spec": (lambda: None, lambda: model_io.write_spec(spec_path, doc)),
    }
    for k in plan.GRID_KS:
        alpha = next(a for kk, a in cli.DEMO_PARAM_GRID if kk == k)
        grid_params = codec.find_params(k, alpha).params
        grid = {"message": rng.random_bits(seed ^ k, k)}

        def warm(p=grid_params, g=grid):
            g["word"] = codec.encode(g["message"], p)  # builds the ladder, untraced
            tracer.seen.add((p.k, p.alpha))

        calls[f"codec.encode_k{k}"] = (warm, lambda p=grid_params, g=grid: codec.encode(g["message"], p))
        calls[f"codec.decode_k{k}"] = (warm, lambda p=grid_params, g=grid: codec.decode(g["word"], p))
    return calls


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--task", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    with open(args.task) as handle:
        task = json.load(handle)

    tracer = Tracer()
    workload = Workload(task, tracer)
    untraced, traced = [], []
    start = time.monotonic()
    while not traced or time.monotonic() - start < task["seconds"]:
        untraced.append(workload.run_pass())
        tracer.install()
        tracer.mode = "time"
        traced.append(workload.run_pass())
        tracer.mode = None
        tracer.uninstall()

    tracer.install()
    tracemalloc.start()
    tracer.mode = "mem"
    workload.run_pass()
    tracer.mode = None
    tracemalloc.stop()

    reached = {span[1] for span in tracer.spans}
    tracer.phase = "probe"
    calls = probe_calls(tracer, task["work"], task["seed"])
    for key in plan.TIMED:
        if key not in reached:
            set_up, call = calls[key]
            for _ in range(PROBE_REPEATS):
                set_up()
                tracer.next_request()
                tracer.mode = "time"
                call()
                tracer.mode = None
    tracemalloc.start()
    for key in plan.TRACED_MB.values():
        if ("pass", key) not in tracer.peaks:
            set_up, call = calls[key]
            set_up()
            tracer.mode = "mem"
            call()
            tracer.mode = None
    tracemalloc.stop()
    tracer.uninstall()

    metrics, sources, samples = {}, {}, {}
    durations = defaultdict(lambda: defaultdict(list))
    for span in tracer.spans:
        durations[span[1]][span[6]].append(span[3] - span[2])
    for key in plan.TIMED:
        source = "pass" if durations[key]["pass"] else "probe"
        metrics[f"{key}_s"] = statistics.median(durations[key][source]) / 1e9
        sources[f"{key}_s"] = source
        samples[f"{key}_s"] = len(durations[key][source])
    for name, key in plan.TRACED_MB.items():
        source = "pass" if ("pass", key) in tracer.peaks else "probe"
        metrics[name] = tracer.peaks[(source, key)] / 2**20
        sources[name] = source
    for name, verb in (("model_io.bytes_read", "model_io.read_"), ("model_io.bytes_written", "model_io.write_")):
        for source, passes in (("pass", len(traced)), ("probe", PROBE_REPEATS)):
            total = sum(s[7] or 0 for s in tracer.spans if s[6] == source and s[0].startswith(verb))
            if total:
                metrics[name] = total / passes
                sources[name] = source
                break
    metrics["trace.untraced_pass_s"] = statistics.median(untraced)
    metrics["trace.traced_pass_s"] = statistics.median(traced)

    self_ns = defaultdict(int)
    child_ns = defaultdict(int)
    for span in tracer.spans:
        if span[6] == "pass" and span[4] >= 0:
            child_ns[span[4]] += span[3] - span[2]
    for index, span in enumerate(tracer.spans):
        if span[6] == "pass":
            self_ns[span[0].split(".")[0]] += span[3] - span[2] - child_ns[index]
    self_s = {layer: self_ns[layer] / 1e9 / len(traced) for layer in MODULES}
    top_ns = sum(s[3] - s[2] for s in tracer.spans if s[6] == "pass" and s[4] < 0)
    self_s["outside_spans"] = sum(traced) / len(traced) - top_ns / 1e9 / len(traced)

    with open(args.spans, "w") as handle:
        json.dump({"fields": SPAN_FIELDS, "spans": tracer.spans}, handle)
    result = {
        "attempted": workload.attempted,
        "failed": workload.failed,
        "failures": workload.failures,
        "digest": workload.digests[0],
        "metrics": metrics,
        "sources": sources,
        "samples": samples,
        "self_s": self_s,
        "spans": len(tracer.spans),
        "overhead": {
            "untraced_pass_s": untraced,
            "traced_pass_s": traced,
            "share": statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0,
        },
    }
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
