"""Command-line front end: codec utilities, embedding pipeline, attack harness.

Verbs: params, encode, decode, embed, extract, prune, noise, attack, eval.
Global flags (before the verb): --seed, --quiet, --json.

Each verb reads its inputs, makes one library call for the work (embed,
extract, prune, ...; for eval, the trial generator whose entries it
formats as CSV rows) and writes the result. The pipeline and its checks
live in the library, not here. A spec file of one codeword is a
one-block document, so extract takes one path for every spec.

Exit codes: 0 success, 2 usage error, 3 unreadable or malformed data,
4 verification failure (failed range check or failed recovery trial).

A process (`cwmark`, `python -m cwmark` or `python -m cwmark.cli`) ends
in _entry: it runs main, flushes stdout, calls gc.freeze() so the
final collection at exit skips the heap the imports and the verb made,
and exits with main's code. A stdout that fails that flush gets main's
one-line error and exit 3; so does --help, whose text argparse writes.

Messages travel as hex strings. A hex string of d digits carries k = 4d
bits: it is read as a big-endian integer whose bit t (LSB first) becomes
message bit t, and extraction prints the same hex back.

At import this module loads only codec and errors, which need no numpy.
params, encode and decode run on codec's integer core, and extract on
model_io's reader, whose pieces are binary32 memoryviews, and detect's
integer decode; none of them imports numpy. Every other data verb
imports the modules it runs, and numpy with them, when it starts. main
sets OPENBLAS_NUM_THREADS=1 unless the caller set it or numpy is already
loaded, so those verbs load OpenBLAS without a worker thread; json loads
only for a --json payload.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from contextlib import nullcontext

from . import codec
from .errors import (
    CwmarkError,
    MessageRangeError,
    PositionRangeError,
    SpecFormatError,
    WeightFileError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_VERIFY = 4

# Built-in demonstration grid: four weight choices for each of five
# message sizes, spanning pruning tolerances from 0.96 to 0.99.
DEMO_PARAM_GRID = (
    (64, 8), (64, 9), (64, 10), (64, 11),
    (128, 16), (128, 18), (128, 20), (128, 22),
    (254, 32), (254, 36), (254, 40), (254, 43),
    (512, 63), (512, 73), (512, 79), (512, 85),
    (1024, 127), (1024, 145), (1024, 159), (1024, 170),
)

CSV_HEADER = (
    "seed", "n", "sigma", "k", "alpha", "L", "design_rate", "attack_rate",
    "bit_errors", "recovered", "cutoff", "t1", "modified_count",
)


def _number(parse, ok, rule: str):
    """argparse type: parse the text, then require ok(value), else report rule."""
    noun = "a number" if parse is float else "an integer"

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(rule)
        return value

    return convert


_u64 = _number(
    lambda text: int(text, 0),
    lambda v: 0 <= v < 1 << 64,
    "value must fit in 64 unsigned bits",
)
_positive_int = _number(int, lambda v: v >= 1, "value must be >= 1")
_nonneg_int = _number(int, lambda v: v >= 0, "value must be >= 0")
_unit_rate = _number(float, lambda v: 0.0 <= v < 1.0, "rate must lie in [0, 1)")
_positive_float = _number(float, lambda v: v > 0, "value must be > 0")
_nonneg_float = _number(float, lambda v: v >= 0, "value must be >= 0")


def _rate_list(text: str) -> list[float]:
    items = [token for token in text.split(",") if token.strip()]
    if not items:
        raise argparse.ArgumentTypeError("empty rate list")
    return [_unit_rate(token.strip()) for token in items]


def _hex_message(text: str) -> str:
    body = text[2:] if text[:2].lower() == "0x" else text
    if not body:
        raise argparse.ArgumentTypeError("empty message")
    # Only ASCII hex digits: int(body, 16) would also take "_", spaces, a
    # sign and non-ASCII digits, and each would count as a digit of k.
    if set(body) - set("0123456789abcdefABCDEF"):
        raise argparse.ArgumentTypeError(f"not a hex string: {text!r}")
    return body.lower()


def _bitstring(text: str) -> str:
    if not text or set(text) - {"0", "1"}:
        raise argparse.ArgumentTypeError("codeword must be a nonempty 0/1 string")
    return text


def _hex(value: int, k: int) -> str:
    """A k-bit value as ceil(k/4) hex digits, the form a message is given in."""
    return format(value, f"0{-(-k // 4)}x")


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _word_text(word: bytearray) -> str:
    """A codeword of 0/1 bytes as a 0/1 string."""
    return bytes(word).translate(_DIGITS).decode("ascii")


class _Console:
    """stdout/JSON switchboard honoring --quiet and --json."""

    def __init__(self, args):
        self.quiet = args.quiet
        self.json = args.json
        self.payload: dict = {}

    def info(self, line: str) -> None:
        if not self.quiet and not self.json:
            print(line)

    def result(self, line: str) -> None:
        if not self.json:
            print(line)

    def put(self, **fields) -> None:
        self.payload.update(fields)

    def flush(self) -> None:
        if self.json:
            import json

            print(json.dumps(self.payload))


def _param_row(result: codec.ParamSearchResult) -> dict:
    p = result.params
    return {
        "k": p.k,
        "alpha": p.alpha,
        "L": p.L,
        "capacity_bits": round(result.capacity_bits, 2),
        "tolerance": round(result.tolerance, 4),
        "tight": result.within_upper_bound,
    }


def _print_param_rows(console: _Console, rows: list[dict]) -> None:
    console.put(rows=rows)
    if console.json:
        return
    header = f"{'k':>6} {'alpha':>6} {'L':>8} {'capacity':>10} {'tolerance':>10} {'tight':>6}"
    console.result(header)
    for row in rows:
        console.result(
            f"{row['k']:>6} {row['alpha']:>6} {row['L']:>8} "
            f"{row['capacity_bits']:>10.2f} {row['tolerance']:>10.4f} "
            f"{'yes' if row['tight'] else 'no':>6}"
        )


def cmd_params(args, console: _Console) -> int:
    if args.grid:
        rows = [_param_row(codec.find_params(k, a)) for k, a in DEMO_PARAM_GRID]
    elif args.k is None:
        raise CwmarkError("provide -k with -a or --tolerance, or use --grid")
    elif (args.alpha is None) == (args.tolerance is None):
        raise CwmarkError("provide exactly one of -a or --tolerance")
    elif args.alpha is not None:
        rows = [_param_row(codec.find_params(args.k, args.alpha))]
    else:
        rows = [_param_row(codec.find_params_for_tolerance(args.k, args.tolerance))]
    _print_param_rows(console, rows)
    return EXIT_OK


def cmd_encode(args, console: _Console) -> int:
    # codec.encode of the message's bits, on the integer it is made of:
    # the same word, with no array.
    params = codec.find_params(4 * len(args.message), args.alpha).params
    word = _word_text(codec._codeword(int(args.message, 16), params.alpha, params.L))
    console.put(k=params.k, alpha=params.alpha, L=params.L, codeword=word)
    console.info(f"k: {params.k}  alpha: {params.alpha}  L: {params.L}")
    console.result(word)
    return EXIT_OK


def cmd_decode(args, console: _Console) -> int:
    text = args.codeword
    ones = [p for p, digit in enumerate(text) if digit == "1"]
    codec._check_table(len(text), len(ones))  # before CodeParams' binomial
    params = codec.CodeParams(k=args.k, alpha=len(ones), L=len(text))
    try:
        message = _hex(codec._message_index(ones, params), params.k)
    except MessageRangeError as exc:
        print(f"cwmark: range check failed: {exc}", file=sys.stderr)
        console.put(range_ok=False)
        return EXIT_VERIFY
    console.put(message=message, k=params.k, range_ok=True)
    console.result(message)
    return EXIT_OK


def _design_from_args(args, sigma: float) -> tuple[stats.ThresholdPair, float]:
    from . import stats

    explicit = args.t0 is not None or args.t1 is not None
    if args.rate is not None and explicit:
        raise CwmarkError("--rate and --t0/--t1 are mutually exclusive")
    if explicit:
        if args.t0 is None or args.t1 is None:
            raise CwmarkError("--t0 and --t1 must be given together")
        return stats.ThresholdPair(t0=args.t0, t1=args.t1), 0.0
    if args.rate is None:
        raise CwmarkError("need --rate or an explicit --t0/--t1 pair")
    pair = stats.design_thresholds(sigma, args.rate, two_sided=args.two_sided)
    return pair, args.rate


def cmd_embed(args, console: _Console) -> int:
    spec, out = (os.path.split(p) for p in (args.spec_out, args.weights_out))
    if spec[1] == out[1] and os.path.realpath(spec[0]) == os.path.realpath(out[0]):
        raise ValueError(f"spec_out and weights_out are the same file: {args.spec_out}")
    from . import model_io, stats, watermark

    with model_io._open_weights(args.weights_in, args.weights_out) as source:
        sigma = stats._rms(source.pieces(), source.n)
        bits = codec.int_to_bits(int(args.message, 16), 4 * len(args.message))
        thresholds, rate = _design_from_args(args, sigma)

        blocked = args.block_bits is not None and args.block_bits < bits.size
        k = args.block_bits if blocked else bits.size
        params = codec.find_params(k, args.alpha).params
        receipts = watermark._embed_into(
            source, bits, args.key, thresholds, params, blocked, args.force
        )
        # Inside the block: a document it refuses, or a spec it cannot
        # write, leaves no weight file.
        doc = model_io.SpecDocument(
            specs=[r.spec for r in receipts], sigma=sigma, rate=rate,
            total_bits=int(bits.size),
        )
        model_io.write_spec(args.spec_out, doc)
    modified = sum(r.modified_count for r in receipts)
    max_pert = max(r.max_perturbation for r in receipts)

    console.put(
        modified_count=modified,
        max_perturbation=max_pert,
        sigma=sigma,
        t0=thresholds.t0,
        t1=thresholds.t1,
        blocks=len(doc.specs),
    )
    console.info(f"sigma: {sigma!r}  t0: {thresholds.t0!r}  t1: {thresholds.t1!r}")
    console.result(f"modified_count: {modified}")
    console.result(f"max_perturbation: {max_pert!r}")
    return EXIT_OK


def cmd_extract(args, console: _Console) -> int:
    from . import detect, model_io

    with model_io._open_weights(args.weights_in) as source:
        doc = model_io.read_spec(args.spec_in)
        words = detect._extract_words(source, doc.specs)
    try:
        value = detect._decode_blocks(words, doc.specs, doc.total_bits)
    except MessageRangeError:
        console.put(weight_ok=True, range_ok=False)
        for word in words:
            console.result(f"codeword: {_word_text(word)}")
        console.result("range check: failed")
        return EXIT_VERIFY
    message = _hex(value, doc.total_bits)
    console.put(
        weight_ok=True, range_ok=True, message=message, total_bits=doc.total_bits
    )
    console.info("codeword weight check: ok  range check: ok")
    console.result(message)
    return EXIT_OK


def cmd_prune(args, console: _Console) -> int:
    from . import attacks, model_io

    with model_io._open_weights(args.weights_in, args.weights_out) as source:
        report = attacks._prune_into(source, args.rate)
    console.put(
        rate=report.rate, p=report.p, cutoff=report.cutoff, zeroed=report.zeroed
    )
    console.result(f"rate: {report.rate!r}  p: {report.p}")
    console.result(f"cutoff: {report.cutoff!r}")
    console.result(f"zeroed: {report.zeroed}")
    return EXIT_OK


def cmd_noise(args, console: _Console) -> int:
    from . import attacks, model_io

    with model_io._open_weights(args.weights_in, args.weights_out) as source:
        attacks._add_noise_into(source, args.level, args.seed)
    console.put(level=args.level, seed=args.seed, n=source.n)
    console.result(f"level: {args.level!r}  seed: {args.seed}")
    return EXIT_OK


def cmd_attack(args, console: _Console) -> int:
    from . import attacks, model_io

    with model_io._open_weights(args.weights_in, args.weights_out) as source:
        touched = attacks._attack_into(source, args.budget, args.seed, args.strategy)
    console.put(strategy=args.strategy, budget=args.budget, touched=int(touched.size))
    if console.json:  # O(budget) ints: only JSON prints them
        console.put(touched_indices=touched.tolist())
    console.result(f"strategy: {args.strategy}  touched: {touched.size}")
    return EXIT_OK


def _eval_rows(args):
    """The CSV rows of stats._eval_trials: one per trial and attack rate."""
    from . import stats

    for seed, receipt, outcomes in stats._eval_trials(
        args.n, args.sigma, args.k, args.alpha, args.design_rate, args.two_sided,
        args.attack_rates, args.seed, args.trials, args.force,
    ):
        p, t1 = receipt.spec.params, repr(receipt.spec.thresholds.t1)
        trial = (seed, args.n, repr(args.sigma), p.k, p.alpha, p.L, repr(args.design_rate))
        for rate, (cutoff, errors) in zip(args.attack_rates, outcomes):
            pruned = (repr(rate), errors, "no" if errors else "yes", repr(cutoff))
            yield dict(zip(CSV_HEADER, (*trial, *pruned, t1, receipt.modified_count)))


def cmd_eval(args, console: _Console) -> int:
    import csv
    import io

    from . import model_io

    # --out is claimed before the first trial; --out "" is an error, not stdout.
    with model_io._atomic_file(args.out) if args.out is not None else nullcontext() as out:
        rows = list(_eval_rows(args))
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows([row[name] for name in CSV_HEADER] for row in rows)
        if out is not None:
            out.write(text.getvalue().encode("ascii"))
    if out is None and not console.json:
        sys.stdout.write(text.getvalue())
    protected = args.design_rate - 0.01 + 1e-12
    failures = [r for r in rows if r["recovered"] == "no" and float(r["attack_rate"]) <= protected]
    console.put(rows=rows, trials=args.trials, failures=len(failures))
    if not args.quiet:
        recovered = sum(1 for row in rows if row["recovered"] == "yes")
        print(
            f"cwmark: {recovered}/{len(rows)} recoveries, "
            f"{len(failures)} failures at protected rates",
            file=sys.stderr,
        )
    return EXIT_VERIFY if failures else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse drops a failed write of its own; to stdout (--help) it
    raises here, so main reports it as it does a verb's."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cwmark",
        description=(
            "Watermark weight vectors with constant-weight codewords that "
            "survive magnitude pruning."
        ),
    )
    parser.add_argument("--seed", type=_u64, default=0, help="master seed (default 0)")
    parser.add_argument("--quiet", action="store_true", help="suppress informational output")
    parser.add_argument("--json", action="store_true", help="emit one JSON object")
    sub = parser.add_subparsers(dest="verb", required=True, metavar="VERB")

    p = sub.add_parser("params", help="search code parameters (L, capacity, tolerance)")
    p.add_argument("-k", type=_positive_int, help="message bits")
    p.add_argument("-a", "--alpha", type=_positive_int, help="codeword weight")
    p.add_argument("--tolerance", type=_unit_rate, help="target pruning tolerance")
    p.add_argument(
        "--grid",
        "--table-1",
        dest="grid",
        action="store_true",
        help="print the built-in 20-row demonstration grid",
    )
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("encode", help="encode a hex message into a codeword")
    p.add_argument("--message", type=_hex_message, required=True, help="hex message")
    p.add_argument("-a", "--alpha", type=_positive_int, required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a 0/1 codeword back to hex")
    p.add_argument("--codeword", type=_bitstring, required=True)
    p.add_argument("-k", type=_positive_int, required=True, help="message bits")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("embed", help="embed a hex message into a weight file")
    p.add_argument("weights_in")
    p.add_argument("spec_out")
    p.add_argument("weights_out")
    p.add_argument("--message", type=_hex_message, required=True)
    p.add_argument("--key", type=_u64, required=True, help="64-bit secret key")
    p.add_argument("-a", "--alpha", type=_positive_int, required=True)
    p.add_argument("--rate", type=_unit_rate, help="design thresholds for this pruning rate")
    p.add_argument("--two-sided", action="store_true", help="rate counts |w| below t1")
    p.add_argument("--t0", type=_positive_float, help="explicit lower threshold")
    p.add_argument("--t1", type=_positive_float, help="explicit upper threshold")
    p.add_argument("--block-bits", type=_positive_int, help="split message into blocks")
    p.add_argument("--force", action="store_true", help="override the density limit")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("extract", help="recover the hex message from weights + spec")
    p.add_argument("weights_in")
    p.add_argument("spec_in")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("prune", help="zero the smallest-magnitude fraction of weights")
    p.add_argument("weights_in")
    p.add_argument("weights_out")
    p.add_argument("--rate", type=_unit_rate, required=True)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("noise", help="add seeded Gaussian noise")
    p.add_argument("weights_in")
    p.add_argument("weights_out")
    p.add_argument("--level", type=_nonneg_float, required=True, help="noise std dev")
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("attack", help="keyless bit-flip attack (suppress or inflate)")
    p.add_argument("weights_in")
    p.add_argument("weights_out")
    p.add_argument("--budget", type=_positive_int, required=True)
    p.add_argument(
        "--strategy", choices=("suppress", "inflate"), default="suppress"
    )
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("eval", help="Monte-Carlo embed/prune/extract harness (CSV)")
    p.add_argument("--trials", type=_nonneg_int, default=10)
    p.add_argument("--n", type=_positive_int, default=1_000_000)
    p.add_argument("--sigma", type=_positive_float, default=0.01)
    p.add_argument("-k", type=_positive_int, default=64)
    p.add_argument("-a", "--alpha", type=_positive_int, default=10)
    p.add_argument("--design-rate", type=_unit_rate, default=0.95)
    p.add_argument(
        "--attack-rates", type=_rate_list, default=[0.5, 0.9, 0.94],
        help="comma-separated pruning rates",
    )
    p.add_argument("--two-sided", action="store_true")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    # No verb calls BLAS, yet OpenBLAS starts a spinning worker thread when
    # numpy loads, and reads this variable only then. A caller's own value
    # wins, and a caller that already loaded numpy keeps its environment.
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = build_parser().parse_args(argv)
        console = _Console(args)
        code = args.func(args, console)
        console.flush()
    except (WeightFileError, SpecFormatError, PositionRangeError, OSError) as exc:
        print(f"cwmark: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (CwmarkError, ValueError) as exc:
        print(f"cwmark: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        reason = str(exc) or "allocation failed"
        print(f"cwmark: error: out of memory: {reason}", file=sys.stderr)
        return EXIT_USAGE
    return code


def _entry() -> None:
    """The process entry: main, then the flush, the freeze and the exit.

    argparse's own exits (--help, a usage error) take the same flush.
    After a failed flush fd 1 points at os.devnull, so the interpreter's
    own flush at exit stays silent. main does not freeze, because tests
    and library callers run it in process many times.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:
        print(f"cwmark: error: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_DATA
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    _entry()
