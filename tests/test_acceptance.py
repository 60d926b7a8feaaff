"""Acceptance gate: the package's quantitative claims, one verdict each.

Each test computes its criterion outcome, prints an "A<n>: PASS/FAIL" line
(also echoed into the pytest terminal summary via conftest), and asserts it.
Stated runtime budgets are asserted alongside correctness.
"""

import time

import numpy as np

import reference as ref
from conftest import record_acceptance
from cwmark import (
    BadMagicError,
    CodeParams,
    EmbedSpec,
    SpecDocument,
    ThresholdPair,
    TrailingDataError,
    TruncatedPayloadError,
    decode,
    design_thresholds,
    embed,
    encode,
    extract,
    find_params,
    prune,
    q_function,
    q_inverse,
    read_spec,
    read_weights,
    sample_gaussian_weights,
    select_positions,
    write_spec,
    write_weights,
)
from cwmark.codec import decode_index, encode_index
from cwmark.rng import random_bits, splitmix64_stream

# The published 20-row parameter grid: (k, alpha, L, tolerance to 4 d.p.).
PUBLISHED_GRID = (
    (64, 8, 972, "0.9918"),
    (64, 9, 583, "0.9846"),
    (64, 10, 393, "0.9746"),
    (64, 11, 288, "0.9618"),
    (128, 16, 1757, "0.9909"),
    (128, 18, 1063, "0.9831"),
    (128, 20, 722, "0.9723"),
    (128, 22, 533, "0.9587"),
    (254, 32, 3307, "0.9903"),
    (254, 36, 2011, "0.9821"),
    (254, 40, 1373, "0.9709"),
    (254, 43, 1090, "0.9606"),
    (512, 63, 6858, "0.9908"),
    (512, 73, 3693, "0.9802"),
    (512, 79, 2780, "0.9716"),
    (512, 85, 2196, "0.9613"),
    (1024, 127, 12955, "0.9902"),
    (1024, 145, 7443, "0.9805"),
    (1024, 159, 5350, "0.9703"),
    (1024, 170, 4323, "0.9607"),
)


def report(tag: str, ok: bool, detail: str) -> None:
    line = f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    record_acceptance(line)
    assert ok, line


def test_a1_published_parameter_grid():
    start = time.perf_counter()
    mismatches = []
    for k, alpha, want_l, want_tol in PUBLISHED_GRID:
        result = find_params(k, alpha)
        got_l = result.params.L
        got_tol = f"{result.tolerance:.4f}"
        if got_l != want_l or got_tol != want_tol:
            mismatches.append((k, alpha, want_l, got_l))
    elapsed = time.perf_counter() - start
    for k, alpha, want_l, got_l in mismatches:
        alt = find_params(256, alpha).params.L
        note = (
            f"a k=256 search gives exactly {alt}"
            if alt == want_l
            else f"a k=256 search gives {alt}, still off by {want_l - alt}"
        )
        print(
            f"A1 analysis: (k={k}, alpha={alpha}) published L={want_l}, "
            f"computed {got_l}; {note}"
        )
    if mismatches:
        print(
            "A1 analysis: the four k=254 rows are reproducible only with "
            "k=256 (and the alpha=40 row is one position above even that), "
            "so the published group appears to have been computed at k=256 "
            "with one arithmetic slip; no search rule reproduces all 20 "
            "rows at the printed k values."
        )
    report(
        "A1",
        not mismatches and elapsed < 5.0,
        f"{20 - len(mismatches)}/20 published rows reproduced, "
        f"{elapsed:.2f}s (budget 5s)",
    )


def test_a2_codec_bijection_and_roundtrip():
    start = time.perf_counter()
    bad = 0
    for row_index, (k, alpha, length, _) in enumerate(PUBLISHED_GRID):
        params = CodeParams(k=k, alpha=alpha, L=length)
        for seed in splitmix64_stream(7000 + row_index, 10_000):
            message = random_bits(int(seed), k)
            if not np.array_equal(decode(encode(message, params), params), message):
                bad += 1
                break
    exhaustive_ok = True
    for length in range(1, 13):
        for alpha in range(1, length + 1):
            pairs = ref.enumerate_codewords(length, alpha)
            for position, (index, word) in enumerate(pairs):
                if index != position:
                    exhaustive_ok = False
                if not np.array_equal(encode_index(index, alpha, length), word):
                    exhaustive_ok = False
                if decode_index(word, alpha) != index:
                    exhaustive_ok = False
    elapsed = time.perf_counter() - start
    report(
        "A2",
        bad == 0 and exhaustive_ok and elapsed < 30.0,
        f"10^4 roundtrips x 20 parameter sets, exhaustive bijection to L=12, "
        f"{elapsed:.1f}s (budget 30s)",
    )


def _prune_recovery_trials(two_sided: bool, master_seed: int):
    sigma = 0.01
    params = CodeParams(k=64, alpha=10, L=393)
    pair = design_thresholds(sigma, 0.95, two_sided=two_sided)
    rates = (0.5, 0.8, 0.9, 0.94)
    recovered = dict.fromkeys(rates, 0)
    bit_errors = dict.fromkeys(rates, 0)
    for trial_seed in splitmix64_stream(master_seed, 100):
        weight_seed, key, message_seed = splitmix64_stream(int(trial_seed), 3).tolist()
        weights = sample_gaussian_weights(1_000_000, sigma, weight_seed)
        message = random_bits(message_seed, 64)
        codeword = encode(message, params)
        positions = select_positions(key, 1_000_000, 393)
        spec = EmbedSpec(
            key=key, params=params, thresholds=pair, positions=tuple(positions)
        )
        marked, _ = embed(weights, codeword, spec)
        for rate in rates:
            pruned, _ = prune(marked, rate)
            errors = int(np.count_nonzero(extract(pruned, spec) != codeword))
            bit_errors[rate] += errors
            recovered[rate] += errors == 0
    return recovered, bit_errors


def test_a3_pruning_immunity_monte_carlo():
    start = time.perf_counter()
    two_sided_rec, two_sided_err = _prune_recovery_trials(True, 31)
    one_sided_rec, one_sided_err = _prune_recovery_trials(False, 32)
    elapsed = time.perf_counter() - start
    print(
        "A3 analysis: one-sided t1 = sigma*Qinv(0.05) sits below the attack "
        "cutoff once the rate passes 0.9, so only the two-sided design can "
        "meet the 100% target at rates 0.9/0.94. One-sided results recorded, "
        "not asserted, at those rates: "
        + ", ".join(
            f"rate {rate}: {one_sided_rec[rate]}/100 recovered "
            f"({one_sided_err[rate]} bit errors)"
            for rate in (0.9, 0.94)
        )
    )
    two_sided_ok = all(two_sided_rec[r] == 100 for r in (0.5, 0.8, 0.9, 0.94))
    two_sided_ok &= all(two_sided_err[r] == 0 for r in (0.5, 0.8, 0.9, 0.94))
    one_sided_ok = all(
        one_sided_rec[r] == 100 and one_sided_err[r] == 0 for r in (0.5, 0.8)
    )
    report(
        "A3",
        two_sided_ok and one_sided_ok and elapsed < 120.0,
        "two-sided 100% recovery and 0 bit errors at rates "
        f"{{0.5, 0.8, 0.9, 0.94}}, one-sided likewise at {{0.5, 0.8}}, "
        f"100 trials each, {elapsed:.0f}s (budget 120s)",
    )


def test_a4_exactness_without_attack():
    start = time.perf_counter()
    params = find_params(16, 6).params
    pair = ThresholdPair(t0=0.5, t1=2.0)
    n = 3000
    failures = 0
    seeds = splitmix64_stream(41, 1000)
    for i, seed in enumerate(seeds):
        key, message_seed, host_seed = splitmix64_stream(int(seed), 3).tolist()
        message = random_bits(message_seed, 16)
        host = ("gauss", "zeros", "equal", "alternating")[i % 4]
        if host == "gauss":
            rng = np.random.default_rng(host_seed)
            weights = rng.normal(0, 1, n).astype(np.float32)
        elif host == "zeros":
            weights = np.zeros(n, dtype=np.float32)
        elif host == "equal":
            weights = np.full(n, 0.7, dtype=np.float32)
        else:
            weights = (0.3 * (-1.0) ** np.arange(n)).astype(np.float32)
        positions = select_positions(key, n, params.L)
        spec = EmbedSpec(
            key=key, params=params, thresholds=pair, positions=tuple(positions)
        )
        codeword = encode(message, params)
        marked, _ = embed(weights, codeword, spec)
        if not np.array_equal(extract(marked, spec), codeword):
            failures += 1
    elapsed = time.perf_counter() - start
    report(
        "A4",
        failures == 0 and elapsed < 10.0,
        f"10^3 (weights, message, key) triples incl. all-zero/all-equal/"
        f"alternating hosts, {failures} failures, {elapsed:.1f}s (budget 10s)",
    )


def test_a5_threshold_numerics():
    low = np.logspace(-8.99, np.log10(0.4), 350)
    mid = np.linspace(0.4, 0.6, 300)
    high = 1.0 - np.logspace(-8.99, np.log10(0.4), 350)
    grid = np.concatenate([low, mid, high])
    worst = max(abs(q_function(q_inverse(float(p))) - float(p)) for p in grid)
    center = abs(q_inverse(0.5))
    report(
        "A5",
        worst <= 1e-10 and center <= 1e-12,
        f"max |Q(Qinv(p)) - p| = {worst:.2e} over {grid.size} grid points "
        f"(tol 1e-10), |Qinv(0.5)| = {center:.1e} (tol 1e-12)",
    )


def test_a6_pruning_statistics():
    sigma = 0.01
    weights = sample_gaussian_weights(1_000_000, sigma=sigma, seed=61)
    worst_frac = 0.0
    worst_cut = 0.0
    for rate in (0.5, 0.9, 0.99):
        pruned, spec = prune(weights, rate)
        frac = spec.zeroed / weights.size
        oracle = sigma * ref.normal_quantile_tail((1.0 - rate) / 2.0)
        worst_frac = max(worst_frac, abs(frac - rate))
        worst_cut = max(worst_cut, abs(spec.cutoff - oracle) / oracle)
    report(
        "A6",
        worst_frac <= 0.005 and worst_cut <= 0.02,
        f"pruned-fraction error <= {worst_frac:.4f} (tol 0.005), cutoff vs "
        f"quadrature quantile oracle within {worst_cut * 100:.2f}% (tol 2%)",
    )


def test_a7_serialization(tmp_path):
    weights = sample_gaussian_weights(100_000, sigma=0.01, seed=71)
    wpath = tmp_path / "w.cwcw"
    write_weights(wpath, weights)
    weights_ok = np.array_equal(
        read_weights(wpath).view(np.uint32), weights.view(np.uint32)
    )

    params = CodeParams(k=16, alpha=6, L=26)
    pair = ThresholdPair(t0=0.005, t1=0.01)
    spec = EmbedSpec(
        key=99,
        params=params,
        thresholds=pair,
        positions=tuple(select_positions(99, 100_000, 26)),
    )
    doc = SpecDocument.single(spec, sigma=0.01, rate=0.95)
    spath = tmp_path / "s.spec"
    write_spec(spath, doc)
    spec_ok = read_spec(spath) == doc

    blob = wpath.read_bytes()
    corrupted = {
        "bad magic": (b"XXXX" + blob[4:], BadMagicError),
        "truncated payload": (blob[:-8], TruncatedPayloadError),
        "trailing data": (blob + b"\x00\x00", TrailingDataError),
    }
    raised = {}
    for name, (data, _) in corrupted.items():
        bad_path = tmp_path / "bad.cwcw"
        bad_path.write_bytes(data)
        try:
            read_weights(bad_path)
        except Exception as exc:
            raised[name] = type(exc)
    errors_ok = all(
        raised.get(name) is expected for name, (_, expected) in corrupted.items()
    )
    distinct_ok = len(set(raised.values())) == len(corrupted)
    report(
        "A7",
        weights_ok and spec_ok and errors_ok and distinct_ok,
        "weight and spec files roundtrip bit-identical; bad magic, "
        "truncation, and trailing data raise three distinct errors",
    )


def test_a8_property_suite_inventory():
    import test_attacks
    import test_codec
    import test_model_io
    import test_stats
    import test_watermark

    modules = (test_codec, test_stats, test_watermark, test_attacks, test_model_io)
    properties = []
    for module in modules:
        found = []
        for name, fn in vars(module).items():
            if name.startswith("test_") and hasattr(fn, "hypothesis"):
                settings = getattr(fn, "_hypothesis_internal_use_settings", None)
                examples = settings.max_examples if settings else 0
                found.append((name, examples))
        properties.append((module.__name__, found))
    for module_name, found in properties:
        for name, examples in found:
            print(f"A8 inventory: {module_name}.{name}: {examples} cases")
    every_module_covered = all(found for _, found in properties)
    enough_cases = all(
        examples >= 100 for _, found in properties for _, examples in found
    )
    total = sum(len(found) for _, found in properties)
    report(
        "A8",
        every_module_covered and enough_cases and total >= 5,
        f"{total} property tests across {len(modules)} library modules, "
        "each >= 100 cases, running in this same suite",
    )
