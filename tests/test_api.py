"""The public API as a checked contract: the exported names, and the
callables that scripts outside the package (the benchmark) use by name."""

import importlib

import pytest

import cwmark

PUBLIC = [
    "BadMagicError", "CapacityError", "CodeParams", "CwmarkError",
    "DENSITY_LIMIT", "EmbedReceipt", "EmbedSpec", "GaussianModel",
    "MalformedCodewordError", "MessageRangeError", "NonFiniteWeightError",
    "ParamSearchResult", "PositionRangeError", "PruneSpec",
    "SelectionRatioError", "SpecDocument", "SpecFormatError",
    "ThresholdDesignError", "ThresholdPair", "TrailingDataError",
    "TruncatedPayloadError", "UnsupportedVersionError", "WeightFileError",
    "add_noise", "as_bits", "binomial", "bits_to_int", "decode",
    "decode_index", "design_t1", "design_thresholds", "embed",
    "embed_message", "embed_message_blocks", "encode", "encode_index",
    "estimate_sigma", "extract", "extract_message", "extract_message_blocks",
    "find_params", "find_params_for_tolerance", "int_to_bits", "join_blocks",
    "prune", "q_function", "q_inverse", "read_spec", "read_weights",
    "sample_gaussian_weights", "select_positions", "split_blocks",
    "standard_normals", "targeted_flip_attack", "write_spec", "write_weights",
]

# Callables the benchmark scripts in perfbench/ wrap, probe or call by name.
BENCHMARK_CALLS = [
    "cli.main",
    "codec.find_params", "codec.encode", "codec.decode",
    "rng.splitmix64_stream", "rng.random_bits", "rng.u64_to_unit",
    "stats.sample_gaussian_weights", "stats.estimate_sigma", "stats.design_thresholds",
    "watermark.select_positions", "watermark.embed", "watermark.embed_message",
    "watermark.embed_message_blocks", "watermark.extract", "watermark.EmbedSpec",
    "attacks.prune",
    "model_io.read_weights", "model_io.write_weights",
    "model_io.read_spec", "model_io.write_spec", "model_io.SpecDocument.single",
]


def test_all_is_pinned():
    assert cwmark.__all__ == PUBLIC
    for name in PUBLIC:
        assert hasattr(cwmark, name), name


@pytest.mark.parametrize("name", BENCHMARK_CALLS)
def test_benchmark_callables_resolve(name):
    module, *attrs = name.split(".")
    target = importlib.import_module(f"cwmark.{module}")
    for attr in attrs:
        target = getattr(target, attr)
    assert callable(target)


def test_cli_demo_grid_has_twenty_rows():
    from cwmark import cli

    assert len(cli.DEMO_PARAM_GRID) == 20
    assert {k for k, _ in cli.DEMO_PARAM_GRID} == {64, 128, 254, 512, 1024}
