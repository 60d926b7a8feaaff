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


def record_values() -> dict:
    """Field values, in order, of one instance of each record class."""
    params = cwmark.CodeParams(8, 3, 16)
    pair = cwmark.ThresholdPair(0.01, 0.02)
    spec = cwmark.EmbedSpec(42, params, pair, tuple(range(16)))
    return {
        "CodeParams": (64, 10, 393),
        "ParamSearchResult": (params, 0.8125, 8.8, False),
        "ThresholdPair": (0.01, 0.02),
        "EmbedSpec": (42, params, pair, tuple(range(16))),
        "SpecDocument": ((spec,), 0.01, 0.95, 8),
        "GaussianModel": (0.01,),
        "EmbedReceipt": (spec, 5, 0.25),
        "PruneSpec": (0.5, 10, 0.125, 10),
    }


RECORDS = list(record_values())

# The text that a frozen dataclass prints for these two records.
RECORD_REPRS = {
    "CodeParams": "CodeParams(k=64, alpha=10, L=393)",
    "ThresholdPair": "ThresholdPair(t0=0.01, t1=0.02)",
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_frozen_values(name):
    values = record_values()
    cls, fields = getattr(cwmark, name), values[name]
    record = cls(*fields)
    by_name = cls(**dict(zip(cls.__match_args__, fields)))
    assert record == by_name and hash(record) == hash(by_name)
    assert [getattr(record, field) for field in cls.__match_args__] == list(fields)
    other = RECORDS[(RECORDS.index(name) + 1) % len(RECORDS)]
    assert record != getattr(cwmark, other)(*values[other])
    assert record != fields and fields != record
    first = cls.__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(record, first, fields[0])
    with pytest.raises(AttributeError):
        delattr(record, first)
    with pytest.raises(TypeError):
        cls(*fields[:-1])
    assert record == by_name  # nothing above changed it
    if name in RECORD_REPRS:
        assert repr(record) == RECORD_REPRS[name]
