"""Constant-weight-code watermarking of model weight vectors.

A k-bit message maps bijectively onto a length-L binary codeword with
exactly alpha ones (enumerative coding). The codeword is projected onto
L secretly selected weights by pushing 1-positions to magnitude >= t1
and capping 0-positions at t0 < t1. Detection reads the alpha largest
magnitudes back, so the mark survives magnitude pruning up to a rate of
1 - alpha/L by design, and the thresholds are sized from the Gaussian
quantiles of the host weight distribution.

Importing the package imports none of its modules. Each name in __all__
is bound on first use (PEP 562 module __getattr__) from the module that
_HOME names. codec, errors, detect and model_io import no numpy, so the
CLI's codec verbs and its extract verb never load it. numpy is first
imported with stats, watermark, attacks or rng, by a codec function that
takes or returns arrays, or by a model_io function that does
(read_weights, write_weights) and the verbs that compute on a weight
file's pieces.
"""

from importlib import import_module

# Where each public name lives: name -> module.
_HOME = {
    name: module
    for module, names in {
        "codec": (
            "CodeParams", "ParamSearchResult", "as_bits", "binomial", "bits_to_int",
            "decode", "decode_index", "encode", "encode_index", "find_params",
            "find_params_for_tolerance", "int_to_bits",
        ),
        "errors": (
            "BadMagicError", "CapacityError", "CwmarkError", "MalformedCodewordError",
            "MessageRangeError", "NonFiniteWeightError", "PositionRangeError",
            "SelectionRatioError", "SpecFormatError", "ThresholdDesignError",
            "TrailingDataError", "TruncatedPayloadError", "UnsupportedVersionError",
            "WeightFileError",
        ),
        "detect": ("EmbedSpec", "SpecDocument", "ThresholdPair"),
        "stats": (
            "GaussianModel", "design_t1", "design_thresholds", "estimate_sigma",
            "q_function", "q_inverse", "sample_gaussian_weights", "standard_normals",
        ),
        "watermark": (
            "DENSITY_LIMIT", "EmbedReceipt", "embed", "embed_message",
            "embed_message_blocks", "extract", "extract_message",
            "extract_message_blocks", "join_blocks", "select_positions",
            "split_blocks",
        ),
        "attacks": ("PruneSpec", "add_noise", "prune", "targeted_flip_attack"),
        "model_io": ("read_spec", "read_weights", "write_spec", "write_weights"),
    }.items()
    for name in names
}
# Submodules that cwmark.<name> reaches after a bare `import cwmark`.
_MODULES = ("attacks", "codec", "detect", "errors", "model_io", "rng", "stats", "watermark")

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Bind a public name, or import a module, on its first use."""
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
