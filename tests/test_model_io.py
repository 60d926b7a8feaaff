"""Weight-file and spec-file formats: bit-exact, byte-deterministic, strict."""

import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwmark import (
    BadMagicError,
    CodeParams,
    EmbedSpec,
    NonFiniteWeightError,
    PositionRangeError,
    SpecDocument,
    SpecFormatError,
    ThresholdPair,
    TrailingDataError,
    TruncatedPayloadError,
    UnsupportedVersionError,
    WeightFileError,
    extract,
    read_spec,
    read_weights,
    sample_gaussian_weights,
    write_spec,
    write_weights,
)
from cwmark import model_io
from cwmark.cli import main
from cwmark.watermark import _PIECE

PAIR = ThresholdPair(t0=0.008224268134757361, t1=0.016448536269514722)


def make_doc(blocks=1, k=8, alpha=3, L=16, n=5000):
    params = CodeParams(k=k, alpha=alpha, L=L)
    specs = []
    for j in range(blocks):
        positions = tuple(range(j * L * 2, j * L * 2 + L))
        specs.append(
            EmbedSpec(key=42, params=params, thresholds=PAIR, positions=positions)
        )
    total = (blocks - 1) * k + max(1, k - 1) if blocks > 1 else k
    return SpecDocument(specs=tuple(specs), sigma=0.01, rate=0.95, total_bits=total)


# --- weight files ------------------------------------------------------------


def test_weights_roundtrip_large_bit_identical(tmp_path):
    w = sample_gaussian_weights(1_000_000, sigma=0.7, seed=5)
    path = tmp_path / "w.cwcw"
    write_weights(path, w)
    back = read_weights(path)
    assert back.dtype == np.float32
    assert np.array_equal(back.view(np.uint32), w.view(np.uint32))
    assert os.path.getsize(path) == 14 + 4 * w.size


def test_weights_preserve_negative_zero(tmp_path):
    w = np.array([-0.0, 0.0, 1.5], dtype=np.float32)
    path = tmp_path / "w.cwcw"
    write_weights(path, w)
    back = read_weights(path)
    assert np.array_equal(back.view(np.uint32), w.view(np.uint32))


def test_weights_byte_layout_little_endian(tmp_path):
    path = tmp_path / "w.cwcw"
    write_weights(path, np.array([1.0, -2.0], dtype=np.float32))
    blob = path.read_bytes()
    assert blob == b"CWCW" + struct.pack("<HQ", 1, 2) + struct.pack("<2f", 1.0, -2.0)


def swapped_payload(blob):
    """blob with each 4-byte weight after the 14-byte header reversed."""
    return blob[:14] + np.frombuffer(blob[14:], dtype="<u4").byteswap().tobytes()


def test_weights_swap_bytes_once_per_side(tmp_path, monkeypatch):
    # With the big-endian host's swap forced on, the writer reverses each
    # weight's bytes once and the reader once, in write_weights and
    # read_weights as in a streamed verb.
    w = sample_gaussian_weights(_PIECE + 5, sigma=0.01, seed=3)
    plain, swapped = tmp_path / "plain.cwcw", tmp_path / "swapped.cwcw"
    plain_pruned, swapped_pruned = tmp_path / "plain.pruned", tmp_path / "swapped.pruned"
    write_weights(plain, w)
    assert main(["prune", str(plain), str(plain_pruned), "--rate", "0.5"]) == 0
    monkeypatch.setattr(model_io, "_SWAP", True)
    write_weights(swapped, w)
    assert swapped.read_bytes() == swapped_payload(plain.read_bytes())
    assert np.array_equal(read_weights(swapped).view(np.uint32), w.view(np.uint32))
    assert main(["prune", str(swapped), str(swapped_pruned), "--rate", "0.5"]) == 0
    assert swapped_pruned.read_bytes() == swapped_payload(plain_pruned.read_bytes())


def test_weights_byte_deterministic(tmp_path):
    w = sample_gaussian_weights(100, sigma=1.0, seed=1)
    a, b = tmp_path / "a", tmp_path / "b"
    write_weights(a, w)
    write_weights(b, w)
    assert a.read_bytes() == b.read_bytes()


def test_weights_bad_magic(tmp_path):
    path = tmp_path / "w.cwcw"
    write_weights(path, np.ones(3, dtype=np.float32))
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagicError):
        read_weights(path)


def test_weights_bad_version(tmp_path):
    path = tmp_path / "w.cwcw"
    blob = b"CWCW" + struct.pack("<HQ", 2, 1) + struct.pack("<f", 1.0)
    path.write_bytes(blob)
    with pytest.raises(UnsupportedVersionError):
        read_weights(path)


def test_weights_truncated_payload(tmp_path):
    path = tmp_path / "w.cwcw"
    blob = b"CWCW" + struct.pack("<HQ", 1, 100) + b"\x00" * (4 * 50)
    path.write_bytes(blob)
    with pytest.raises(TruncatedPayloadError):
        read_weights(path)
    path.write_bytes(b"CWC")
    with pytest.raises(TruncatedPayloadError):
        read_weights(path)


def test_weights_huge_declared_count_refused_before_allocation(tmp_path):
    path = tmp_path / "w.cwcw"
    path.write_bytes(b"CWCW" + struct.pack("<HQ", 1, 2**60))
    with pytest.raises(TruncatedPayloadError):
        read_weights(path)


def test_weights_short_read_is_truncation(tmp_path, monkeypatch):
    # The file shrinks after its size was taken: the read comes up short.
    path = tmp_path / "w.cwcw"
    path.write_bytes(b"CWCW" + struct.pack("<HQ", 1, 10) + b"\x00" * 20)
    real_fstat = os.fstat

    def stale_fstat(fd):
        st = real_fstat(fd)
        return os.stat_result((*st[:6], 14 + 40, *st[7:]))

    monkeypatch.setattr(os, "fstat", stale_fstat)
    with pytest.raises(TruncatedPayloadError):
        read_weights(path)


def test_weights_trailing_data(tmp_path):
    path = tmp_path / "w.cwcw"
    write_weights(path, np.ones(2, dtype=np.float32))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(TrailingDataError):
        read_weights(path)


@pytest.mark.parametrize("index", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_weights_nonfinite_rejected_both_ways(tmp_path, bad, index):
    values = np.array([1.0, -2.0, 0.5, -0.25, 3.0], dtype=np.float32)
    values[index] = bad
    path = tmp_path / "w.cwcw"
    with pytest.raises(ValueError, match="finite"):
        write_weights(path, values)
    assert not path.exists()
    path.write_bytes(b"CWCW" + struct.pack("<HQ", 1, 5) + values.astype("<f4").tobytes())
    with pytest.raises(NonFiniteWeightError):
        read_weights(path)


def test_weights_empty_rejected_both_ways(tmp_path):
    path = tmp_path / "w.cwcw"
    with pytest.raises(ValueError):
        write_weights(path, np.zeros(0, dtype=np.float32))
    path.write_bytes(b"CWCW" + struct.pack("<HQ", 1, 0))
    with pytest.raises(WeightFileError):
        read_weights(path)


def test_weights_parse_errors_are_distinct_and_grouped():
    kinds = [
        BadMagicError,
        UnsupportedVersionError,
        TruncatedPayloadError,
        TrailingDataError,
    ]
    for kind in kinds:
        assert issubclass(kind, WeightFileError)
    assert len({id(k) for k in kinds}) == len(kinds)


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(
        st.floats(width=32, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=64,
    )
)
def test_weights_roundtrip_property(tmp_path_factory, values):
    w = np.array(values, dtype=np.float32)
    path = tmp_path_factory.mktemp("rt") / "w.cwcw"
    write_weights(path, w)
    back = read_weights(path)
    assert np.array_equal(back.view(np.uint32), w.view(np.uint32))


def test_weights_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "w.cwcw"
    write_weights(path, np.ones(4, dtype=np.float32))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.cwcw"]
    with pytest.raises(OSError):
        write_weights(tmp_path / "missing" / "w.cwcw", np.ones(4, dtype=np.float32))


# --- spec files --------------------------------------------------------------


def test_spec_roundtrip_single_block(tmp_path):
    doc = make_doc()
    path = tmp_path / "s.spec"
    write_spec(path, doc)
    assert read_spec(path) == doc


def test_spec_thresholds_roundtrip_exact_binary64(tmp_path):
    doc = make_doc()
    path = tmp_path / "s.spec"
    write_spec(path, doc)
    back = read_spec(path)
    assert back.spec.thresholds.t0 == PAIR.t0
    assert back.spec.thresholds.t1 == PAIR.t1
    assert back.sigma == doc.sigma and back.rate == doc.rate


def test_spec_roundtrip_multi_block(tmp_path):
    doc = make_doc(blocks=3)
    path = tmp_path / "s.spec"
    write_spec(path, doc)
    back = read_spec(path)
    assert back == doc
    text = path.read_text()
    assert "positions.0:" in text and "positions.2:" in text


def test_spec_byte_deterministic(tmp_path):
    doc = make_doc(blocks=2)
    a, b = tmp_path / "a", tmp_path / "b"
    write_spec(a, doc)
    write_spec(b, doc)
    assert a.read_bytes() == b.read_bytes()


def edit_spec(tmp_path, transform):
    doc = make_doc()
    path = tmp_path / "s.spec"
    write_spec(path, doc)
    path.write_text(transform(path.read_text()))
    return path


def test_spec_duplicate_field(tmp_path):
    path = edit_spec(tmp_path, lambda t: t + "k: 8\n")
    with pytest.raises(SpecFormatError):
        read_spec(path)


def test_spec_missing_field(tmp_path):
    path = edit_spec(
        tmp_path, lambda t: "\n".join(
            line for line in t.splitlines() if not line.startswith("alpha:")
        ) + "\n"
    )
    with pytest.raises(SpecFormatError):
        read_spec(path)


def test_spec_unknown_field(tmp_path):
    path = edit_spec(tmp_path, lambda t: t + "mystery: 1\n")
    with pytest.raises(SpecFormatError):
        read_spec(path)


def test_spec_malformed_line(tmp_path):
    path = edit_spec(tmp_path, lambda t: t + "no separator here\n")
    with pytest.raises(SpecFormatError):
        read_spec(path)


def test_spec_wrong_format_tag(tmp_path):
    path = edit_spec(
        tmp_path, lambda t: t.replace("cwmark-spec/1", "cwmark-spec/9")
    )
    with pytest.raises(SpecFormatError):
        read_spec(path)


def test_spec_inverted_thresholds_rejected(tmp_path):
    def swap(text):
        lines = []
        for line in text.splitlines():
            if line.startswith("t0:"):
                line = f"t0: {PAIR.t1!r}"
            elif line.startswith("t1:"):
                line = f"t1: {PAIR.t0!r}"
            lines.append(line)
        return "\n".join(lines) + "\n"

    path = edit_spec(tmp_path, swap)
    with pytest.raises(ValueError):
        read_spec(path)


def test_spec_position_beyond_weights_fails_at_use(tmp_path):
    doc = make_doc()
    spec_path = tmp_path / "s.spec"
    write_spec(spec_path, doc)
    back = read_spec(spec_path)
    short = np.zeros(10, dtype=np.float32)
    with pytest.raises(PositionRangeError):
        extract(short, back.spec)


def test_spec_document_validation():
    doc = make_doc(blocks=2)
    with pytest.raises(ValueError):
        SpecDocument(specs=(), sigma=0.01, rate=0.5, total_bits=8)
    with pytest.raises(ValueError):
        SpecDocument(specs=doc.specs, sigma=0.0, rate=0.5, total_bits=doc.total_bits)
    with pytest.raises(ValueError):
        SpecDocument(specs=doc.specs, sigma=0.01, rate=1.0, total_bits=doc.total_bits)
    with pytest.raises(ValueError):
        SpecDocument(specs=doc.specs, sigma=0.01, rate=0.5, total_bits=99)
    overlapping = (doc.specs[0], doc.specs[0])
    with pytest.raises(ValueError):
        SpecDocument(specs=overlapping, sigma=0.01, rate=0.5, total_bits=doc.total_bits)
    with pytest.raises(ValueError):
        doc.spec  # multi-block document has no single spec
    assert make_doc().spec is not None


def test_spec_atomicity_and_clean_directory(tmp_path):
    doc = make_doc()
    write_spec(tmp_path / "s.spec", doc)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.spec"]
