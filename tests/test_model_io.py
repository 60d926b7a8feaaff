"""Weight-file and spec-file formats: bit-exact, byte-deterministic, strict."""

import errno
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwmark import (
    BadMagicError,
    CapacityError,
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
    design_thresholds,
    embed_message,
    extract,
    find_params,
    read_spec,
    read_weights,
    sample_gaussian_weights,
    write_spec,
    write_weights,
)
from cwmark import codec, model_io
from cwmark.cli import main
from cwmark.rng import random_bits
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
    # put takes any C-contiguous buffer of native binary32 values.
    buffers = tmp_path / "buffers.cwcw"
    with model_io._weight_writer(buffers, w.size) as put:
        put(w[:_PIECE].view(np.uint32))
        put(memoryview(w[_PIECE:]))
    assert buffers.read_bytes() == swapped_payload(plain.read_bytes())


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


# The binary32 patterns whose top byte, 0x7F or 0xFF, holds a sign and
# seven set exponent bits: NaN and the infinities have the eighth set too,
# and the finite ones do not.
TOP_BYTE_PATTERNS = {
    "+inf": 0x7F800000, "-inf": 0xFF800000,
    "+quiet-nan": 0x7FC00000, "-quiet-nan": 0xFFC00000,
    "+signalling-nan": 0x7F800001, "-signalling-nan": 0xFFBFFFFF,
    "flt-max": 0x7F7FFFFF, "-flt-max": 0xFF7FFFFF,
    "0x7f000000": 0x7F000000, "0xff000000": 0xFF000000,
}
# The first, a middle and the last weight of a full piece, then of a short last one.
SPOTS = {
    "full-first": 0, "full-middle": _PIECE // 2, "full-last": _PIECE - 1,
    "short-first": _PIECE, "short-middle": _PIECE + 2, "short-last": _PIECE + 4,
}


@pytest.fixture(scope="module")
def marked_file_and_spec(tmp_path_factory):
    """A weight file of a full piece and 5 weights, with one codeword marked."""
    root = tmp_path_factory.mktemp("marked")
    pair = design_thresholds(0.01, 0.95, two_sided=True)
    w = sample_gaussian_weights(_PIECE + 5, sigma=0.01, seed=8)
    marked, receipt = embed_message(w, random_bits(8, 64), 8, pair, find_params(64, 10).params)
    write_weights(root / "m.cwcw", marked)
    write_spec(root / "m.spec", SpecDocument.single(receipt.spec, sigma=0.01, rate=0.95))
    return (root / "m.cwcw").read_bytes(), root / "m.spec"


@pytest.mark.parametrize("spot", SPOTS)
@pytest.mark.parametrize("pattern", TOP_BYTE_PATTERNS)
def test_byte_level_finiteness_check_on_the_top_byte_patterns(
    capsys, tmp_path, marked_file_and_spec, pattern, spot
):
    # read_weights and extract refuse exactly the payloads that numpy finds
    # a NaN or an infinity in, wherever in a piece the pattern sits; so do
    # write_weights and extract on the payload as an array, which take the
    # same byte-level test.
    blob, spec = marked_file_and_spec
    blob = bytearray(blob)
    struct.pack_into("<I", blob, 14 + 4 * SPOTS[spot], TOP_BYTE_PATTERNS[pattern])
    path = tmp_path / "w.cwcw"
    path.write_bytes(blob)
    payload = np.frombuffer(bytes(blob[14:]), dtype="<f4")
    finite = bool(np.isfinite(payload).all())
    if finite:
        assert read_weights(path).view(np.uint32).tolist() == payload.view("<u4").tolist()
        write_weights(tmp_path / "a.cwcw", payload)
        assert (tmp_path / "a.cwcw").read_bytes() == blob
        assert extract(payload, read_spec(spec).spec).sum() == 10
    else:
        with pytest.raises(NonFiniteWeightError):
            read_weights(path)
        for refused in (
            lambda: write_weights(tmp_path / "a.cwcw", payload),
            lambda: extract(payload, read_spec(spec).spec),
        ):
            with pytest.raises(ValueError, match="^weight vector must be finite$"):
                refused()
        assert not (tmp_path / "a.cwcw").exists()
    code = main(["extract", str(path), str(spec)])
    out, err = capsys.readouterr()
    assert (code == 3) == (not finite)
    if not finite:
        assert (out, err) == ("", "cwmark: error: payload contains NaN or infinity\n")


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


def test_failed_replace_names_the_given_path_and_leaves_no_temp_file(tmp_path, monkeypatch):
    # os.replace names the temp file too; the error names the given path.
    def refuse(src, dst):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), src, dst)

    monkeypatch.setattr(model_io.os, "replace", refuse)
    path = tmp_path / "w.cwcw"
    with pytest.raises(PermissionError) as info:
        write_weights(path, np.ones(4, dtype=np.float32))
    assert info.value.errno == errno.EACCES
    assert info.value.filename == str(path) and info.value.filename2 is None
    assert os.listdir(tmp_path) == []


def test_write_over_a_symlink_to_a_directory_replaces_the_link(tmp_path):
    # os.replace does not follow a link at the destination, so neither
    # does the refusal of an output that is a directory.
    (tmp_path / "adir").mkdir()
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "adir")
    write_weights(link, np.ones(4, dtype=np.float32))
    assert not link.is_symlink() and read_weights(link).tolist() == [1.0] * 4
    assert os.listdir(tmp_path / "adir") == []


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


def numpy_scalar_doc(sigma, rate, thresholds, key, k, alpha, L):
    """A one-block document built from the given scalars as they are."""
    params = CodeParams(k=k, alpha=alpha, L=L)
    spec = EmbedSpec(key=key, params=params, thresholds=thresholds, positions=range(16))
    return SpecDocument.single(spec, sigma, rate)


def float_values(doc):
    return [float(v) for v in (doc.sigma, doc.rate, *doc.spec.thresholds)]


PLAIN = dict(sigma=0.01, rate=0.95, thresholds=PAIR, key=42, k=8, alpha=3, L=16)


@pytest.mark.parametrize(
    "scalars, same_bytes",
    [
        (dict(sigma=np.float64(0.01), rate=np.float64(0.95),
              thresholds=design_thresholds(np.float64(0.01), 0.95)), True),
        (dict(thresholds=ThresholdPair(t0=np.float32(PAIR.t0), t1=np.float32(PAIR.t1))),
         False),
        (dict(key=np.uint64(42), k=np.int64(8), alpha=np.int64(3), L=np.int64(16)), True),
    ],
    ids=["float64", "float32", "integer"],
)
def test_spec_numpy_scalars_roundtrip(tmp_path, scalars, same_bytes):
    # A header value may be a numpy scalar, as sigma = np.std(w) is: it is
    # written as the plain number it holds, so it reads back as that same
    # binary64 value, not as one that merely rounds to it in binary32. A
    # binary64 or integer scalar gives the bytes of the Python-scalar document.
    doc = numpy_scalar_doc(**{**PLAIN, **scalars})
    path, plain = tmp_path / "numpy.spec", tmp_path / "plain.spec"
    write_spec(path, doc)
    write_spec(plain, numpy_scalar_doc(**PLAIN))
    back = read_spec(path)
    assert back == doc
    assert float_values(back) == float_values(doc)
    assert (path.read_bytes() == plain.read_bytes()) == same_bytes


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


def test_spec_comments_and_blank_lines_read_back_equal(tmp_path):
    path = edit_spec(
        tmp_path,
        lambda t: "# a comment\n\n" + t.replace("\nk:", "\n  # indented\n\t\nk:") + "\n",
    )
    assert read_spec(path) == make_doc()


def changed(*drop, **values):
    """A spec edit: drop the fields named in drop, give the others values."""
    def edit(text):
        lines = []
        for line in text.splitlines(keepends=True):
            name = line.partition(":")[0]
            if name not in drop:
                lines.append(f"{name}: {values[name]}\n" if name in values else line)
        return "".join(lines)
    return edit


def test_spec_without_blocks_and_total_bits_is_one_block_of_k_bits(tmp_path):
    path = edit_spec(tmp_path, changed("blocks", "total_bits"))
    assert read_spec(path) == make_doc()


@pytest.mark.parametrize(
    "edit, message",
    [
        (changed("key", format="cwmark-spec/2"),
         "unknown format 'cwmark-spec/2', expected 'cwmark-spec/1'"),
        (changed("alpha"), "missing field 'alpha'"),
        (changed("k", L="x"), "missing field 'k'"),
        (changed(t1="x"), "field 't1': not a number: 'x'"),
        (changed(blocks="0", total_bits="x"), "blocks must be >= 1, got 0"),
        (changed(total_bits="8.0"), "field 'total_bits': not a decimal integer: '8.0'"),
        (changed("positions"), "missing field 'positions'"),
        (changed(positions=""), "field 'positions': empty position list"),
        (changed(positions="0 x1"), "field 'positions': not a decimal integer: 'x1'"),
        (lambda t: t + "positions.0: 1\n", "unknown fields: ['positions.0']"),
    ],
    ids=["format-first", "missing", "missing-before-malformed", "float",
         "blocks-before-total-bits", "int", "missing-positions", "empty-positions",
         "position-token", "unknown"],
)
def test_spec_error_names_the_first_fault_in_file_order(tmp_path, edit, message):
    path = edit_spec(tmp_path, edit)
    with pytest.raises(SpecFormatError) as err:
        read_spec(path)
    assert str(err.value) == message


SIXTEEN = [str(i) for i in range(16)]


@pytest.mark.parametrize(
    "edit, message",
    [
        (changed(key="+42"), "field 'key': not a decimal integer: '+42'"),
        (changed(key="4_2"), "field 'key': not a decimal integer: '4_2'"),
        (changed(k="0_8"), "field 'k': not a decimal integer: '0_8'"),
        (changed(alpha="0_0_3"), "field 'alpha': not a decimal integer: '0_0_3'"),
        (changed(blocks="+1"), "field 'blocks': not a decimal integer: '+1'"),
        (changed(sigma="0.0_1"), "field 'sigma': not a number: '0.0_1'"),
        (changed(sigma="+0.01"), "field 'sigma': not a number: '+0.01'"),
        (changed(rate="9.5e-0_1"), "field 'rate': not a number: '9.5e-0_1'"),
        (changed(positions=" ".join(SIXTEEN[:15] + ["+15"])),
         "field 'positions': not a decimal integer: '+15'"),
        (changed(positions=" ".join(["0_0"] + SIXTEEN[1:])),
         "field 'positions': not a decimal integer: '0_0'"),
        (changed(positions=" ".join(["0", "x1", "+2"] + SIXTEEN[3:])),
         "field 'positions': not a decimal integer: 'x1'"),
        (changed(k="08"), "field 'k': not a decimal integer: '08'"),
        (changed(key="0_7"), "field 'key': not a decimal integer: '0_7'"),
        (changed(total_bits="+7"), "field 'total_bits': not a decimal integer: '+7'"),
        (changed(positions=" ".join(["-0"] + SIXTEEN[1:])),
         "field 'positions': not a decimal integer: '-0'"),
        (changed(positions=" ".join(SIXTEEN[:15] + ["015"])),
         "field 'positions': not a decimal integer: '015'"),
    ],
    ids=["int-plus", "int-underscore", "k-underscore", "int-underscores", "blocks-plus",
         "float-underscore", "float-plus", "exponent-underscore", "position-plus",
         "position-underscore", "position-first-fault", "k-leading-zero", "key-underscore",
         "total-bits-plus", "position-minus-zero", "position-leading-zero"],
)
def test_spec_refuses_number_forms_write_spec_never_writes(tmp_path, edit, message):
    # int() takes '_' separators, a leading '+', leading zeros and '-0', and
    # float() the first two; an int of the spec must read back as its text.
    path = edit_spec(tmp_path, edit)
    with pytest.raises(SpecFormatError) as err:
        read_spec(path)
    assert str(err.value) == message


@pytest.mark.parametrize("token", ["08", "-0", "+7", "0_7", "x"])
def test_long_position_list_names_its_refused_last_token(tmp_path, token):
    # A list parses in one pass; a refused token sends it through the
    # per-token parse, which names the token as a short list does.
    positions = " ".join([*map(str, range(12954)), token])
    path = edit_spec(tmp_path, changed(positions=positions))
    with pytest.raises(SpecFormatError) as err:
        read_spec(path)
    assert str(err.value) == f"field 'positions': not a decimal integer: {token!r}"


def test_spec_float_exponent_keeps_its_sign(tmp_path):
    path = edit_spec(tmp_path, changed(sigma="1e+16", rate="9.5e-01"))
    doc = make_doc()
    assert read_spec(path) == SpecDocument(doc.specs, 1e16, doc.rate, doc.total_bits)


def test_spec_past_the_table_limit_is_refused_before_its_binomial(tmp_path, monkeypatch, capsys):
    # binomial(200000, 100000) has about 200,000 bits; read_spec and extract
    # refuse the code on its table size alone, before any big-integer work.
    def refused(n, r):
        raise AssertionError(f"binomial({n}, {r}) computed")

    big_l = 200_000
    path = edit_spec(
        tmp_path,
        changed(k="1", alpha=str(big_l // 2), L=str(big_l),
                positions=" ".join(map(str, range(big_l)))),
    )
    weights = tmp_path / "w.cwcw"
    write_weights(weights, np.ones(10, dtype=np.float32))
    monkeypatch.setattr(codec, "binomial", refused)
    message = "coding table for L=200000, alpha=100000 is past the 256 MiB limit"
    with pytest.raises(CapacityError) as err:
        read_spec(path)
    assert str(err.value) == message
    assert main(["extract", str(weights), str(path)]) == 2
    assert capsys.readouterr() == ("", f"cwmark: error: {message}\n")


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


@pytest.mark.parametrize(
    "change",
    [
        dict(key=43),
        dict(params=CodeParams(k=8, alpha=4, L=16)),
        dict(thresholds=ThresholdPair(t0=0.001, t1=0.002)),
    ],
    ids=["key", "params", "thresholds"],
)
def test_spec_document_blocks_must_share_code(change):
    first, second = make_doc(blocks=2).specs
    with pytest.raises(ValueError, match="must share"):
        SpecDocument(
            specs=(first, EmbedSpec(**{**vars(second), **change})),
            sigma=0.01, rate=0.5, total_bits=16,
        )


def test_spec_atomicity_and_clean_directory(tmp_path):
    doc = make_doc()
    write_spec(tmp_path / "s.spec", doc)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.spec"]
