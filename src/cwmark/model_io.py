"""Bit-exact persistence for weight vectors, embed specs, and reports.

Weight files are little-endian regardless of host: 4-byte magic "CWCW",
u16 format version (currently 1), u64 count, then the binary32 payload.
Spec files are line-oriented "name: value" text with positions stored
explicitly, so extraction never has to reproduce the position PRNG.
The spec header is one table, _SPEC_HEADER, that write_spec and read_spec walk.
All writes go through a temp file and os.replace, so readers never see
a half-written file.

The weight format has one reader and one writer. _open_weights gives a
weight file as pieces of one reused bytearray of at most detect._PIECE
weights, and tests each piece's finiteness on its bytes; right after its
header, _weight_writer opens the output and writes its header, then each
piece put. The file verbs stream through both and never hold an n-sized
array; read_weights and write_weights are their array case. _all_finite and
_swap are the one binary32 finiteness test and byte swap, for arrays too.

The module imports no numpy. The reader hands each piece out as a
binary32 memoryview of its buffer: extract gathers bit patterns from it,
and the verbs that compute on it make an array on it. Only read_weights
and write_weights import numpy, when they run.
"""

from __future__ import annotations

import errno
import os
import struct
import sys
import tempfile
from contextlib import contextmanager, nullcontext

from .codec import CodeParams, _check_table
from .detect import _PIECE, EmbedSpec, SpecDocument, ThresholdPair
from .errors import (
    BadMagicError,
    NonFiniteWeightError,
    SpecFormatError,
    TrailingDataError,
    TruncatedPayloadError,
    UnsupportedVersionError,
    WeightFileError,
)

MAGIC = b"CWCW"
VERSION = 1
_HEADER = struct.Struct("<4sHQ")
# The payload is little-endian; a big-endian host swaps each piece.
_SWAP = sys.byteorder != "little"
# In a native binary32 value, the byte holding the sign and the top seven
# exponent bits, and the byte whose bit 7 is the last exponent bit.
_TOP, _NEXT = (3, 2) if sys.byteorder == "little" else (0, 1)
# Maps a top byte with all seven of its exponent bits set (0x7F, 0xFF) to
# 0x80, and every other byte to 0.
_TOP_FULL = bytes(0x80 if byte & 0x7F == 0x7F else 0 for byte in range(256))

SPEC_FORMAT = "cwmark-spec/1"
# The spec header's fields in file order, each with the type its value is
# parsed as. A document may leave out the last two: blocks then defaults
# to 1 and total_bits to blocks * k.
_SPEC_HEADER = (
    ("format", str), ("key", int), ("k", int), ("alpha", int), ("L", int),
    ("t0", float), ("t1", float), ("sigma", float), ("rate", float),
    ("blocks", int), ("total_bits", int),
)


@contextmanager
def _atomic_file(path):
    """A binary file written beside path, moved onto it when the block
    ends and removed if the block raises. Failing to create or move the
    temp file raises the same OSError naming path, not the temp file. A new
    output is owner-only (0600); one that replaces a file keeps its mode."""
    path = os.fspath(path)
    if not path:  # mkstemp would take "."; os.replace refuses "" only after the block
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path) and not os.path.islink(path):
        # os.replace would refuse it only after the block: embed writes its
        # spec inside its weight file's block, and would leave that spec.
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    try:
        mode = os.stat(path).st_mode & 0o777
    except OSError:  # nothing there, or a link to nothing: a new output
        mode = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".cwmark-")
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        if mode is not None:  # mkstemp's 0600 stays only on a new output
            os.fchmod(fd, mode)
        with os.fdopen(fd, "wb") as handle:
            yield handle
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise type(exc)(exc.errno, exc.strerror, path) from None
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@contextmanager
def _weight_writer(path, n: int):
    """put(piece) for a new weight file of n weights at path (see _atomic_file):
    the header, then each piece, any C-contiguous native binary32 buffer, little-endian."""
    with _atomic_file(path) as handle:
        handle.write(_HEADER.pack(MAGIC, VERSION, n))
        yield lambda piece: handle.write(_swap(bytearray(piece)) if _SWAP else piece)


def write_weights(path, weights) -> None:
    """Serialize a weight vector; read_weights(write_weights(w)) is bit-identical.

    Rejects vectors the reader would refuse, so every written file parses.
    Its pieces go through _weight_writer; _ArrayPieces copies a strided
    vector one piece at a time.
    """
    from .watermark import _ArrayPieces, as_weight_vector

    source = _ArrayPieces(as_weight_vector(weights))
    with _weight_writer(path, source.n) as put:
        for _, piece in source.pieces():
            put(piece)


def _payload_count(handle) -> int:
    """The weight count of the weight file open in handle, left at its payload.

    The header, truncation and trailing-data checks run on the header and
    the file size alone, so nothing is allocated for a payload that is not
    there.
    """
    header = handle.read(_HEADER.size)
    size = os.fstat(handle.fileno()).st_size
    if len(header) < _HEADER.size:
        raise TruncatedPayloadError(
            f"file is {size} bytes, shorter than the {_HEADER.size}-byte header"
        )
    magic, version, n = _HEADER.unpack(header)
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported format version {version}")
    if n == 0:
        raise WeightFileError("header declares no weights")
    expected = _HEADER.size + 4 * n
    if size < expected:
        raise TruncatedPayloadError(
            f"header declares {n} weights ({expected} bytes) but file has {size}"
        )
    if size > expected:
        raise TrailingDataError(f"{size - expected} trailing bytes after payload")
    return n


def read_weights(path) -> np.ndarray:
    """Parse a weight file into a binary32 vector, allocated after the checks
    of _open_weights and filled from its pieces."""
    import numpy as np

    with _open_weights(path) as source:
        w = np.empty(source.n, dtype=np.float32)
        for start, piece in source.pieces():
            w[start : start + len(piece)] = piece
    return w


def _swap(raw: bytearray) -> bytearray:
    """raw, binary32 values, with each value's four bytes reversed in place."""
    raw[0::4], raw[1::4], raw[2::4], raw[3::4] = raw[3::4], raw[2::4], raw[1::4], raw[0::4]
    return raw


def _all_finite(raw) -> bool:
    """No NaN or infinity among the native binary32 values in the bytearray raw.

    A value is NaN or infinite exactly when its eight exponent bits are
    all set: its top byte is 0x7F or 0xFF and bit 7 of the next is set. A
    piece with neither top byte passes on two byte searches; otherwise
    _TOP_FULL marks each such top byte with 0x80, and one AND of big
    integers finds any that meets a set bit 7.
    """
    top = raw[_TOP::4]
    if b"\x7f" not in top and b"\xff" not in top:
        return True
    full = int.from_bytes(top.translate(_TOP_FULL), "little")
    return not full & int.from_bytes(raw[_NEXT::4], "little")


class _WeightFile:
    """The payload of an open weight file as a piece source (see detect._PIECE):
    each pass reads it again into one reused bytearray and hands each piece
    out as a binary32 memoryview of it. The first whole pass refuses a NaN
    or an infinity (NonFiniteWeightError) before handing out the piece that
    holds it. put writes a finished piece to the output (None with no
    output)."""

    def __init__(self, handle, n: int, put):
        self.n = n
        self.put = put
        self._handle = handle
        self._buf = bytearray(4 * min(n, _PIECE))
        self._checked = False

    def pieces(self):
        buf = self._buf
        view = memoryview(buf)
        self._handle.seek(_HEADER.size)
        for start in range(0, self.n, _PIECE):
            size = 4 * min(_PIECE, self.n - start)
            got = self._handle.readinto(view[:size])
            if got != size:
                raise TruncatedPayloadError(
                    f"header declares {self.n} weights ({_HEADER.size + 4 * self.n} "
                    f"bytes) but only {_HEADER.size + 4 * start + got} could be read"
                )
            if _SWAP:  # before the check, which reads the values it hands out
                _swap(buf)
            # On the bytearray: `in` on a memoryview compares items, never bytes.
            if not self._checked and not _all_finite(buf if size == len(buf) else buf[:size]):
                raise NonFiniteWeightError("payload contains NaN or infinity")
            yield start, view[:size].cast("f")
        self._checked = True


@contextmanager
def _open_weights(path, out=None):
    """The weight file at path as a piece source, after _payload_count's
    checks. Then out, if given, is opened through _weight_writer as a temp
    file beside it, so an unwritable out fails before any pass; what the
    step puts goes there, and the temp file replaces out when the block
    ends, so out may be path itself. If the block raises, the temp file is
    removed and out is left as it was."""
    with open(path, "rb") as handle:
        n = _payload_count(handle)
        with _weight_writer(out, n) if out is not None else nullcontext() as put:
            yield _WeightFile(handle, n, put)


def write_spec(path, doc: SpecDocument) -> None:
    """Write a spec document; floats carry full binary64 precision. format()
    writes a numpy scalar as the Python number it holds (a binary32 one
    widened exactly), where its repr would not parse."""
    first = doc.specs[0]
    p = first.params
    header = (
        SPEC_FORMAT, first.key, p.k, p.alpha, p.L, *first.thresholds,
        doc.sigma, doc.rate, len(doc.specs), doc.total_bits,
    )
    lines = [
        f"{name}: {value}" for (name, _), value in zip(_SPEC_HEADER, header, strict=True)
    ]
    for name, spec in zip(_position_fields(len(doc.specs)), doc.specs):
        lines.append(f"{name}: " + " ".join(map(str, spec.positions)))
    with _atomic_file(path) as handle:
        handle.write(("\n".join(lines) + "\n").encode("ascii"))


def _position_fields(blocks: int):
    """Position field names in block order, made lazily so a huge count is free."""
    return ("positions",) if blocks == 1 else (f"positions.{j}" for j in range(blocks))


def _parse_fields(text: str) -> dict[str, str]:
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise SpecFormatError(f"line {lineno}: expected 'name: value'")
        name = name.strip()
        if name in fields:
            raise SpecFormatError(f"line {lineno}: duplicate field {name!r}")
        fields[name] = value.strip()
    return fields


def _parse(name: str, value: str | None, kind):
    """The value of field name as kind (str, int or float); SpecFormatError
    if the field is missing (value None) or its value does not parse as
    write_spec writes it. An int must read back as the same text, so '08',
    '-0', '+7' and '0_7' are refused; a float may not hold the '_'
    separators or the leading '+' that float() takes (its exponent keeps
    its sign)."""
    if value is None:
        raise SpecFormatError(f"missing field {name!r}")
    try:
        parsed = kind(value)
        if kind is int and str(parsed) != value or kind is float and (
            "_" in value or value.startswith("+")
        ):
            raise ValueError
        return parsed
    except ValueError:
        noun = "a decimal integer" if kind is int else "a number"
        raise SpecFormatError(f"field {name!r}: not {noun}: {value!r}") from None


def _parse_positions(name: str, value: str) -> tuple[int, ...]:
    if not value:
        raise SpecFormatError(f"field {name!r}: empty position list")
    tokens = value.split()
    # One pass over the whole list. A list it refuses goes through _parse
    # token by token, which names the first bad token.
    try:
        ints = list(map(int, tokens))
        if list(map(str, ints)) == tokens:
            return tuple(ints)
    except ValueError:
        pass
    return tuple(_parse(name, token, int) for token in tokens)


def read_spec(path) -> SpecDocument:
    """Parse a spec document back into SpecDocument, validating as it goes.

    Every malformed document raises SpecFormatError: structural problems,
    non-ASCII bytes, and values the constructors refuse (t0 >= t1, a
    negative key, alpha > L, duplicate positions, too little capacity).
    Each position list must hold exactly L entries before the code is
    built, so L, and with it the capacity check's work (CodeParams refuses
    any k >= L up front), is bounded by the size of the file. A code whose
    coding table would pass the codec's limit raises CapacityError before
    any record is built, so CodeParams never computes its binomial(L, alpha).
    """
    try:
        with open(path, "r", encoding="ascii") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise SpecFormatError(f"spec is not ASCII text: {exc}") from None
    fields = _parse_fields(text)
    header = iter(_SPEC_HEADER)

    def take(default=None):
        # The next header field, parsed after the checks on those before it.
        name, kind = next(header)
        return _parse(name, fields.pop(name, default), kind)

    fmt = take()
    if fmt != SPEC_FORMAT:
        raise SpecFormatError(f"unknown format {fmt!r}, expected {SPEC_FORMAT!r}")
    key, k, alpha, big_l, t0, t1, sigma, rate = [take() for _ in range(8)]
    blocks = take("1")
    if blocks < 1:
        raise SpecFormatError(f"blocks must be >= 1, got {blocks}")
    total_bits = take(str(blocks * k))

    position_lists = [
        _parse_positions(name, _parse(name, fields.pop(name, None), str))
        for name in _position_fields(blocks)
    ]
    if fields:
        raise SpecFormatError(f"unknown fields: {sorted(fields)}")
    for positions in position_lists:
        if len(positions) != big_l:
            raise SpecFormatError(
                f"{len(positions)} positions for codeword length {big_l}"
            )

    _check_table(big_l, alpha)
    try:
        params = CodeParams(k=k, alpha=alpha, L=big_l)
        thresholds = ThresholdPair(t0=t0, t1=t1)
        specs = tuple(
            EmbedSpec(key=key, params=params, thresholds=thresholds, positions=pos)
            for pos in position_lists
        )
        return SpecDocument(specs=specs, sigma=sigma, rate=rate, total_bits=total_bits)
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from exc
