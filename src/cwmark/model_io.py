"""Bit-exact persistence for weight vectors, embed specs, and reports.

Weight files are little-endian regardless of host: 4-byte magic "CWCW",
u16 format version (currently 1), u64 count, then the binary32 payload.
Spec files are line-oriented "name: value" text with positions stored
explicitly, so extraction never has to reproduce the position PRNG.
All writes go through a temp file and os.replace, so readers never see
a half-written file.

The weight format has one reader and one writer. _open_weights gives a
weight file as pieces of one reused buffer of at most watermark._PIECE
weights; _weight_writer writes the header and then each piece put. The
file verbs stream through both and never hold an n-sized array;
read_weights and write_weights are their array case.
"""

from __future__ import annotations

import math
import os
import struct
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass

import numpy as np

from .codec import CodeParams
from .errors import (
    BadMagicError,
    NonFiniteWeightError,
    SpecFormatError,
    TrailingDataError,
    TruncatedPayloadError,
    UnsupportedVersionError,
    WeightFileError,
)
from .stats import ThresholdPair
from .watermark import _PIECE, EmbedSpec, _all_finite, _ArrayPieces, as_weight_vector

MAGIC = b"CWCW"
VERSION = 1
_HEADER = struct.Struct("<4sHQ")
# The payload is little-endian; a big-endian host swaps each piece.
_SWAP = sys.byteorder != "little"

SPEC_FORMAT = "cwmark-spec/1"


@contextmanager
def _atomic_file(path):
    """A binary file written beside path, moved onto it when the block
    ends and removed if the block raises."""
    path = os.fspath(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=".cwmark-")
    except OSError as exc:
        # Name the path the caller gave, not the temp file's.
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@contextmanager
def _weight_writer(path, n: int):
    """put(piece) for a new weight file of n weights at path (see _atomic_file):
    the header, then each piece, made contiguous and little-endian."""
    with _atomic_file(path) as handle:
        handle.write(_HEADER.pack(MAGIC, VERSION, n))
        yield lambda piece: handle.write(
            np.ascontiguousarray(piece.byteswap() if _SWAP else piece)
        )


def write_weights(path, weights) -> None:
    """Serialize a weight vector; read_weights(write_weights(w)) is bit-identical.

    Rejects vectors the reader would refuse, so every written file parses.
    Its pieces go through _weight_writer; a strided one is copied per piece.
    """
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
    with _open_weights(path) as source:
        w = np.empty(source.n, dtype=np.float32)
        for start, piece in source.pieces():
            w[start : start + piece.size] = piece
    return w


class _WeightFile:
    """The payload of an open weight file as a piece source (see
    watermark._ArrayPieces): each pass reads it again into one reused
    buffer, and the first whole pass refuses a NaN or an infinity
    (NonFiniteWeightError) before handing out the piece that holds it.
    put writes a finished piece to the output, opened by the first put."""

    def __init__(self, handle, n: int, open_output):
        self.n = n
        self._handle = handle
        self._buf = np.empty(min(n, _PIECE), dtype=np.float32)
        self._checked = False
        self._open_output = open_output
        self._put = None

    def pieces(self):
        self._handle.seek(_HEADER.size)
        for start in range(0, self.n, self._buf.size):
            piece = self._buf[: min(self._buf.size, self.n - start)]
            got = self._handle.readinto(memoryview(piece).cast("B"))
            if got != piece.nbytes:
                raise TruncatedPayloadError(
                    f"header declares {self.n} weights ({_HEADER.size + 4 * self.n} "
                    f"bytes) but only {_HEADER.size + 4 * start + got} could be read"
                )
            if _SWAP:
                piece.byteswap(inplace=True)
            if not self._checked and not _all_finite(piece):
                raise NonFiniteWeightError("payload contains NaN or infinity")
            yield start, piece
        self._checked = True

    def put(self, piece: np.ndarray) -> None:
        if self._put is None:
            self._put = self._open_output()
        self._put(piece)


@contextmanager
def _open_weights(path, out=None):
    """The weight file at path as a piece source, after _payload_count's
    checks. What the step puts goes through _weight_writer to a temp file
    beside out, which replaces out when the block ends, so out may be path
    itself; if the block raises, the temp file is removed and out is left
    as it was."""
    with open(path, "rb") as handle, ExitStack() as stack:
        n = _payload_count(handle)
        yield _WeightFile(handle, n, lambda: stack.enter_context(_weight_writer(out, n)))


@dataclass(frozen=True)
class SpecDocument:
    """One watermark's full recovery record: metadata plus per-block specs.

    Single-codeword watermarks are the one-block case. All blocks share
    the key, code parameters, and thresholds; position sets are disjoint.
    total_bits is the payload length before zero-padding the last block.
    """

    specs: tuple[EmbedSpec, ...]
    sigma: float
    rate: float
    total_bits: int

    def __post_init__(self):
        object.__setattr__(self, "specs", tuple(self.specs))
        if not self.specs:
            raise ValueError("document needs at least one block spec")
        first = self.specs[0]
        for spec in self.specs[1:]:
            if (
                spec.key != first.key
                or spec.params != first.params
                or spec.thresholds != first.thresholds
            ):
                raise ValueError("blocks must share key, params, and thresholds")
        seen: set[int] = set()
        for spec in self.specs:
            if not seen.isdisjoint(spec.positions):
                raise ValueError("block position sets must be disjoint")
            seen.update(spec.positions)
        k = first.params.k
        blocks = len(self.specs)
        if not (blocks - 1) * k < self.total_bits <= blocks * k:
            raise ValueError(
                f"total_bits {self.total_bits} inconsistent with "
                f"{blocks} blocks of {k} bits"
            )
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be positive and finite")
        if not 0.0 <= self.rate < 1.0:
            raise ValueError("rate must lie in [0, 1)")

    @classmethod
    def single(cls, spec: EmbedSpec, sigma: float, rate: float) -> "SpecDocument":
        return cls(specs=(spec,), sigma=sigma, rate=rate, total_bits=spec.params.k)

    @property
    def spec(self) -> EmbedSpec:
        if len(self.specs) != 1:
            raise ValueError("document holds multiple blocks; use .specs")
        return self.specs[0]


def write_spec(path, doc: SpecDocument) -> None:
    """Write a spec document; floats carry full binary64 precision."""
    first = doc.specs[0]
    lines = [
        f"format: {SPEC_FORMAT}",
        f"key: {first.key}",
        f"k: {first.params.k}",
        f"alpha: {first.params.alpha}",
        f"L: {first.params.L}",
        f"t0: {first.thresholds.t0!r}",
        f"t1: {first.thresholds.t1!r}",
        f"sigma: {doc.sigma!r}",
        f"rate: {doc.rate!r}",
        f"blocks: {len(doc.specs)}",
        f"total_bits: {doc.total_bits}",
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


def _require(fields: dict[str, str], name: str) -> str:
    try:
        return fields.pop(name)
    except KeyError:
        raise SpecFormatError(f"missing field {name!r}") from None


def _parse_int(name: str, value: str) -> int:
    try:
        return int(value, 10)
    except ValueError:
        raise SpecFormatError(f"field {name!r}: not a decimal integer: {value!r}") from None


def _parse_float(name: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise SpecFormatError(f"field {name!r}: not a number: {value!r}") from None


def _parse_positions(name: str, value: str) -> tuple[int, ...]:
    if not value:
        raise SpecFormatError(f"field {name!r}: empty position list")
    return tuple(_parse_int(name, token) for token in value.split())


def read_spec(path) -> SpecDocument:
    """Parse a spec document back into SpecDocument, validating as it goes.

    Every malformed document raises SpecFormatError: structural problems,
    non-ASCII bytes, and values the constructors refuse (t0 >= t1, a
    negative key, alpha > L, duplicate positions, too little capacity).
    Each position list must hold exactly L entries before the code is
    built, so L, and with it the capacity check's work (CodeParams refuses
    any k >= L up front), is bounded by the size of the file.
    """
    try:
        with open(path, "r", encoding="ascii") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise SpecFormatError(f"spec is not ASCII text: {exc}") from None
    fields = _parse_fields(text)
    fmt = _require(fields, "format")
    if fmt != SPEC_FORMAT:
        raise SpecFormatError(f"unknown format {fmt!r}, expected {SPEC_FORMAT!r}")
    key = _parse_int("key", _require(fields, "key"))
    k = _parse_int("k", _require(fields, "k"))
    alpha = _parse_int("alpha", _require(fields, "alpha"))
    big_l = _parse_int("L", _require(fields, "L"))
    t0 = _parse_float("t0", _require(fields, "t0"))
    t1 = _parse_float("t1", _require(fields, "t1"))
    sigma = _parse_float("sigma", _require(fields, "sigma"))
    rate = _parse_float("rate", _require(fields, "rate"))
    blocks = _parse_int("blocks", fields.pop("blocks", "1"))
    if blocks < 1:
        raise SpecFormatError(f"blocks must be >= 1, got {blocks}")
    total_bits = _parse_int("total_bits", fields.pop("total_bits", str(blocks * k)))

    position_lists = [
        _parse_positions(name, _require(fields, name))
        for name in _position_fields(blocks)
    ]
    if fields:
        raise SpecFormatError(f"unknown fields: {sorted(fields)}")
    for positions in position_lists:
        if len(positions) != big_l:
            raise SpecFormatError(
                f"{len(positions)} positions for codeword length {big_l}"
            )

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
