"""Feature sequence files: a diffable text format and a compact binary one.

Text format
    line 1:      ``T=<frames> K=<features>``
    lines 2..T+1: K space-separated decimal values (shortest round-trip
    representation, so save -> load is bit-exact)

    The reader accepts every token Python's ``float()`` accepts and gives
    the value ``float()`` gives: signs, exponents, ``_`` digit separators
    and non-ASCII decimal digits included.  Tokens are separated by any
    Unicode whitespace, blank lines are skipped, ``#`` is a plain character
    (so it is rejected as a value), and ``inf`` and ``nan`` parse but are
    rejected as non-finite.

Binary format
    magic ``OACP``, one version byte (1), little-endian uint32 T and K,
    then T*K little-endian float64 values in row-major order.

Loading sniffs the first four bytes for the magic and otherwise parses text.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ..errors import ParseError
from ..sequences import FeatureSequence

MAGIC = b"OACP"
BINARY_VERSION = 1
_HEADER = struct.Struct("<II")


def save_features(seq: FeatureSequence, path, binary: bool = False) -> None:
    """Write a sequence losslessly in the text (default) or binary format."""
    if binary:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(bytes([BINARY_VERSION]))
            fh.write(_HEADER.pack(seq.num_frames, seq.num_features))
            fh.write(seq.frames.astype("<f8").tobytes(order="C"))
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"T={seq.num_frames} K={seq.num_features}\n")
        for row in seq.frames.tolist():
            fh.write(" ".join(map(repr, row)) + "\n")


def _load_binary(path, raw: bytes) -> FeatureSequence:
    if len(raw) < len(MAGIC) + 1 + _HEADER.size:
        raise ParseError(f"{path}: truncated binary header")
    version = raw[len(MAGIC)]
    if version != BINARY_VERSION:
        raise ParseError(f"{path}: unsupported binary version {version}")
    t, k = _HEADER.unpack_from(raw, len(MAGIC) + 1)
    if t < 1 or k < 1:
        raise ParseError(f"{path}: invalid shape T={t} K={k}")
    # a view of the payload in raw: a bytes slice would copy it
    offset = len(MAGIC) + 1 + _HEADER.size
    expected = t * k * 8
    if len(raw) - offset != expected:
        raise ParseError(
            f"{path}: expected {expected} payload bytes for T={t} K={k}, got {len(raw) - offset}"
        )
    frames = np.frombuffer(raw, "<f8", count=t * k, offset=offset).reshape(t, k)
    if not np.isfinite(frames).all():
        raise ParseError(f"{path}: payload contains non-finite values")
    return FeatureSequence(frames)


def _parse_header(path, line: str) -> tuple[int, int]:
    tokens = line.split()
    if (
        len(tokens) != 2
        or not tokens[0].startswith("T=")
        or not tokens[1].startswith("K=")
    ):
        raise ParseError(f"{path}: line 1: expected 'T=<frames> K=<features>', got {line!r}")
    try:
        t = int(tokens[0][2:])
        k = int(tokens[1][2:])
    except ValueError:
        raise ParseError(f"{path}: line 1: non-integer shape in {line!r}") from None
    if t < 1 or k < 1:
        raise ParseError(f"{path}: line 1: invalid shape T={t} K={k}")
    return t, k


def _parse_rows(path, body, k: int) -> np.ndarray:
    """Parse the (line number, line) rows with float(), failing at the first bad line."""
    rows = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != k:
            raise ParseError(
                f"{path}: line {lineno}: expected {k} values, got {len(parts)}"
            )
        try:
            row = [float(p) for p in parts]
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric value") from None
        if not all(map(math.isfinite, row)):
            raise ParseError(f"{path}: line {lineno}: non-finite value")
        rows.append(row)
    return np.array(rows, dtype=np.float64)


def _load_text(path, lines: list[str]) -> FeatureSequence:
    if not lines or not lines[0].strip():
        raise ParseError(f"{path}: empty feature file")
    t, k = _parse_header(path, lines[0])
    body = [(lineno, line) for lineno, line in enumerate(lines[1:], start=2) if line.strip()]
    if len(body) != t:
        raise ParseError(
            f"{path}: header declares T={t} but found {len(body)} data rows"
        )
    # One C-level parse of the whole body.  Its float conversion gives the
    # same bits as float(); anything it refuses, shapes otherwise or reads
    # as non-finite (ragged rows, ``1_0``, non-ASCII digits, junk, ``inf``)
    # goes through the line-by-line parser, which accepts what float()
    # accepts and names the first bad line.  comments=None keeps '#' an
    # ordinary, rejected character.
    try:
        frames = np.loadtxt([line for _, line in body], dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        frames = None
    if frames is None or frames.shape != (t, k) or not np.isfinite(frames).all():
        return FeatureSequence(_parse_rows(path, body, k))
    return FeatureSequence(frames)


def load_features(path) -> FeatureSequence:
    """Read a feature file in either format; errors carry the offending line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw:
        raise ParseError(f"{path}: empty feature file")
    if raw[: len(MAGIC)] == MAGIC:
        return _load_binary(path, raw)
    # let the bytes, then the text, go as soon as the next form is made
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: neither binary (no magic) nor utf-8 text: {exc}") from None
    del raw
    lines = text.splitlines()
    del text
    return _load_text(path, lines)
