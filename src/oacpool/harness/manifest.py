"""Dataset manifests: a list of feature files with labels and class names.

Format (one manifest per split)::

    classes=rising,falling
    split=train
    rising_0000.txt 0
    falling_0000.txt 1

``classes=`` is required and ``split=`` optional; each may appear once, and
no class name may be empty.  Entry lines hold a path and a label separated
by whitespace (the label is the last token).  Paths are resolved relative
to the manifest's directory.  Blank lines and lines starting with '#' are
ignored.  Lines end at a newline (``\n``, ``\r\n`` or ``\r``) and nowhere
else, so a path may hold any other character.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ParseError, ShapeMismatchError
from ..sequences import LabeledSequence, positive_int
from .featfile import load_features


@dataclass
class DatasetManifest:
    """Entries of (resolved path, label) plus class names and a split tag.

    Each label is an integer in [0, number of classes), stored as int:
    NumPy integers are accepted, and booleans and floats are a ValueError.
    """

    entries: list[tuple[Path, int]]
    class_names: tuple[str, ...]
    split_tag: str = ""

    def __post_init__(self):
        if not self.class_names:
            raise ValueError("a manifest needs at least one class name")
        self.class_names = tuple(self.class_names)
        for i, name in enumerate(self.class_names):
            if name in self.class_names[:i]:
                raise ValueError(f"duplicate class name {name!r}")
        self.entries = [
            (path, positive_int(label, "label", minimum=0)) for path, label in self.entries
        ]
        for path, label in self.entries:
            if label >= len(self.class_names):
                raise ValueError(
                    f"label {label} out of range for {len(self.class_names)} classes ({path})"
                )

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


def load_manifest(path) -> DatasetManifest:
    """Parse a manifest; every referenced feature file must exist."""
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # text mode has already turned \r\n and \r into \n
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not utf-8 text: {exc}") from None
    headers: dict[str, str] = {}
    entries: list[tuple[Path, int]] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith(("classes=", "split=")):
            key, value = stripped.split("=", 1)
            if key in headers:
                raise ParseError(f"{path}: line {lineno}: a second '{key}=' line")
            if key == "classes" and "" in value.split(","):
                raise ParseError(f"{path}: line {lineno}: empty class name in {stripped!r}")
            headers[key] = value
            continue
        pieces = stripped.rsplit(None, 1)
        if len(pieces) != 2:
            raise ParseError(
                f"{path}: line {lineno}: expected '<path> <label>', got {stripped!r}"
            )
        entry_path, label_text = pieces
        if "\0" in entry_path:
            raise ParseError(f"{path}: line {lineno}: NUL byte in path {entry_path!r}")
        try:
            label = int(label_text)
        except ValueError:
            raise ParseError(
                f"{path}: line {lineno}: label {label_text!r} is not an integer"
            ) from None
        try:
            resolved = (path.parent / entry_path).resolve()
            is_file = resolved.is_file()
        except OSError as exc:
            raise ParseError(f"{path}: line {lineno}: unusable path: {exc}") from None
        if not is_file:
            raise ParseError(f"{path}: line {lineno}: no such feature file: {resolved}")
        entries.append((resolved, label))
    if "classes" not in headers:
        raise ParseError(f"{path}: missing required 'classes=' line")
    if not entries:
        raise ParseError(f"{path}: manifest lists no feature files")
    try:
        return DatasetManifest(entries, headers["classes"].split(","), headers.get("split", ""))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def save_manifest(manifest: DatasetManifest, path) -> None:
    """Write a manifest; entry paths are stored relative to the manifest.

    A value that would not read back as itself raises ValueError naming it,
    before anything is written: an empty class name or one holding a comma,
    a line break in a class name or the split tag, trailing whitespace on the
    last class name or the tag, or an entry path holding a line break or NUL,
    with leading or trailing whitespace, or starting like a comment or header.
    """
    for name in manifest.class_names:
        if not name or any(ch in name for ch in ",\n\r"):
            raise ValueError(f"class name {name!r} would not read back from a manifest")
    for what, value in ("class name", manifest.class_names[-1]), ("split tag", manifest.split_tag):
        if value != value.rstrip() or any(ch in value for ch in "\n\r"):
            raise ValueError(f"{what} {value!r} would not read back from a manifest")
    path = Path(path)
    lines = []
    for entry_path, label in manifest.entries:
        rel = os.path.relpath(entry_path, path.parent)
        if (
            rel != rel.strip()
            or any(ch in rel for ch in "\n\r\0")
            or rel.startswith(("#", "classes=", "split="))
        ):
            raise ValueError(f"entry path {rel!r} would not read back from a manifest")
        lines.append(f"{rel} {label}\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("classes=" + ",".join(manifest.class_names) + "\n")
        if manifest.split_tag:
            fh.write(f"split={manifest.split_tag}\n")
        fh.writelines(lines)


def iter_dataset(manifest: DatasetManifest) -> Iterator[LabeledSequence]:
    """Read the entries in manifest order, yielding each sequence as soon as it is read.

    Nothing is kept between entries, so a caller that lets go of each
    sequence before asking for the next holds one sequence at a time.
    Every sequence must have the first one's feature dimensionality; the
    first that does not raises ShapeMismatchError when it is read.
    """
    feature_dim = None
    for entry_path, label in manifest.entries:
        seq = load_features(entry_path)
        if feature_dim is None:
            feature_dim = seq.num_features
        elif seq.num_features != feature_dim:
            raise ShapeMismatchError(
                f"{entry_path}: has {seq.num_features} features, dataset uses {feature_dim}"
            )
        yield LabeledSequence(seq, label)


def load_dataset(manifest: DatasetManifest) -> list[LabeledSequence]:
    """Every entry in memory at once: the list of what iter_dataset yields."""
    return list(iter_dataset(manifest))


def labeled_frames(data: Iterable[LabeledSequence]) -> Iterator[tuple[np.ndarray, int]]:
    """Lazily flatten sequences into (frame vector, label) pairs.

    Frames come in sequence order, then frame order, and each sequence is
    taken from data only when its first frame is asked for, so an
    iter_dataset generator is read one file at a time.
    """
    return ((frame, item.label) for item in data for frame in item.sequence.frames)
