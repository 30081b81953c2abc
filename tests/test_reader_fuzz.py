"""Byte-mutation fuzzers of the manifest, partition and checkpoint readers.

Each example makes a few edits to a valid file (insert, overwrite or
delete at drawn offsets) with tokens chosen to reach the readers' edge
cases.  Whatever the bytes, a reader must return its value or raise
ParseError, and nothing else.  Skipped when hypothesis is missing.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from oacpool.dimreduce import ReductionPartition, load_partition, save_partition
from oacpool.errors import ParseError
from oacpool.harness import DatasetManifest, load_manifest, save_features, save_manifest
from oacpool.model import ClassifierModel, load_model, save_model
from oacpool.sequences import FeatureSequence

TOKENS = st.sampled_from(
    [
        b"\x00",
        b"\xff",
        b"\x85",  # not UTF-8 on its own
        "\x85".encode(),  # NEL, a line break to str.splitlines()
        b" ",
        b"\n",
        b"=",
        b",",
        b"-",
        b"0",
        b"1",
        b"#",
        b'"',
        b"99999999999999999999",
        b"-99999999999999999999",
        b"1e400",
        b"2.0",
        b"true",
        b"null",
        b"[]",
        b"aggregation=mean",
        b"classes=",
        b"s" * 300,  # longer than any file system allows a path component
        b"OACM",  # the checkpoint magic
        b"\xff\xff\xff\xff",  # a header length past the end of any file
        b"\xff" * 8,  # a NaN bit pattern, non-finite at most alignments
    ]
)
FUZZ = settings(derandomize=True, deadline=None, max_examples=300)


def edits(size: int):
    """One to four (kind, offset, span, token) edits of a file of size bytes."""
    return st.lists(
        st.tuples(
            st.sampled_from(["insert", "overwrite", "delete"]),
            st.integers(0, size),
            st.integers(1, 8),
            TOKENS,
        ),
        min_size=1,
        max_size=4,
    )


def mutate(valid: bytes, edit_list) -> bytes:
    data = bytearray(valid)
    for kind, offset, span, token in edit_list:
        start = min(offset, len(data))
        if kind == "insert":
            data[start:start] = token
        elif kind == "overwrite":
            data[start : start + len(token)] = token
        else:
            del data[start : start + span]
    return bytes(data)


@pytest.fixture(scope="module")
def manifest_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("manifest")
    entries = []
    for label in range(2):
        path = directory / f"seq_{label}.txt"
        save_features(FeatureSequence(np.full((2, 2), float(label))), path)
        entries.append((path, label))
    save_manifest(DatasetManifest(entries, ("a", "b"), "train"), directory / "valid.manifest")
    return directory


@pytest.fixture(scope="module")
def partition_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("partition")
    save_partition(ReductionPartition(np.array([0, 1, 2, 0, 1, 2]), 3), directory / "valid.txt")
    return directory


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("checkpoint")
    model = ClassifierModel.build("oacp", 2, 2, interval=2, n_filters=1, seed=0)
    save_model(model, directory / "valid.oacm")
    return directory


def fuzz(reader, valid_path, fuzz_path, data, start=0) -> None:
    """Edit the bytes of a valid file from offset start on, then read the result."""
    valid = valid_path.read_bytes()
    tail = mutate(valid[start:], data.draw(edits(len(valid) - start)))
    fuzz_path.write_bytes(valid[:start] + tail)
    try:
        reader(fuzz_path)
    except ParseError:
        pass


@FUZZ
@given(st.data())
def test_manifest_reader(manifest_dir, data):
    fuzz(load_manifest, manifest_dir / "valid.manifest", manifest_dir / "fuzz.manifest", data)


@FUZZ
@given(st.data())
def test_partition_reader(partition_dir, data):
    fuzz(load_partition, partition_dir / "valid.txt", partition_dir / "fuzz.txt", data)


@FUZZ
@given(st.data())
def test_checkpoint_reader(checkpoint_dir, data):
    fuzz(load_model, checkpoint_dir / "valid.oacm", checkpoint_dir / "fuzz.oacm", data)


@FUZZ
@given(st.data())
def test_checkpoint_payload(checkpoint_dir, data):
    # the edits confined to the parameters, behind the intact header
    valid = (checkpoint_dir / "valid.oacm").read_bytes()
    start = 9 + int.from_bytes(valid[5:9], "little")
    fuzz(load_model, checkpoint_dir / "valid.oacm", checkpoint_dir / "fuzz.oacm", data, start)
