import hashlib
import json
import os
import struct
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rnaloop import serialize
from rnaloop.errors import SerializationError


def container(header: bytes, blob: bytes) -> bytes:
    """A container with a valid checksum around arbitrary header and blob bytes."""
    body = (
        serialize.MAGIC
        + struct.pack("<I", serialize.VERSION)
        + struct.pack("<Q", len(header))
        + header
        + struct.pack("<Q", len(blob))
        + blob
    )
    return body + hashlib.sha256(body).digest()


def header(arrays, kind="model", meta=None) -> bytes:
    return json.dumps({"kind": kind, "meta": meta or {}, "arrays": arrays}).encode()


def reseal(data: bytes) -> bytes:
    """Recompute the trailing checksum of an edited container."""
    body = data[:-32]
    return body + hashlib.sha256(body).digest()


def test_round_trip():
    arrays = {"w": np.arange(6.0).reshape(2, 3), "i": np.arange(4), "s": np.array(2.5)}
    kind, meta, out = serialize.unpack(serialize.pack("model", {"a": 1}, arrays))
    assert (kind, meta) == ("model", {"a": 1})
    assert out.keys() == arrays.keys()
    for name, arr in arrays.items():
        assert np.array_equal(out[name], arr) and out[name].shape == arr.shape


@pytest.mark.parametrize(
    "head,blob,match",
    [
        (header([{"name": "w", "shape": [1], "dtype": "f4"}]), bytes(8), "unsupported dtype"),
        (json.dumps({"kind": "model", "meta": {}}).encode(), b"", "arrays"),
        (b"\xff{not json", b"", "not JSON"),
        (b"[1, 2]", b"", "kind, meta or arrays"),
        (header([{"name": "w", "shape": [3], "dtype": "f8"}]), bytes(16), "runs past"),
        (header([{"name": "w", "shape": [1], "dtype": "f8"}]), bytes(16), "does not match directory"),
        (header([{"name": "w", "shape": [-1], "dtype": "f8"}]), b"", "invalid shape"),
        (header([{"name": "w", "shape": [0, 2**70], "dtype": "f8"}]), b"", "invalid shape"),
        (header([{"name": "w", "shape": [0], "dtype": "f8"}] * 2), b"", "twice"),
        (header([["w", [1], "f8"]]), bytes(8), "not an object"),
    ],
    ids=["f4-dtype", "no-arrays", "not-json", "header-not-object", "overrun", "leftover-blob",
         "negative-dim", "huge-dim", "duplicate-name", "entry-not-object"],
)
def test_malformed_header_rejected(head, blob, match):
    with pytest.raises(SerializationError, match=match):
        serialize.unpack(container(head, blob))


def test_length_fields_past_the_file_rejected():
    data = bytearray(serialize.pack("model", {}, {"w": np.ones(2)}))
    bad_header = data.copy()
    bad_header[8:16] = struct.pack("<Q", 2**40)
    with pytest.raises(SerializationError, match="header length"):
        serialize.unpack(reseal(bytes(bad_header)))
    hlen = struct.unpack("<Q", data[8:16])[0]
    bad_blob = data.copy()
    bad_blob[16 + hlen : 24 + hlen] = struct.pack("<Q", 2**40)
    with pytest.raises(SerializationError, match="blob length"):
        serialize.unpack(reseal(bytes(bad_blob)))


def _check_unpack(data: bytes) -> None:
    try:
        kind, meta, arrays = serialize.unpack(data)
    except SerializationError:
        return
    assert isinstance(kind, str) and isinstance(meta, dict)
    assert all(isinstance(a, np.ndarray) for a in arrays.values())


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
entries = st.fixed_dictionaries(
    {
        "name": st.text(max_size=3) | json_values,
        "shape": st.lists(st.integers(-2, 3), max_size=3) | json_values,
        "dtype": st.sampled_from(["f8", "i8", "f4"]) | json_values,
    }
)
headers = st.fixed_dictionaries(
    {},
    optional={
        "kind": st.text(max_size=4) | json_values,
        "meta": st.dictionaries(st.text(max_size=4), json_values, max_size=2) | json_values,
        "arrays": st.lists(entries, max_size=3) | json_values,
    },
)
# Edits of a real container: byte ranges overwritten, then the checksum resealed.
real = serialize.pack("model", {"k": [1, 2]}, {"w": np.arange(4.0), "i": np.arange(3)})
edits = st.lists(
    st.tuples(st.integers(0, len(real) - 33), st.binary(min_size=1, max_size=8)), min_size=1, max_size=3
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.binary(max_size=96))
def test_fuzz_arbitrary_bytes(data):
    _check_unpack(data)
    _check_unpack(serialize.MAGIC + struct.pack("<I", serialize.VERSION) + data)


@settings(max_examples=300, deadline=None)
@given(head=headers, blob=st.binary(max_size=48))
def test_fuzz_checksummed_headers(head, blob):
    _check_unpack(container(json.dumps(head).encode(), blob))


@settings(max_examples=300, deadline=None)
@given(edit=edits)
def test_fuzz_edited_container(edit):
    data = bytearray(real)
    for pos, chunk in edit:
        data[pos : pos + len(chunk)] = chunk
    _check_unpack(reseal(bytes(data)))


def test_concurrent_saves_to_one_path_always_load_and_leave_no_temp_file(tmp_path):
    path = tmp_path / "shared.rnl"
    payloads = [np.full((32, 32), float(i)) for i in range(3)]

    def writer(i):
        for _ in range(20):
            serialize.save(path, "model", {"writer": i}, {"w": payloads[i]})
            _, meta, arrays = serialize.load(path)
            assert np.array_equal(arrays["w"], payloads[meta["writer"]])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            for fut in [pool.submit(writer, i) for i in range(3)]:
                fut.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    _, meta, arrays = serialize.load(path)
    assert np.array_equal(arrays["w"], payloads[meta["writer"]])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shared.rnl"]


def test_failed_save_removes_its_temp_file_and_keeps_the_target(tmp_path, monkeypatch):
    path = tmp_path / "kept.rnl"
    serialize.save(path, "model", {"v": 1}, {})

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        serialize.save(path, "model", {"v": 2}, {})
    monkeypatch.undo()
    assert serialize.load(path)[1] == {"v": 1}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.rnl"]
