import dataclasses
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

from rnaloop import nets, presets, serialize
from rnaloop.errors import ArtifactError, SerializationError


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


def header(arrays, kind="model", spec=None) -> bytes:
    return json.dumps({"kind": kind, "spec": spec or {}, "arrays": arrays}).encode()


def written_header(data: bytes) -> dict:
    """The JSON header of a container's bytes."""
    (hlen,) = struct.unpack_from("<Q", data, 8)
    return json.loads(data[16 : 16 + hlen])


def reseal(data: bytes) -> bytes:
    """Recompute the trailing checksum of an edited container."""
    body = data[:-32]
    return body + hashlib.sha256(body).digest()


def test_round_trip():
    # every array is stored as float64, an integer one too
    arrays = {"w": np.arange(6.0).reshape(2, 3), "i": np.arange(4), "s": np.array(2.5)}
    kind, spec, out = serialize.unpack(serialize.pack("model", {"a": 1}, arrays))
    assert (kind, spec) == ("model", {"a": 1})
    assert out.keys() == arrays.keys()
    for name, arr in arrays.items():
        assert np.array_equal(out[name], arr) and out[name].shape == arr.shape
        assert out[name].dtype == np.float64


def test_header_holds_kind_spec_and_arrays_only(tmp_path):
    # one version covers the header: no format, meta or dtype entry beside it
    main = presets.cls_main(0)
    control = presets.cls_controller(main, 1)
    for save, net, spec in [(nets.save_model, main, main.spec),
                            (nets.save_controller, control, control.cspec)]:
        save(tmp_path / "net.rnl", net)
        head = written_header((tmp_path / "net.rnl").read_bytes())
        assert sorted(head) == ["arrays", "kind", "spec"]
        assert all(sorted(entry) == ["name", "shape"] for entry in head["arrays"])
        # the spec's fields as a JSON object, a tuple as a list
        assert head["spec"] == json.loads(json.dumps(dataclasses.asdict(spec)))


@pytest.mark.parametrize(
    "head,blob,match",
    [
        (json.dumps({"kind": "model", "spec": {}}).encode(), b"", "arrays"),
        (b"\xff{not json", b"", "not JSON"),
        (b"[1, 2]", b"", "kind, spec or arrays"),
        (header([{"name": "w", "shape": [3]}]), bytes(16), "runs past"),
        (header([{"name": "w", "shape": [1]}]), bytes(16), "does not match directory"),
        (header([{"name": "w", "shape": [-1]}]), b"", "invalid shape"),
        (header([{"name": "w", "shape": [0, 2**70]}]), b"", "invalid shape"),
        (header([{"name": "w", "shape": [0]}] * 2), b"", "twice"),
        (header([["w", [1]]]), bytes(8), "not an object"),
    ],
    ids=["no-arrays", "not-json", "header-not-object", "overrun", "leftover-blob",
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
        kind, spec, arrays = serialize.unpack(data)
    except SerializationError:
        return
    assert isinstance(kind, str) and isinstance(spec, dict)
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
    }
)
headers = st.fixed_dictionaries(
    {},
    optional={
        "kind": st.text(max_size=4) | json_values,
        "spec": st.dictionaries(st.text(max_size=4), json_values, max_size=2) | json_values,
        "arrays": st.lists(entries, max_size=3) | json_values,
    },
)
# Edits of a real container: byte ranges overwritten, then the checksum resealed.
real = serialize.pack("model", {"k": [1, 2]}, {"w": np.arange(4.0), "v": np.arange(3.0)})
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
            spec, arrays = serialize.load(path, "model")
            assert np.array_equal(arrays["w"], payloads[spec["writer"]])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            for fut in [pool.submit(writer, i) for i in range(3)]:
                fut.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    spec, arrays = serialize.load(path, "model")
    assert np.array_equal(arrays["w"], payloads[spec["writer"]])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shared.rnl"]


def test_failed_save_removes_its_temp_file_and_keeps_the_target(tmp_path, monkeypatch):
    path = tmp_path / "kept.rnl"
    serialize.save(path, "model", {"v": 1}, {})

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(SerializationError, match="cannot write artifact .*kept.rnl: disk full"):
        serialize.save(path, "model", {"v": 2}, {})
    monkeypatch.undo()
    assert serialize.load(path, "model")[0] == {"v": 1}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.rnl"]


def test_save_into_a_missing_directory_raises_artifact_error(tmp_path):
    with pytest.raises(ArtifactError, match="no directory for artifact: .*absent/net.rnl"):
        serialize.save(tmp_path / "absent" / "net.rnl", "model", {}, {})
    assert list(tmp_path.iterdir()) == []


def test_save_over_a_directory_raises_serialization_error(tmp_path):
    # the temporary file is written, but the rename onto a directory fails
    target = tmp_path / "net.rnl"
    target.mkdir()
    with pytest.raises(SerializationError, match="cannot write artifact .*net.rnl: .*Is a directory"):
        serialize.save(target, "model", {}, {})
    assert [p.name for p in tmp_path.iterdir()] == ["net.rnl"]
    assert list(target.iterdir()) == []


LOADERS = [lambda path: serialize.load(path, "model"), nets.load_model, nets.load_controller]


def test_missing_path_raises_artifact_error(tmp_path):
    path = tmp_path / "absent.rnl"
    for load in LOADERS:
        with pytest.raises(ArtifactError, match="artifact not found: .*absent.rnl"):
            load(path)
    assert not path.exists()


def test_unreadable_path_raises_serialization_error(tmp_path):
    # a directory is there, but it is no file: the read fails with
    # IsADirectoryError, not a missing artifact
    for load in LOADERS:
        with pytest.raises(SerializationError, match="cannot read artifact .*Is a directory"):
            load(tmp_path)


def test_container_of_another_kind_rejected(tmp_path):
    serialize.save(tmp_path / "net.rnl", "model", {}, {})
    with pytest.raises(SerializationError, match="expected a 'controller' container, found 'model'"):
        serialize.load(tmp_path / "net.rnl", "controller")
