"""Versioned binary container for models and controllers.

Layout: magic bytes, format version, a JSON header (kind, metadata, array
directory), a little-endian 64-bit payload blob, and a trailing SHA-256
checksum over everything before it. Arrays are float64 or int64 only.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import secrets
import struct
from pathlib import Path

import numpy as np

from .errors import ArtifactError, SerializationError, is_int

MAGIC = b"RNLB"
VERSION = 1

_DTYPES = {"f8": "<f8", "i8": "<i8"}


def _dtype_tag(arr: np.ndarray) -> str:
    if np.issubdtype(arr.dtype, np.floating):
        return "f8"
    if np.issubdtype(arr.dtype, np.integer):
        return "i8"
    raise SerializationError(f"unsupported array dtype {arr.dtype}")


def pack(kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> bytes:
    directory = []
    blobs = []
    for name, arr in arrays.items():
        tag = _dtype_tag(arr)
        data = np.ascontiguousarray(arr).astype(_DTYPES[tag]).tobytes()
        directory.append({"name": name, "shape": list(arr.shape), "dtype": tag})
        blobs.append(data)
    header = json.dumps(
        {"kind": kind, "meta": meta, "arrays": directory},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    blob = b"".join(blobs)
    body = (
        MAGIC
        + struct.pack("<I", VERSION)
        + struct.pack("<Q", len(header))
        + header
        + struct.pack("<Q", len(blob))
        + blob
    )
    return body + hashlib.sha256(body).digest()


def unpack(data: bytes) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Parse a container; malformed input of any kind raises SerializationError."""
    if len(data) < 4 + 4 + 8 or data[:4] != MAGIC:
        raise SerializationError("not a container file (bad magic bytes)")
    version = struct.unpack("<I", data[4:8])[0]
    if version != VERSION:
        raise SerializationError(
            f"container version {version} is not supported by this build "
            f"(expected {VERSION}); regenerate the artifact with the current tool"
        )
    if len(data) < 4 + 4 + 8 + 8 + 32:
        raise SerializationError("container is truncated")
    body, checksum = data[:-32], data[-32:]
    if hashlib.sha256(body).digest() != checksum:
        raise SerializationError("container checksum mismatch (file corrupt)")
    off = 8
    (hlen,) = struct.unpack_from("<Q", body, off)
    off += 8
    if hlen > len(body) - off - 8:
        raise SerializationError("container header length exceeds the file")
    try:
        header = json.loads(body[off : off + hlen].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise SerializationError(f"container header is not JSON: {exc}") from None
    off += hlen
    (blen,) = struct.unpack_from("<Q", body, off)
    off += 8
    if blen != len(body) - off:
        raise SerializationError("container blob length does not match the file")
    if not (
        isinstance(header, dict)
        and isinstance(header.get("kind"), str)
        and isinstance(header.get("meta"), dict)
        and isinstance(header.get("arrays"), list)
    ):
        raise SerializationError("container header lacks a kind, meta or arrays entry")
    blob = body[off:]
    arrays = {}
    pos = 0
    for entry in header["arrays"]:
        name, shape, dtype = _directory_entry(entry)
        if name in arrays:
            raise SerializationError(f"container lists array {name!r} twice")
        nbytes = math.prod(shape) * 8
        if pos + nbytes > blen:
            raise SerializationError(f"array {name!r} runs past the end of the blob")
        arr = np.frombuffer(blob[pos : pos + nbytes], dtype=dtype)
        try:
            arrays[name] = arr.reshape(shape).copy()
        except ValueError as exc:  # a zero-size shape numpy cannot represent
            raise SerializationError(f"array {name!r} has an invalid shape {shape!r}: {exc}") from None
        pos += nbytes
    if pos != blen:
        raise SerializationError("container blob length does not match directory")
    return header["kind"], header["meta"], arrays


def _directory_entry(entry) -> tuple[str, tuple[int, ...], str]:
    """(name, shape, numpy dtype) of one array-directory entry, validated."""
    if not isinstance(entry, dict):
        raise SerializationError(f"array directory entry is not an object: {entry!r}")
    name, shape, tag = entry.get("name"), entry.get("shape"), entry.get("dtype")
    if not isinstance(name, str):
        raise SerializationError(f"array directory entry has no name: {entry!r}")
    if not isinstance(shape, list) or not all(is_int(d) and d >= 0 for d in shape):
        raise SerializationError(f"array {name!r} has an invalid shape {shape!r}")
    if not isinstance(tag, str) or tag not in _DTYPES:
        raise SerializationError(f"array {name!r} has an unsupported dtype {tag!r}")
    return name, tuple(shape), _DTYPES[tag]


def save(path: str | Path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Atomic write: the target never holds a partial container.

    The container goes to a temporary file of its own in the target's
    directory, is flushed to disk, then renamed over the target, so
    concurrent writers to one path never share a file; the last rename wins.
    """
    path = Path(path)
    data = pack(kind, meta, arrays)
    # a fresh name and exclusive creation: no other writer opens this file,
    # and it gets the permissions a plain write would
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load(path: str | Path, expect_kind: str | None = None) -> tuple[str, dict, dict[str, np.ndarray]]:
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"artifact not found: {path}")
    kind, meta, arrays = unpack(path.read_bytes())
    if expect_kind is not None and kind != expect_kind:
        raise SerializationError(f"expected a {expect_kind!r} container, found {kind!r} in {path}")
    return kind, meta, arrays
