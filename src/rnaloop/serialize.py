"""Versioned binary container for models and controllers.

Layout: magic bytes, format version, a JSON header, a little-endian float64
payload blob, and a trailing SHA-256 checksum over everything before it.
The header is ``{"kind", "spec": the spec's fields as a JSON object,
"arrays": [{"name", "shape"}]}``, and the blob holds the arrays in that
order. Every array is stored as float64.

``VERSION`` is the one version of a file: it covers the layout, the header's
keys and the spec's fields, so a change to any of them bumps it, and a file
of any other version is refused.
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
VERSION = 2


def pack(kind: str, spec: dict, arrays: dict[str, np.ndarray]) -> bytes:
    arrays = {name: np.asarray(arr, dtype="<f8") for name, arr in arrays.items()}
    header = json.dumps(
        {"kind": kind, "spec": spec,
         "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in arrays.items()]},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    blob = b"".join(arr.tobytes() for arr in arrays.values())
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
    """(kind, spec fields, arrays) of a container; malformed input of any
    kind raises SerializationError."""
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
        and isinstance(header.get("spec"), dict)
        and isinstance(header.get("arrays"), list)
    ):
        raise SerializationError("container header lacks a kind, spec or arrays entry")
    blob = body[off:]
    arrays = {}
    pos = 0
    for entry in header["arrays"]:
        name, shape = _directory_entry(entry)
        if name in arrays:
            raise SerializationError(f"container lists array {name!r} twice")
        nbytes = math.prod(shape) * 8
        if pos + nbytes > blen:
            raise SerializationError(f"array {name!r} runs past the end of the blob")
        arr = np.frombuffer(blob[pos : pos + nbytes], dtype="<f8")
        try:
            arrays[name] = arr.reshape(shape).copy()
        except ValueError as exc:  # a zero-size shape numpy cannot represent
            raise SerializationError(f"array {name!r} has an invalid shape {shape!r}: {exc}") from None
        pos += nbytes
    if pos != blen:
        raise SerializationError("container blob length does not match directory")
    return header["kind"], header["spec"], arrays


def _directory_entry(entry) -> tuple[str, tuple[int, ...]]:
    """(name, shape) of one array-directory entry, validated."""
    if not isinstance(entry, dict):
        raise SerializationError(f"array directory entry is not an object: {entry!r}")
    name, shape = entry.get("name"), entry.get("shape")
    if not isinstance(name, str):
        raise SerializationError(f"array directory entry has no name: {entry!r}")
    if not isinstance(shape, list) or not all(is_int(d) and d >= 0 for d in shape):
        raise SerializationError(f"array {name!r} has an invalid shape {shape!r}")
    return name, tuple(shape)


def save(path: str | Path, kind: str, spec: dict, arrays: dict[str, np.ndarray]) -> None:
    """Atomic write: the target never holds a partial container.

    The container goes to a temporary file of its own in the target's
    directory, is flushed to disk, then renamed over the target, so
    concurrent writers to one path never share a file; the last rename wins.
    As :func:`load` does, it raises ``ArtifactError`` if the target's
    directory does not exist and ``SerializationError`` for any other
    failure to write (a target that is a directory, say); either way no
    temporary file is left behind.
    """
    path = Path(path)
    data = pack(kind, spec, arrays)
    # a fresh name and exclusive creation: no other writer opens this file,
    # and it gets the permissions a plain write would
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    try:
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
    except FileNotFoundError:
        raise ArtifactError(f"no directory for artifact: {path}") from None
    except OSError as exc:
        raise SerializationError(f"cannot write artifact {path}: {exc}") from None


def load(path: str | Path, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(spec fields, arrays) of the ``kind`` container at ``path``, read once.

    ``ArtifactError`` if no file is there; ``SerializationError`` if it cannot
    be read (a directory, say) or is not a well-formed ``kind`` container.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise ArtifactError(f"artifact not found: {path}") from None
    except OSError as exc:
        raise SerializationError(f"cannot read artifact {path}: {exc}") from None
    found, spec, arrays = unpack(data)
    if found != kind:
        raise SerializationError(f"expected a {kind!r} container, found {found!r} in {path}")
    return spec, arrays
