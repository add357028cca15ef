"""Self-describing container for named dense arrays.

Layout: 8-byte magic, 8-byte little-endian header length, a canonical JSON
header (sorted keys, no whitespace) describing every array's name, dtype,
shape, and byte offset plus a free-form `meta` record, then the raw array
bytes back to back in header order.  Writing the same arrays and meta twice
produces byte-identical files, which the determinism acceptance criterion
relies on.  Reading checks the header length against the file size before
reading the header, and every entry against the body before building its
array, so a damaged file raises `ContainerError`, never a raw decoding error
or an allocation the file cannot back.  The layout is checked too: names are
unique, and each entry begins where the one before it ends (the first at the
start of the body), with no bytes after the last.  A well-formed file
whose contents do not fit its reader (a missing array or meta field, an
unknown config field) raises `ContainerError` too, through `reading`.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from contextlib import contextmanager

import numpy as np

from .errors import ContainerError

MAGIC = b"HCARR1\x00\x00"


@contextmanager
def reading(path, entry: str):
    """Raise `ContainerError` naming `path` and `entry` for what the block
    raises on contents of that entry that do not fit their reader: a missing
    key (KeyError), an unknown or ill-typed field (TypeError) or a rejected
    value (ValueError)."""
    try:
        yield
    except ContainerError:
        raise
    except KeyError as e:
        raise ContainerError(f"{path}: {entry}: missing {e.args[0]!r}") from e
    except (TypeError, ValueError) as e:
        raise ContainerError(f"{path}: {entry}: {e}") from e


def save_container(path, arrays: dict[str, np.ndarray], meta: dict | None = None):
    """Write named arrays + JSON meta atomically (temp file then rename)."""
    entries = []
    blobs = []
    offset = 0
    for name in arrays:
        arr = np.ascontiguousarray(arrays[name])
        buf = arr.tobytes()
        entries.append({
            "name": name,
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(buf),
        })
        blobs.append(buf)
        offset += len(buf)
    header = json.dumps({"arrays": entries, "meta": meta or {}},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = os.fspath(path)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(MAGIC)
            f.write(len(header).to_bytes(8, "little"))
            f.write(header)
            for buf in blobs:
                f.write(buf)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _entry_array(path, entry, body: bytes, start: int) -> tuple[str, np.ndarray, int]:
    """The (name, array, end offset) of one header entry, checked against the
    body; the entry must begin at `start`, where the one before it ended."""
    try:
        name, dtype = entry["name"], np.dtype(entry["dtype"])
        shape, offset, nbytes = tuple(entry["shape"]), entry["offset"], entry["nbytes"]
    except (KeyError, TypeError, ValueError) as e:
        raise ContainerError(f"{path}: malformed array entry {str(entry)[:80]}") from e
    if (not isinstance(name, str) or dtype.hasobject or dtype.itemsize == 0
            or not all(type(x) is int and x >= 0 for x in (offset, nbytes, *shape))):
        raise ContainerError(f"{path}: malformed array entry {str(entry)[:80]}")
    if offset + nbytes > len(body):
        raise ContainerError(f"{path}: truncated array {name!r}")
    if offset != start:
        kind = "overlaps the array before it" if offset < start else "leaves a gap before it"
        raise ContainerError(f"{path}: array {name!r} at byte {offset} {kind} "
                             f"(which ends at byte {start})")
    if math.prod(shape) * dtype.itemsize != nbytes:
        raise ContainerError(f"{path}: array {name!r} of shape {list(shape)} and dtype "
                             f"{dtype.str} does not fill its {nbytes} bytes")
    raw = body[offset:offset + nbytes]
    return name, np.frombuffer(raw, dtype=dtype).reshape(shape).copy(), offset + nbytes


def load_container(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        prefix = f.read(16)
        if prefix[:8] != MAGIC:
            raise ContainerError(f"{path}: not a container file (bad magic)")
        if len(prefix) < 16:
            raise ContainerError(f"{path}: truncated header length")
        hlen = int.from_bytes(prefix[8:], "little")
        if hlen > size - 16:
            raise ContainerError(f"{path}: header length {hlen} exceeds the "
                                 f"{size}-byte file")
        text = f.read(hlen)
        body = f.read()
    try:
        header = json.loads(text.decode("utf-8"))
    except (ValueError, RecursionError) as e:   # bad UTF-8, bad or too deeply nested JSON
        raise ContainerError(f"{path}: unreadable header: {e}") from e
    if not (isinstance(header, dict) and isinstance(header.get("arrays"), list)
            and isinstance(header.get("meta"), dict)):
        raise ContainerError(f"{path}: the header holds no array list and meta record")
    arrays, end = {}, 0
    for entry in header["arrays"]:
        name, arr, end = _entry_array(path, entry, body, end)
        if name in arrays:
            raise ContainerError(f"{path}: array name {name!r} repeats")
        arrays[name] = arr
    if end != len(body):
        raise ContainerError(f"{path}: {len(body) - end} body bytes follow the last array")
    return arrays, header["meta"]
