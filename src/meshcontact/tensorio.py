"""The one binary file format: sample, template and checkpoint files.

A file is a magic followed by one named-tensor table (all little-endian):
int32 entry count, then per entry a name (int32 length + utf-8 bytes), an
int32 dtype code, an int32 rank, the int32 extents, and the raw array
bytes.  Every malformed file raises `DataError`, with the byte offset for
table parse errors.
"""

from __future__ import annotations

import io
import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

_DTYPES = {0: "<f8", 1: "<i4", 2: "u1"}
_INT32 = np.iinfo(np.int32)


def _dtype_code(name, arr):
    if arr.dtype.kind == "f":
        return 0
    if arr.dtype.kind == "i":
        return 1
    if arr.dtype == np.uint8:
        return 2
    raise DataError(f"tensor {name!r} has unsupported dtype {arr.dtype}")


def write_tensor_table(fh, tensors: dict):
    fh.write(struct.pack("<i", len(tensors)))
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        code = _dtype_code(name, arr)
        if code == 1 and arr.dtype != np.int32 and arr.size and (
                arr.min() < _INT32.min or arr.max() > _INT32.max):
            raise DataError(f"tensor {name!r} has values outside the int32 range")
        raw = name.encode("utf-8")
        fh.write(struct.pack("<i", len(raw)))
        fh.write(raw)
        fh.write(struct.pack("<ii", code, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}i", *arr.shape))
        fh.write(np.ascontiguousarray(arr, dtype=_DTYPES[code]).tobytes())


def read_tensor_table(buf: bytes, offset: int = 0) -> tuple[dict, int]:
    def need(n, what):
        if offset + n > len(buf):
            raise DataError(f"truncated tensor table: needed {n} bytes for {what} "
                            f"at offset {offset}, file has {len(buf)}")

    need(4, "entry count")
    (count,) = struct.unpack_from("<i", buf, offset)
    offset += 4
    if count < 0:
        raise DataError(f"negative tensor count at offset {offset - 4}")
    out = {}
    for _ in range(count):
        need(4, "name length")
        (nlen,) = struct.unpack_from("<i", buf, offset)
        if nlen < 0:
            raise DataError(f"negative name length {nlen} at offset {offset}")
        offset += 4
        need(nlen, "name")
        try:
            name = buf[offset : offset + nlen].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"tensor name is not valid utf-8 at offset {offset}") from exc
        offset += nlen
        need(8, "dtype/rank")
        code, ndim = struct.unpack_from("<ii", buf, offset)
        if code not in _DTYPES:
            raise DataError(f"unknown dtype code {code} for {name!r} at offset {offset}")
        if ndim < 0:
            raise DataError(f"negative rank {ndim} for {name!r} at offset {offset + 4}")
        offset += 8
        need(4 * ndim, "extents")
        shape = struct.unpack_from(f"<{ndim}i", buf, offset)
        if min(shape, default=0) < 0:
            raise DataError(f"negative extent in {shape} for {name!r} at offset {offset}")
        offset += 4 * ndim
        dt = np.dtype(_DTYPES[code])
        nbytes = math.prod(shape) * dt.itemsize
        need(nbytes, f"data of {name!r}")
        flat = np.frombuffer(buf[offset : offset + nbytes], dtype=dt)
        try:
            arr = flat.reshape(shape).copy()
        except ValueError as exc:  # a zero-size shape numpy cannot represent
            raise DataError(f"bad shape {shape} for {name!r} at offset {offset}: {exc}") from exc
        offset += nbytes
        out[name] = arr
    return out, offset


def write_tensor_file(path, magic: bytes, tensors: dict):
    """Write `magic` and the table; a table that fails to serialize leaves `path` as it was."""
    buf = io.BytesIO()
    buf.write(magic)
    write_tensor_table(buf, tensors)
    Path(path).write_bytes(buf.getvalue())


def read_tensor_file(path, magic: bytes) -> dict:
    """The tensor table of a file written by `write_tensor_file` with `magic`."""
    buf = Path(path).read_bytes()
    if buf[: len(magic)] != magic:
        raise DataError(f"{path}: bad magic {buf[: len(magic)]!r}, expected {magic!r}")
    tensors, end = read_tensor_table(buf, len(magic))
    if end != len(buf):
        raise DataError(f"{path}: {len(buf) - end} trailing bytes at offset {end}")
    return tensors


def check_layout(path, tensors: dict, layout: dict) -> dict:
    """Check `tensors` against `layout` and return the extents it names.

    `layout` maps every expected tensor name to (dtype kind, shape).  An
    extent is an int, or a name bound by its first use that every later use
    must equal.
    """
    if set(tensors) != set(layout):
        raise DataError(f"{path}: expected tensors {sorted(layout)}, got {sorted(tensors)}")
    extents = {}
    for name, (kind, dims) in layout.items():
        arr = tensors[name]
        if arr.dtype.kind != kind or arr.ndim != len(dims) or any(
                n != (extents.setdefault(dim, n) if isinstance(dim, str) else dim)
                for dim, n in zip(dims, arr.shape)):
            raise DataError(f"{path}: tensor {name!r} is {arr.dtype} of shape {arr.shape}, "
                            f"expected dtype kind {kind!r} and shape {dims} with {extents}")
    return extents
