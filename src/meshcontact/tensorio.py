"""The one binary file format: sample files.

A file is a magic followed by one named-tensor table (all little-endian):
int32 entry count, then per entry a name (int32 length + utf-8 bytes), an
int32 dtype code, an int32 rank, the int32 extents, and the raw C-order
array bytes.  The dtype codes are 0 for float64, 1 for int32 and 2 for
uint8.  No other dtype is written, so a file reads back with the dtypes it
was written with.  Every missing or malformed file, every path that cannot
be written and every tensor of another dtype raises `DataError`, with the
byte offset for table parse errors.

A format's layout table is the one place for its rules, each tensor's
dtype kind, shape and value range, and `check_layout` checks them all.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataError

_DTYPES = (np.dtype("<f8"), np.dtype("<i4"), np.dtype("u1"))  # indexed by dtype code


def write_tensor_file(path, magic: bytes, tensors: dict):
    """Write `magic` and the table; a table that fails to serialize leaves `path` as it was."""
    parts = [magic, struct.pack("<i", len(tensors))]
    for name, arr in tensors.items():
        arr = np.asarray(arr)
        if arr.dtype not in _DTYPES:
            raise DataError(f"{path}: tensor {name!r} has unsupported dtype {arr.dtype}")
        try:
            raw = name.encode("utf-8")
        except (AttributeError, UnicodeEncodeError) as exc:
            raise DataError(f"{path}: tensor name {name!r} is not a UTF-8 string") from exc
        parts += [struct.pack("<i", len(raw)), raw,
                  struct.pack(f"<ii{arr.ndim}i", _DTYPES.index(arr.dtype), arr.ndim, *arr.shape),
                  arr.tobytes()]
    try:
        Path(path).write_bytes(b"".join(parts))
    except OSError as exc:
        raise DataError(f"{path}: cannot write: {exc.strerror}") from exc


def read_tensor_file(path, magic: bytes) -> dict:
    """The tensor table of a file written by `write_tensor_file` with `magic`."""
    try:
        buf = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from exc
    if buf[: len(magic)] != magic:
        raise DataError(f"{path}: bad magic {buf[: len(magic)]!r}, expected {magic!r}")
    offset = len(magic)

    def take(n, what):
        """The offset of the next `n` bytes, which `offset` then moves past."""
        nonlocal offset
        if offset + n > len(buf):
            raise DataError(f"truncated tensor table: needed {n} bytes for {what} "
                            f"at offset {offset}, file has {len(buf)}")
        offset += n
        return offset - n

    at = take(4, "entry count")
    (count,) = struct.unpack_from("<i", buf, at)
    if count < 0:
        raise DataError(f"negative tensor count at offset {at}")
    out = {}
    for _ in range(count):
        at = take(4, "name length")
        (nlen,) = struct.unpack_from("<i", buf, at)
        if nlen < 0:
            raise DataError(f"negative name length {nlen} at offset {at}")
        at = take(nlen, "name")
        try:
            name = buf[at : at + nlen].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"tensor name is not valid utf-8 at offset {at}") from exc
        if name in out:
            raise DataError(f"repeated tensor name {name!r} at offset {at}")
        at = take(8, "dtype/rank")
        code, ndim = struct.unpack_from("<ii", buf, at)
        if code not in range(len(_DTYPES)):
            raise DataError(f"unknown dtype code {code} for {name!r} at offset {at}")
        if ndim < 0:
            raise DataError(f"negative rank {ndim} for {name!r} at offset {at + 4}")
        at = take(4 * ndim, "extents")
        shape = struct.unpack_from(f"<{ndim}i", buf, at)
        if min(shape, default=0) < 0:
            raise DataError(f"negative extent in {shape} for {name!r} at offset {at}")
        dt = _DTYPES[code]
        size = math.prod(shape)
        at = take(size * dt.itemsize, f"data of {name!r}")
        flat = np.frombuffer(buf, dtype=dt, count=size, offset=at)  # a view, copied once
        try:
            out[name] = flat.reshape(shape).copy()
        except ValueError as exc:  # a zero-size shape numpy cannot represent
            raise DataError(f"bad shape {shape} for {name!r} at offset {at}: {exc}") from exc
    if offset != len(buf):
        raise DataError(f"{path}: {len(buf) - offset} trailing bytes at offset {offset}")
    return out


def check_layout(path, tensors: dict, layout: dict):
    """Check `tensors` against `layout`; raise `DataError` on the first fault.

    `layout` maps every expected tensor name to (dtype kind, shape, bounds).
    An extent is an int, or a name bound by its first use that every later
    use must equal.  `bounds` is None or the closed numeric range (lo, hi) of
    the values; every float tensor must also be finite.  Every kind and shape
    is checked before any value.
    """
    if set(tensors) != set(layout):
        raise DataError(f"{path}: expected tensors {sorted(layout)}, got {sorted(tensors)}")
    extents = {}
    for name, (kind, dims, _) in layout.items():
        arr = tensors[name]
        if arr.dtype.kind != kind or arr.ndim != len(dims) or any(
                n != (extents.setdefault(dim, n) if isinstance(dim, str) else dim)
                for dim, n in zip(dims, arr.shape)):
            raise DataError(f"{path}: tensor {name!r} is {arr.dtype} of shape {arr.shape}, "
                            f"expected dtype kind {kind!r} and shape {dims} with {extents}")
    for name, (kind, _, bounds) in layout.items():
        arr = tensors[name]
        if kind == "f" and not np.isfinite(arr).all():
            raise DataError(f"{path}: {name!r} has non-finite entries")
        if bounds is not None:
            lo, hi = bounds
            if ((arr < lo) | (arr > hi)).any():
                raise DataError(f"{path}: {name!r} has entries outside [{lo}, {hi}]")
