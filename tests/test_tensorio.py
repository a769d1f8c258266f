import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshcontact import mesh, scenes
from meshcontact.errors import DataError
from meshcontact.tensorio import read_tensor_table, write_tensor_table


def table_bytes(tensors):
    buf = io.BytesIO()
    write_tensor_table(buf, tensors)
    return buf.getvalue()


def entry(name_field: bytes, code=0, ndim=1, extents=(1,), data=b"\x00" * 8):
    """One hand-built table entry; `name_field` includes its length prefix."""
    return (name_field + struct.pack("<ii", code, ndim)
            + struct.pack(f"<{len(extents)}i", *extents) + data)


def header_offsets(blob: bytes, offset: int) -> list[int]:
    """Byte offsets of every count, name, dtype, rank and extent field of a valid table."""
    (count,) = struct.unpack_from("<i", blob, offset)
    out = list(range(offset, offset + 4))
    offset += 4
    for _ in range(count):
        (nlen,) = struct.unpack_from("<i", blob, offset)
        _, ndim = struct.unpack_from("<ii", blob, offset + 4 + nlen)
        head = 4 + nlen + 8 + 4 * ndim
        shape = struct.unpack_from(f"<{ndim}i", blob, offset + 4 + nlen + 8)
        code = blob[offset + 4 + nlen]
        itemsize = {0: 8, 1: 4, 2: 1}[code]
        out.extend(range(offset, offset + head))
        offset += head + int(np.prod(shape)) * itemsize
    return out


def flip(blob: bytes, flips) -> bytes:
    out = bytearray(blob)
    for pos, bit in flips:
        out[pos % len(out)] ^= 1 << bit
    return bytes(out)


class TestMalformedTable:
    @pytest.mark.parametrize("blob, message", [
        (struct.pack("<i", 1) + entry(struct.pack("<i", -5)), "negative name length"),
        (struct.pack("<i", 1) + entry(struct.pack("<i", 2) + b"\xff\xfe"), "utf-8"),
        (struct.pack("<i", 1) + entry(struct.pack("<i", 1) + b"a", ndim=-1, extents=()),
         "negative rank"),
        (struct.pack("<i", 1) + entry(struct.pack("<i", 1) + b"a", ndim=2, extents=(2, -3)),
         "negative extent"),
        (struct.pack("<i", 1) + entry(struct.pack("<i", 1) + b"a", ndim=65, extents=(0,) * 65,
                                      data=b""), "bad shape"),
    ])
    def test_typed_error_with_offset(self, blob, message):
        with pytest.raises(DataError, match=message) as info:
            read_tensor_table(blob)
        assert "offset" in str(info.value)

    @pytest.mark.parametrize("values", [[2**40 + 5, -2**33], [2**31], [-2**31 - 1]])
    def test_int_out_of_range_rejected(self, values):
        with pytest.raises(DataError, match="'x'.*int32 range"):
            table_bytes({"x": np.array(values, dtype=np.int64)})
        edges = np.array([-2**31, 2**31 - 1], dtype=np.int64)  # the int32 range itself
        assert np.array_equal(read_tensor_table(table_bytes({"x": edges}))[0]["x"], edges)

    def test_round_trip(self):
        tensors = {
            "f": np.arange(6.0).reshape(2, 3),
            "i": np.array([-1, 2], dtype=np.int32),
            "u": np.zeros((0, 4), dtype=np.uint8),
            "scalar": np.float64(2.5),
            "ñame": np.ones(1),
        }
        blob = table_bytes(tensors)
        back, end = read_tensor_table(blob)
        assert end == len(blob)
        assert list(back) == list(tensors)
        for name, arr in tensors.items():
            assert back[name].shape == np.shape(arr)
            assert np.array_equal(back[name], arr)


_arrays = st.builds(
    lambda dtype, shape, seed: np.random.default_rng(seed).integers(0, 255, shape).astype(dtype),
    st.sampled_from([np.float64, np.int32, np.uint8]),
    st.lists(st.integers(0, 3), max_size=3).map(tuple),
    st.integers(0, 2**32 - 1),
)
_tables = st.dictionaries(st.text(max_size=6), _arrays, max_size=4)
_flips = st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 7)), min_size=1, max_size=3)


class TestFuzzedTables:
    @settings(max_examples=300, deadline=None)
    @given(tensors=_tables, cut=st.integers(0, 2**20), flips=_flips, truncate=st.booleans())
    def test_only_data_error_escapes(self, tensors, cut, flips, truncate):
        blob = table_bytes(tensors)
        blob = blob[: cut % len(blob)] if truncate else flip(blob, flips)
        try:
            read_tensor_table(blob)
        except DataError:
            pass


# (write, read, magic, object to write from the template) per file format.
_FORMATS = {
    "sample": (scenes.write_sample, scenes.read_sample, scenes.SAMPLE_MAGIC,
               lambda template: scenes.generate_sample(scenes.SceneConfig(), template,
                                                       np.random.default_rng([1, 0]))),
    "template": (mesh.write_template, mesh.read_template, mesh.MESH_MAGIC,
                 lambda template: template),
}


@pytest.fixture(scope="module", params=list(_FORMATS))
def file_blob(request, tmp_path_factory):
    write, read, magic, make = _FORMATS[request.param]
    path = tmp_path_factory.mktemp("blob") / f"{request.param}.bin"
    write(make(mesh.build_template(mesh.MeshConfig(), rng_seed=7)), path)
    blob = path.read_bytes()
    return read, path, blob, header_offsets(blob, len(magic))


class TestFuzzedSamples:
    @settings(max_examples=200, deadline=None)
    @given(cut=st.integers(0, 2**20), flips=_flips, in_header=st.booleans(),
           truncate=st.booleans())
    def test_only_data_error_escapes(self, file_blob, cut, flips, in_header, truncate):
        read, path, blob, headers = file_blob
        if truncate:
            bad = blob[: cut % len(blob)]
        elif in_header:
            bad = flip(blob, [(headers[pos % len(headers)], bit) for pos, bit in flips])
        else:
            bad = flip(blob, flips)
        path.write_bytes(bad)
        try:
            read(path)
        except DataError:
            pass
