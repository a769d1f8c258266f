import importlib
import pkgutil
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshcontact
from meshcontact import mesh, scenes
from meshcontact.errors import DataError
from meshcontact.tensorio import check_layout, read_tensor_file, write_tensor_file


def table_bytes(tensors, path):
    """`tensors` written with no magic, so each table offset is a file offset."""
    write_tensor_file(path, b"", tensors)
    return path.read_bytes()


def read_table(blob: bytes, path) -> dict:
    path.write_bytes(blob)
    return read_tensor_file(path, b"")


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
        # A repeated name silently replaced the earlier entry.
        (struct.pack("<i", 2) + entry(struct.pack("<i", 1) + b"a", extents=(2,),
                                      data=np.zeros(2).tobytes())
         + entry(struct.pack("<i", 1) + b"a", extents=(2,), data=np.ones(2).tobytes()),
         "repeated tensor name 'a' at offset 41"),
        # Zero-size, but numpy cannot hold its extents' product.
        (struct.pack("<i", 1) + entry(struct.pack("<i", 1) + b"a", ndim=4,
                                      extents=(0,) + (2**31 - 1,) * 3, data=b""), "bad shape"),
    ])
    def test_typed_error_with_offset(self, tmp_path, blob, message):
        with pytest.raises(DataError, match=message) as info:
            read_table(blob, tmp_path / "t.bin")
        assert "offset" in str(info.value)

    # Each was widened to float64 or narrowed to int32, so it read back with another dtype.
    @pytest.mark.parametrize("dtype", ["float32", "float16", "int64", "int8", "bool", ">f8"],
                             ids=["float32", "float16", "int64", "int8", "bool", "big-endian-f8"])
    def test_other_dtypes_rejected(self, tmp_path, dtype):
        dtype = np.dtype(dtype)
        path = tmp_path / "t.bin"
        with pytest.raises(DataError, match="tensor 'x' has unsupported dtype "
                                            + re.escape(str(dtype))):
            write_tensor_file(path, b"", {"f": np.ones(2), "x": np.ones(2, dtype=dtype)})
        assert not path.exists()

    # An int name leaked AttributeError and a lone surrogate UnicodeEncodeError.
    @pytest.mark.parametrize("name", [5, "\ud800"], ids=["int", "surrogate"])
    def test_bad_name_rejected(self, tmp_path, name):
        path = tmp_path / "t.bin"
        with pytest.raises(DataError, match=re.escape(f"{path}: tensor name {name!r}")):
            write_tensor_file(path, b"", {"f": np.ones(2), name: np.ones(2)})
        assert not path.exists()

    def test_round_trip(self, tmp_path):
        tensors = {
            "f": np.arange(6.0).reshape(2, 3),
            "i": np.array([-2**31, -1, 2, 2**31 - 1], dtype=np.int32),
            "u": np.zeros((0, 4), dtype=np.uint8),
            "scalar": np.float64(2.5),
            "ñame": np.ones(1),
        }
        write_tensor_file(tmp_path / "t.bin", b"", tensors)
        back = read_tensor_file(tmp_path / "t.bin", b"")
        assert list(back) == list(tensors)
        for name, arr in tensors.items():
            assert back[name].dtype == np.asarray(arr).dtype
            assert back[name].shape == np.shape(arr)
            assert np.array_equal(back[name], arr)


def test_failed_write_keeps_the_old_file(tmp_path):
    path = tmp_path / "table.bin"
    write_tensor_file(path, b"MAGIC\x00", {"x": np.arange(3, dtype=np.int32)})
    good = path.read_bytes()
    with pytest.raises(DataError, match="'x' has unsupported dtype int64") as info:
        write_tensor_file(path, b"MAGIC\x00", {"x": np.array([2**31], dtype=np.int64)})
    assert str(path) in str(info.value)
    assert path.read_bytes() == good


class TestCheckLayout:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_unbounded_float_must_be_finite(self, bad):
        with pytest.raises(DataError, match="f.bin: 'x' has non-finite entries"):
            check_layout("f.bin", {"x": np.array([0.0, bad])}, {"x": ("f", (2,), None)})

    def test_unbounded_int_is_not_value_checked(self):
        edges = np.array([-2**31, 2**31 - 1], dtype=np.int32)
        check_layout("f.bin", {"x": edges}, {"x": ("i", ("n",), None)})

    def test_layout_fault_reported_before_an_earlier_value_fault(self):
        layout = {"a": ("f", (1,), (0.0, 1.0)), "b": ("i", (2,), None)}
        tensors = {"a": np.array([np.nan]), "b": np.zeros(3, dtype=np.int32)}
        with pytest.raises(DataError, match=r"tensor 'b' is int32 of shape \(3,\)"):
            check_layout("f.bin", tensors, layout)


_arrays = st.builds(
    lambda dtype, shape, seed: np.random.default_rng(seed).integers(0, 255, shape).astype(dtype),
    st.sampled_from([np.float64, np.int32, np.uint8]),
    st.lists(st.integers(0, 3), max_size=3).map(tuple),
    st.integers(0, 2**32 - 1),
)
_tables = st.dictionaries(st.text(max_size=6), _arrays, max_size=4)
_flips = st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 7)), min_size=1, max_size=3)


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    """One file for every example; hypothesis rejects function-scoped fixtures such as tmp_path."""
    return tmp_path_factory.mktemp("table") / "t.bin"


class TestFuzzedTables:
    @settings(max_examples=300, deadline=None)
    @given(tensors=_tables, cut=st.integers(0, 2**20), flips=_flips, truncate=st.booleans())
    def test_only_data_error_escapes(self, table_path, tensors, cut, flips, truncate):
        blob = table_bytes(tensors, table_path)
        blob = blob[: cut % len(blob)] if truncate else flip(blob, flips)
        try:
            read_table(blob, table_path)
        except DataError:
            pass


# (write, read, magic, object to write from the template) per file format.
_FORMATS = {
    "sample": (scenes.write_sample, scenes.read_sample, scenes.SAMPLE_MAGIC,
               lambda template: scenes.generate_sample(scenes.SceneConfig(), template,
                                                       np.random.default_rng([1, 0]))),
}


def test_every_file_format_is_fuzzed():
    """Each `*_MAGIC` of the package is distinct and has a `_FORMATS` entry."""
    magics = {
        (name, value)
        for info in pkgutil.iter_modules(meshcontact.__path__)
        for name, value in vars(importlib.import_module(f"meshcontact.{info.name}")).items()
        if name.endswith("_MAGIC")
    }
    assert len({value for _, value in magics}) == len(magics), sorted(magics)
    assert {value for _, value in magics} == {magic for _, _, magic, _ in _FORMATS.values()}


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
