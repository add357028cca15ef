"""The array container: round trip, and typed errors for damaged files."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hcustom.container import MAGIC, ContainerError, load_container, save_container
from hcustom.errors import HCustomError


def _entry(shape=(2, 3), offset=0, nbytes=24, dtype="<f4", name="x"):
    return {"name": name, "dtype": dtype, "shape": list(shape), "offset": offset,
            "nbytes": nbytes}


def _write(path, header, body=b"", hlen=None):
    """A container file from raw parts: header as a dict or as bytes."""
    if isinstance(header, dict):
        header = json.dumps(header).encode("utf-8")
    hlen = len(header) if hlen is None else hlen
    path.write_bytes(MAGIC + hlen.to_bytes(8, "little") + header + body)
    return path


def test_round_trip_keeps_arrays_and_meta(tmp_path):
    arrays = {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
              "b": np.array([1, 2], dtype=np.int64), "empty": np.zeros((0, 4))}
    save_container(tmp_path / "c.hc", arrays, meta={"k": [1, "v"]})
    loaded, meta = load_container(tmp_path / "c.hc")
    assert meta == {"k": [1, "v"]}
    assert list(loaded) == list(arrays)
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype
        np.testing.assert_array_equal(loaded[name], arr)


def test_container_error_is_a_package_error_and_a_value_error():
    assert issubclass(ContainerError, HCustomError)
    assert issubclass(ContainerError, ValueError)


def test_bad_magic(tmp_path):
    (tmp_path / "c.hc").write_bytes(b"NOTACONT" + bytes(8))
    with pytest.raises(ContainerError, match="bad magic"):
        load_container(tmp_path / "c.hc")


def test_truncated_header_length(tmp_path):
    (tmp_path / "c.hc").write_bytes(MAGIC + b"\x05\x00")
    with pytest.raises(ContainerError, match="header length"):
        load_container(tmp_path / "c.hc")


def test_truncated_header(tmp_path):
    save_container(tmp_path / "c.hc", {"x": np.ones((2, 3), np.float32)})
    whole = (tmp_path / "c.hc").read_bytes()
    (tmp_path / "cut.hc").write_bytes(whole[:30])       # inside the header
    with pytest.raises(ContainerError, match="exceeds"):
        load_container(tmp_path / "cut.hc")


def test_huge_header_length_is_refused_before_reading(tmp_path):
    # 2^62 bytes would be a MemoryError (or worse) if read as asked
    path = _write(tmp_path / "c.hc", {"arrays": [], "meta": {}}, hlen=2 ** 62)
    with pytest.raises(ContainerError, match="exceeds"):
        load_container(path)


def test_bad_utf8_header(tmp_path):
    path = _write(tmp_path / "c.hc", b'{"arrays": [], "meta": {"\xff": 1}}')
    with pytest.raises(ContainerError, match="unreadable header"):
        load_container(path)


@pytest.mark.parametrize("header", [b'{"arrays": [', b"[" * 100000])
def test_bad_json_header(tmp_path, header):
    path = _write(tmp_path / "c.hc", header)
    with pytest.raises(ContainerError, match="unreadable header"):
        load_container(path)


@pytest.mark.parametrize("header", [[], {"arrays": {}, "meta": {}}, {"arrays": []}])
def test_header_without_array_list_and_meta(tmp_path, header):
    path = _write(tmp_path / "c.hc", json.dumps(header).encode())
    with pytest.raises(ContainerError, match="no array list"):
        load_container(path)


@pytest.mark.parametrize("entry", [
    _entry(shape=(2, 4)),                  # 8 float32 need 32 bytes, not 24
    _entry(dtype="<f8"),                   # 6 float64 need 48 bytes
    _entry(shape=(-2, -3)),
    _entry(dtype="not-a-dtype"),
    _entry(dtype="|O"),
    _entry(offset=-4),
    {"name": "x", "dtype": "<f4"},         # no shape, offset or size
    "x",
], ids=["shape", "dtype-size", "negative-shape", "unknown-dtype", "object-dtype",
        "negative-offset", "missing-fields", "not-a-record"])
def test_malformed_entry(tmp_path, entry):
    path = _write(tmp_path / "c.hc", {"arrays": [entry], "meta": {}}, bytes(24))
    with pytest.raises(ContainerError):
        load_container(path)


@pytest.mark.parametrize("entry", [_entry(offset=8), _entry(nbytes=2 ** 62, shape=(2 ** 60,))])
def test_entry_past_the_end_of_the_body(tmp_path, entry):
    path = _write(tmp_path / "c.hc", {"arrays": [entry], "meta": {}}, bytes(24))
    with pytest.raises(ContainerError, match="truncated array"):
        load_container(path)


def _two_entries(second_offset, second_name="y"):
    return {"arrays": [_entry(), _entry(offset=second_offset, name=second_name)], "meta": {}}


def test_repeated_array_name(tmp_path):
    path = _write(tmp_path / "c.hc", _two_entries(24, second_name="x"), bytes(48))
    with pytest.raises(ContainerError, match="'x' repeats"):
        load_container(path)


def test_overlapping_entries(tmp_path):
    path = _write(tmp_path / "c.hc", _two_entries(16), bytes(48))
    with pytest.raises(ContainerError, match="overlaps"):
        load_container(path)


def test_gap_between_entries(tmp_path):
    path = _write(tmp_path / "c.hc", _two_entries(32), bytes(56))
    with pytest.raises(ContainerError, match="gap"):
        load_container(path)


def test_gap_before_the_first_entry(tmp_path):
    path = _write(tmp_path / "c.hc", {"arrays": [_entry(offset=8)], "meta": {}}, bytes(32))
    with pytest.raises(ContainerError, match="gap"):
        load_container(path)


def test_trailing_body_bytes(tmp_path):
    save_container(tmp_path / "c.hc", {"x": np.ones((2, 3), np.float32)})
    whole = (tmp_path / "c.hc").read_bytes()
    (tmp_path / "long.hc").write_bytes(whole + b"\x00")
    with pytest.raises(ContainerError, match="1 body bytes follow"):
        load_container(tmp_path / "long.hc")


def test_saved_entries_lie_back_to_back_in_header_order(tmp_path):
    arrays = {"b": np.ones(3), "a": np.zeros((2, 2), np.float32), "e": np.zeros(0)}
    save_container(tmp_path / "c.hc", arrays)
    raw = (tmp_path / "c.hc").read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    entries = json.loads(raw[16:16 + hlen])["arrays"]
    assert [e["name"] for e in entries] == ["b", "a", "e"]
    assert [e["offset"] for e in entries] == [0, 24, 40]
    assert len(raw) - 16 - hlen == 40


# ---------------------------------------------------------------------------
# fuzzing: damaged copies of one small container, with the kinds of arrays and
# meta a checkpoint has


@pytest.fixture(scope="module")
def sound_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "c.hc"
    arrays = {"w": np.arange(12, dtype=np.float32).reshape(3, 4),
              "step": np.array([7], dtype=np.int64), "mask": np.ones((2, 3), np.uint8),
              "empty": np.zeros((0, 2))}
    save_container(path, arrays, meta={"config": {"width": 4, "name": "x"}, "step": 7})
    return path, path.read_bytes()


def _load_or_refuse(path, size):
    """Whether `path` loads; it may instead raise ContainerError, and any
    other exception fails the test.  The reader holds at most the file's
    bytes, the arrays built from them and one array's raw slice at once, so
    its traced peak stays within three times the file's size plus the few
    KiB of the file object and the parsed header."""
    tracemalloc.start()
    try:
        load_container(path)
        loaded = True
    except ContainerError:
        loaded = False
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peak <= 3 * size + 16384, f"peak {peak} bytes for a {size}-byte file"
    return loaded


def test_every_truncation_raises_a_container_error(sound_file, tmp_path):
    path, blob = sound_file
    cut = tmp_path / "cut.hc"
    for length in range(len(blob)):
        cut.write_bytes(blob[:length])
        assert not _load_or_refuse(cut, length), length


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_changed_header_bytes_load_or_raise_a_container_error(sound_file, data):
    path, blob = sound_file
    header_end = 16 + int.from_bytes(blob[8:16], "little")
    damaged = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 3), label="changes")):
        at = data.draw(st.integers(0, header_end - 1), label="offset")
        damaged[at] = data.draw(st.integers(0, 255).filter(lambda b: b != damaged[at]),
                                label="byte")
    bad = path.with_name("damaged.hc")
    bad.write_bytes(bytes(damaged))
    _load_or_refuse(bad, len(damaged))
