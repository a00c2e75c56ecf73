"""Checkpoint format tests.

The crafting helper below re-derives the container from its documented
layout with struct/json/zlib only, so these tests hold the writer and
reader to the format, not to each other.
"""

import json
import struct
import zlib

import numpy as np
import pytest

from tcur import (
    Adapter,
    CheckpointError,
    CorruptCheckpoint,
    TcurFactors,
    UnsupportedVersion,
    init_adapter,
    read_checkpoint,
    reconstruct,
    tcur,
    write_checkpoint,
)

LAYOUT = "slice-major:frontal-slice-contiguous,row-major-within-slice,f64-le"


def craft(meta: dict, payload: bytes, version: int = 1, kind: int = 0) -> bytes:
    meta_b = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = struct.pack("<III", version, kind, len(meta_b)) + meta_b + payload
    return b"TCUR" + body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def raw_meta(dims) -> dict:
    return {
        "kind": "raw_tensor",
        "layout": LAYOUT,
        "stack_order": "layer-major;roles=q,k,v,o",
        "tensors": [{"name": "tensor", "dims": list(dims)}],
    }


# ------------------------------------------------------------- round trips

def test_raw_tensor_roundtrip_byte_exact(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "w.tcur"
    w = rng.standard_normal((4, 5, 3))
    write_checkpoint(path, w)
    first = path.read_bytes()
    back = read_checkpoint(path)
    assert isinstance(back, np.ndarray)
    assert np.array_equal(back, w)
    write_checkpoint(path, back)
    assert path.read_bytes() == first


def test_factors_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "f.tcur"
    w = rng.standard_normal((6, 7, 4))
    f = tcur(w, 3)
    write_checkpoint(path, f)
    first = path.read_bytes()
    back = read_checkpoint(path)
    assert isinstance(back, TcurFactors)
    assert np.array_equal(back.C, f.C)
    assert np.array_equal(back.U_core, f.U_core)
    assert np.array_equal(back.R, f.R)
    assert back.rows.tolist() == f.rows.tolist()
    assert back.cols.tolist() == f.cols.tolist()
    assert back.rank == f.rank
    assert back.sv_tol_factor == f.sv_tol_factor
    assert np.array_equal(reconstruct(back), reconstruct(f))
    write_checkpoint(path, back)
    assert path.read_bytes() == first


def test_adapter_roundtrip_preserves_freezing(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "a.tcur"
    a = init_adapter(rng.standard_normal((5, 6, 3)), 2)
    a.U = rng.standard_normal(a.U.shape)
    write_checkpoint(path, a)
    first = path.read_bytes()
    back = read_checkpoint(path)
    assert isinstance(back, Adapter)
    for name in ("base", "C", "R", "U"):
        assert np.array_equal(getattr(back, name), getattr(a, name)), name
    assert back.rank == a.rank
    for frozen in (back.base, back.C, back.R):
        assert not frozen.flags.writeable
    back.U[0, 0, 0] += 1.0  # the core stays trainable after a reload
    write_checkpoint(path, a)
    assert path.read_bytes() == first


# ---------------------------------------------------------- format oracle

def test_header_fields_and_kind_codes(tmp_path):
    rng = np.random.default_rng(3)
    w = rng.standard_normal((2, 2, 2))
    cases = [
        (w, 0),
        (tcur(rng.standard_normal((4, 4, 2)), 2), 1),
        (init_adapter(rng.standard_normal((4, 4, 2)), 2), 2),
    ]
    for payload, kind in cases:
        path = tmp_path / f"k{kind}.tcur"
        write_checkpoint(path, payload)
        raw = path.read_bytes()
        assert raw[:4] == b"TCUR"
        version, got_kind, meta_len = struct.unpack_from("<III", raw, 4)
        assert version == 1
        assert got_kind == kind
        meta = json.loads(raw[16:16 + meta_len])
        assert meta["layout"] == LAYOUT
        assert all(len(e["dims"]) == 3 for e in meta["tensors"])


def test_payload_is_slice_major_little_endian_doubles(tmp_path):
    t = np.arange(8, dtype=float).reshape(2, 2, 2)  # t[i, j, k] = 4i + 2j + k
    path = tmp_path / "w.tcur"
    write_checkpoint(path, t)
    raw = path.read_bytes()
    (meta_len,) = struct.unpack_from("<I", raw, 12)
    payload = raw[16 + meta_len:-4]
    # slice 0 row-major, then slice 1 row-major
    want = struct.pack("<8d", 0.0, 2.0, 4.0, 6.0, 1.0, 3.0, 5.0, 7.0)
    assert payload == want


def test_crc_matches_independent_recomputation(tmp_path):
    path = tmp_path / "w.tcur"
    write_checkpoint(path, np.random.default_rng(4).standard_normal((3, 3, 2)))
    raw = path.read_bytes()
    (stored,) = struct.unpack_from("<I", raw, len(raw) - 4)
    assert stored == zlib.crc32(raw[4:-4]) & 0xFFFFFFFF


def test_reader_accepts_independently_crafted_file(tmp_path):
    t = np.arange(8, dtype=float).reshape(2, 2, 2)
    payload = struct.pack("<8d", 0.0, 2.0, 4.0, 6.0, 1.0, 3.0, 5.0, 7.0)
    path = tmp_path / "crafted.tcur"
    path.write_bytes(craft(raw_meta((2, 2, 2)), payload))
    assert np.array_equal(read_checkpoint(path), t)


# ------------------------------------------------------------- corruption

def test_every_single_byte_flip_is_detected(tmp_path):
    path = tmp_path / "w.tcur"
    write_checkpoint(path, np.random.default_rng(5).standard_normal((1, 2, 2)))
    good = path.read_bytes()
    for pos in range(len(good)):
        bad = bytearray(good)
        bad[pos] ^= 0x01
        path.write_bytes(bytes(bad))
        with pytest.raises(CheckpointError):
            read_checkpoint(path)


def test_truncation_detected(tmp_path):
    path = tmp_path / "w.tcur"
    write_checkpoint(path, np.ones((2, 2, 2)))
    good = path.read_bytes()
    for cut in (0, 3, 10, len(good) - 1):
        path.write_bytes(good[:cut])
        with pytest.raises(CorruptCheckpoint):
            read_checkpoint(path)


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "w.tcur"
    path.write_bytes(craft(raw_meta((1, 1, 1)), struct.pack("<d", 5.0), version=9))
    with pytest.raises(UnsupportedVersion):
        read_checkpoint(path)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "w.tcur"
    path.write_bytes(craft(raw_meta((1, 1, 1)), struct.pack("<d", 5.0), kind=7))
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)


def test_unknown_layout_rejected(tmp_path):
    meta = raw_meta((1, 1, 1))
    meta["layout"] = "column-major"
    path = tmp_path / "w.tcur"
    path.write_bytes(craft(meta, struct.pack("<d", 5.0)))
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)


@pytest.mark.parametrize("dims", [[2, 2], [2, 2, 0], [2, 2, -1], [2, 2, 2, 2]])
def test_bad_manifest_dims_rejected(tmp_path, dims):
    meta = raw_meta(dims)
    path = tmp_path / "w.tcur"
    path.write_bytes(craft(meta, b"\x00" * 64))
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)


@pytest.mark.parametrize("meta", [
    [],
    "hi",
    {**raw_meta((1, 1, 1)), "tensors": [1]},
    {**raw_meta((1, 1, 1)), "tensors": [{"name": ["tensor"], "dims": [1, 1, 1]}]},
    {**raw_meta((1, 1, 1)), "tensors": [{"name": "tensor", "dims": 5}]},
], ids=["meta-list", "meta-str", "entry-int", "name-list", "dims-int"])
def test_non_object_meta_or_manifest_entry_rejected(tmp_path, meta):
    # valid CRC, so only the structural checks can catch these
    path = tmp_path / "w.tcur"
    path.write_bytes(craft(meta, struct.pack("<d", 5.0)))
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)


def test_payload_length_mismatch_rejected(tmp_path):
    path = tmp_path / "w.tcur"
    # declares 1x1x1 (8 bytes) but carries 16
    path.write_bytes(craft(raw_meta((1, 1, 1)), struct.pack("<2d", 1.0, 2.0)))
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)
    # declares 2x1x1 (16 bytes) but carries 8
    path.write_bytes(craft(raw_meta((2, 1, 1)), struct.pack("<d", 1.0)))
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)


def test_smuggled_nan_rejected(tmp_path):
    path = tmp_path / "w.tcur"
    path.write_bytes(craft(raw_meta((1, 1, 1)), struct.pack("<d", float("nan"))))
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)


def test_writer_rejects_bad_payloads(tmp_path):
    path = tmp_path / "w.tcur"
    with pytest.raises(ValueError):
        write_checkpoint(path, np.ones((3, 3)))  # not third-order
    bad = np.ones((2, 2, 2))
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        write_checkpoint(path, bad)
    with pytest.raises(TypeError):
        write_checkpoint(path, {"not": "a payload"})


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        read_checkpoint(tmp_path / "nope.tcur")
