"""Checkpoint format tests.

The crafting helper below re-derives the container from its documented
layout with struct/json/zlib only, so these tests hold the writer and
reader to the format, not to each other.
"""

import dataclasses
import errno
import hashlib
import json
import os
import stat
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcur import (
    Adapter,
    CheckpointError,
    CorruptCheckpoint,
    DimMismatch,
    NonFiniteInput,
    RankOutOfRange,
    TcurError,
    TcurFactors,
    UnsupportedVersion,
    checkpoint,
    init_adapter,
    read_checkpoint,
    reconstruct,
    tcur,
    write_checkpoint,
)
from tcur.cli import main

LAYOUT = "slice-major:frontal-slice-contiguous,row-major-within-slice,f64-le"
KIND_NAMES = ("raw_tensor", "tcur_factors", "adapter")
#: Factor metadata records the fixed pinv cutoff factor, float64 eps.
SV_TOL_FACTOR = 2.220446049250313e-16


def render(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


def craft(meta, payload: bytes, version: int = 1, kind: int = 0) -> bytes:
    """A container around ``meta`` (a dict to render, or raw bytes)."""
    meta_b = meta if isinstance(meta, bytes) else render(meta)
    body = struct.pack("<III", version, kind, len(meta_b)) + meta_b + payload
    return b"TCUR" + body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def raw_meta(dims) -> dict:
    return {
        "kind": "raw_tensor",
        "layout": LAYOUT,
        "stack_order": "layer-major;roles=q,k,v,o",
        "tensors": [{"name": "tensor", "dims": list(dims)}],
    }


def slice_major(t: np.ndarray) -> bytes:
    n1, n2, n3 = t.shape
    return b"".join(struct.pack("<d", t[i, j, k])
                    for k in range(n3) for i in range(n1) for j in range(n2))


def craft_kind(kind: int, tensors: dict, extras: dict) -> bytes:
    """A file of ``kind`` built from the layout: manifest in dict order."""
    meta = {
        **raw_meta((1, 1, 1)),
        "kind": KIND_NAMES[kind],
        "tensors": [{"name": n, "dims": list(t.shape)} for n, t in tensors.items()],
        **extras,
    }
    payload = b"".join(slice_major(t) for t in tensors.values())
    return craft(meta, payload, kind=kind)


def factor_parts(f: TcurFactors, **edit) -> tuple[dict, dict]:
    """The file parts of ``f`` with the parts named in ``edit`` replaced,
    unchecked: a TcurFactors refuses most such edits when it is built."""
    p = {"C": f.C, "U_core": f.U_core, "R": f.R, "rows": f.rows, "cols": f.cols, **edit}
    tensors = {n: p[n] for n in ("C", "U_core", "R")}
    extras = {"rank": len(p["rows"]), "rows": np.asarray(p["rows"]).tolist(),
              "cols": np.asarray(p["cols"]).tolist(), "sv_tol_factor": SV_TOL_FACTOR}
    return tensors, extras


def adapter_parts(a: Adapter) -> tuple[dict, dict]:
    return {"base": a.base, "C": a.C, "R": a.R, "U": a.U}, {"rank": a.U.shape[0]}


def trained_adapter(seed: int) -> Adapter:
    rng = np.random.default_rng(seed)
    a = init_adapter(rng.standard_normal((4, 5, 2)), 2)
    a.U = rng.standard_normal(a.U.shape)
    return a


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


@pytest.mark.parametrize("ptype", [TcurFactors, Adapter])
def test_write_and_read_each_build_the_payload_once(tmp_path, monkeypatch, ptype):
    # The writer rebuilds the payload to re-run its checks; the reader
    # builds the payload from the file, then only renders it.
    payload = _factors(3) if ptype is TcurFactors else trained_adapter(5)
    built = []
    check = ptype.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(ptype, "__post_init__", counted)
    path = tmp_path / "p.tcur"
    write_checkpoint(path, payload)
    assert len(built) == 1 and built[0] is not payload
    built.clear()
    back = read_checkpoint(path)
    assert len(built) == 1 and built[0] is back


# --------------------------------------------------------- in-place writes

def fresh_bytes(tmp_path, payload) -> bytes:
    path = tmp_path / "fresh.tcur"
    write_checkpoint(path, payload)
    return path.read_bytes()


@pytest.mark.parametrize("old_shape, new_shape", [((30, 20, 8), (4, 5, 3)),
                                                  ((4, 5, 3), (30, 20, 8))],
                         ids=["over-longer", "over-shorter"])
def test_overwrite_gives_the_bytes_of_a_fresh_write(tmp_path, old_shape, new_shape):
    rng = np.random.default_rng(21)
    new = rng.standard_normal(new_shape)
    path = tmp_path / "w.tcur"
    write_checkpoint(path, rng.standard_normal(old_shape))
    write_checkpoint(path, new)
    assert path.read_bytes() == fresh_bytes(tmp_path, new)


def test_write_through_a_symlink_updates_the_target(tmp_path):
    rng = np.random.default_rng(22)
    target, link = tmp_path / "target.tcur", tmp_path / "link.tcur"
    write_checkpoint(target, rng.standard_normal((6, 5, 4)))
    link.symlink_to(target)
    new = rng.standard_normal((2, 3, 2))
    write_checkpoint(link, new)
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == fresh_bytes(tmp_path, new)


def test_hard_link_sees_the_new_bytes_and_the_mode_survives(tmp_path):
    rng = np.random.default_rng(23)
    path, other = tmp_path / "w.tcur", tmp_path / "other.tcur"
    write_checkpoint(path, rng.standard_normal((6, 5, 4)))
    os.link(path, other)
    os.chmod(path, 0o640)
    new = trained_adapter(24)
    write_checkpoint(path, new)
    assert other.read_bytes() == path.read_bytes() == fresh_bytes(tmp_path, new)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


@pytest.mark.parametrize("existing", [True, False], ids=["over-a-file", "new-file"])
def test_failed_write_raises_and_leaves_a_file_the_reader_rejects(tmp_path, monkeypatch,
                                                                 existing):
    rng = np.random.default_rng(25)
    path = tmp_path / "w.tcur"
    if existing:
        write_checkpoint(path, rng.standard_normal((8, 9, 6)))

    def failing_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        write, calls = fh.write, []

        def write_then_fail(data):
            calls.append(data)
            if len(calls) > 2:  # the header, then the first chunk
                raise OSError(errno.ENOSPC, "injected: no space left on device")
            return write(data)

        fh.write = write_then_fail
        return fh

    monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="injected"):
        write_checkpoint(path, rng.standard_normal((8, 9, 6)))
    monkeypatch.undo()
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)


def test_write_to_devnull():
    write_checkpoint(os.devnull, np.ones((2, 3, 2)))


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


def test_writer_matches_independently_crafted_factors_and_adapter(tmp_path):
    f = tcur(np.random.default_rng(8).standard_normal((5, 6, 3)), 2)
    a = trained_adapter(9)
    cases = [
        (f, craft_kind(1, *factor_parts(f))),
        (a, craft_kind(2, *adapter_parts(a))),
    ]
    path = tmp_path / "w.tcur"
    for payload, want in cases:
        write_checkpoint(path, payload)
        assert path.read_bytes() == want
        back = read_checkpoint(path)
        write_checkpoint(path, back)
        assert path.read_bytes() == want


# ------------------------------------------------------ memory high-water

@pytest.mark.parametrize("kind", [0, 2])
def test_write_and_read_peak_memory(tmp_path, kind, traced_peak):
    # The writer holds one slice-major buffer of at most a sixth of the
    # payload; the reader holds the arrays it returns plus that buffer,
    # never the file bytes.
    a = init_adapter(np.random.default_rng(10).standard_normal((96, 96, 16)), 8)
    payload = a.base if kind == 0 else a
    path = tmp_path / "big.tcur"
    write_peak = traced_peak(lambda: write_checkpoint(path, payload))
    size = path.stat().st_size
    read_peak = traced_peak(lambda: read_checkpoint(path))
    assert write_peak <= 0.25 * size, f"write peak {write_peak / size:.2f}x file size"
    assert read_peak <= 1.2 * size, f"read peak {read_peak / size:.2f}x file size"


@pytest.mark.parametrize("kind", [0, 2])
def test_read_of_a_large_file_peaks_near_its_size(tmp_path, kind, traced_peak):
    a = init_adapter(np.random.default_rng(17).standard_normal((192, 192, 16)), 8)
    path = tmp_path / "big.tcur"
    write_checkpoint(path, a.base if kind == 0 else a)
    size = path.stat().st_size
    assert size >= 4 << 20
    back = []
    peak = traced_peak(lambda: back.append(read_checkpoint(path)))
    assert peak <= 1.2 * size, f"read peak {peak / size:.2f}x file size"
    for t in [back[0]] if kind == 0 else [back[0].base, back[0].C, back[0].R, back[0].U]:
        assert t.dtype == np.float64 and t.flags.c_contiguous


@pytest.mark.parametrize("shape", [(384, 384, 2), (1, 4096, 1), (3, 1, 700)],
                         ids=["row-blocks", "row-pieces", "many-slices"])
def test_tensor_larger_than_the_read_buffer_round_trips(tmp_path, shape):
    # The buffer holds at most a sixth of the payload, so a 384x384
    # slice is read in row blocks and a single long row in pieces.
    t = np.random.default_rng(18).standard_normal(shape)
    path = tmp_path / "w.tcur"
    write_checkpoint(path, t)
    first = path.read_bytes()
    back = read_checkpoint(path)
    assert back.tobytes() == t.tobytes() and back.flags.c_contiguous
    write_checkpoint(path, back)
    assert path.read_bytes() == first


@pytest.mark.parametrize("budget", [8, 24, 96, 1 << 20])
def test_every_read_chunking_reads_the_same_arrays(tmp_path, monkeypatch, budget):
    # Whole slices, row blocks and row pieces, each at several buffer
    # sizes, written and read: the bytes are those of the default buffer.
    rng = np.random.default_rng(19)
    payloads = (rng.standard_normal((3, 4, 5)), rng.standard_normal((1, 7, 3)),
                rng.standard_normal((5, 1, 4)), tcur(rng.standard_normal((6, 7, 4)), 3),
                trained_adapter(20))
    want = [fresh_bytes(tmp_path, p) for p in payloads]
    monkeypatch.setattr(checkpoint, "_BUF_BYTES", budget)
    path = tmp_path / "w.tcur"
    for payload, first in zip(payloads, want):
        write_checkpoint(path, payload)
        assert path.read_bytes() == first
        back = read_checkpoint(path)
        write_checkpoint(path, back)
        assert path.read_bytes() == first


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


@pytest.mark.parametrize("case", ["overruns-file", "not-json", "not-utf8", "nested-too-deep"])
def test_unreadable_meta_rejected(tmp_path, case):
    # valid CRC, so only the meta parsing can catch these
    meta = {"not-json": b"{tensors", "not-utf8": b'{"\xff":1}',
            "nested-too-deep": b"[" * 100_000 + b"]" * 100_000}.get(case)
    raw = craft(meta or raw_meta((1, 1, 1)), struct.pack("<d", 5.0))
    if case == "overruns-file":  # meta_len reaches past the CRC
        body = raw[4:-4]
        body = body[:8] + struct.pack("<I", len(body)) + body[12:]
        raw = b"TCUR" + body + struct.pack("<I", zlib.crc32(body))
    path = tmp_path / "w.tcur"
    path.write_bytes(raw)
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)
    # the CLI reports it as a checkpoint error (exit 2), not a traceback
    assert main(["decompose", str(path), "--rank", "1", "--out", str(tmp_path / "f.tcur")]) == 2


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


def test_manifest_larger_than_the_file_rejected_before_allocating(tmp_path, traced_peak):
    # 65536^3 doubles would be 2 PiB; the manifest is checked against the
    # file size before any tensor is allocated.
    path = tmp_path / "w.tcur"
    path.write_bytes(craft(raw_meta((65536, 65536, 65536)), struct.pack("<d", 1.0)))
    peak = traced_peak(lambda: pytest.raises(CorruptCheckpoint, read_checkpoint, path))
    assert peak < 1 << 20


@pytest.mark.parametrize("doubles, message", [
    (7, "tensor payload overruns file"),
    (9, "payload length mismatch"),
])
def test_tensor_payload_that_does_not_fill_the_manifest_rejected(tmp_path, doubles, message):
    # CRC-valid files whose payload is one double short of, or past, 2x2x2
    path = tmp_path / "w.tcur"
    path.write_bytes(craft(raw_meta((2, 2, 2)), struct.pack(f"<{doubles}d", *range(doubles))))
    with pytest.raises(CorruptCheckpoint, match=message):
        read_checkpoint(path)
    # a later tensor that overruns is caught as well
    meta = {**raw_meta((1, 1, 1)), "tensors": [{"name": "tensor", "dims": [1, 1, 1]},
                                               {"name": "tensor", "dims": [2, 2, 2]}]}
    path.write_bytes(craft(meta, struct.pack("<8d", *range(8))))
    with pytest.raises(CorruptCheckpoint, match="tensor payload overruns file"):
        read_checkpoint(path)


def _structural_faults():
    payload = np.zeros((256, 256, 5)).tobytes()  # several read buffers long
    overrun = craft(raw_meta((256, 256, 5)), payload)
    body = overrun[4:-4]
    body = body[:8] + struct.pack("<I", len(body)) + body[12:]
    return {
        "meta-not-json": (craft(render(raw_meta((256, 256, 5)))[1:], payload),
                          "meta JSON unreadable"),
        "meta-overruns-file": (b"TCUR" + body + struct.pack("<I", zlib.crc32(body)),
                               "meta length overruns file"),
        "tensor-overruns-file": (craft(raw_meta((256, 256, 6)), payload),
                                 "tensor payload overruns file"),
        "unknown-kind": (craft(raw_meta((256, 256, 5)), payload, kind=7),
                         "unknown payload kind"),
    }


@pytest.mark.parametrize("case", sorted(_structural_faults()))
def test_checksum_is_judged_before_structure(tmp_path, case):
    fresh, message = _structural_faults()[case]
    (crc,) = struct.unpack_from("<I", fresh, len(fresh) - 4)
    path = tmp_path / "w.tcur"
    path.write_bytes(fresh[:-4] + struct.pack("<I", crc ^ 1))  # stale checksum
    with pytest.raises(CorruptCheckpoint, match="CRC-32 mismatch"):
        read_checkpoint(path)
    path.write_bytes(fresh)  # checksum recomputed: the structural error shows
    with pytest.raises(CorruptCheckpoint, match=message):
        read_checkpoint(path)


def test_smuggled_nan_rejected(tmp_path):
    path = tmp_path / "w.tcur"
    path.write_bytes(craft(raw_meta((1, 1, 1)), struct.pack("<d", float("nan"))))
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)


def test_smuggled_nan_adapter_core_rejected(tmp_path):
    # The Adapter itself refuses a NaN core; the reader still names the file.
    tensors, extras = adapter_parts(trained_adapter(5))
    tensors["U"] = tensors["U"].copy()
    tensors["U"][1, 0, 1] = np.nan
    path = tmp_path / "a.tcur"
    path.write_bytes(craft_kind(2, tensors, extras))  # valid CRC
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)


def test_writer_rejects_bad_payloads(tmp_path):
    # Each is refused before the file is opened, so the old file stays.
    path = tmp_path / "w.tcur"
    write_checkpoint(path, np.random.default_rng(26).standard_normal((6, 5, 4)))
    before = path.read_bytes()
    bad = np.ones((2, 2, 2))
    bad[0, 0, 0] = np.inf
    core_misfit = trained_adapter(27)
    core_misfit.U = np.ones((3, 3, 2))
    for payload, err, match in [
            (np.ones((3, 3)), ValueError, "third-order"),
            (np.ones((0, 2, 2)), ValueError, "positive dims"),  # a file the reader would refuse
            (bad, ValueError, "infinite"),
            (np.ones((2, 2, 2)) + 1j, ValueError, "complex"),  # not cut to its real part
            (core_misfit, ValueError, None),
            ({"not": "a payload"}, TypeError, None)]:
        with pytest.raises(err, match=match):
            write_checkpoint(path, payload)
        assert path.read_bytes() == before


def test_bad_argument_value_errors_are_value_errors():
    # so the writer's documented ValueError covers them, and `except TcurError` still does
    for err in (DimMismatch, NonFiniteInput, RankOutOfRange):
        assert issubclass(err, ValueError) and issubclass(err, TcurError), err


@pytest.mark.parametrize("case", ["repeated-name", "junk-then-tensor", "kind-disagrees"])
def test_manifest_the_writer_would_not_write_rejected(tmp_path, case):
    one, two = np.full((1, 1, 1), 1.0), np.full((1, 1, 1), 2.0)
    if case == "kind-disagrees":
        raw = craft({**raw_meta((1, 1, 1)), "kind": "adapter"}, slice_major(one))
    else:
        first = "tensor" if case == "repeated-name" else "junk"
        raw = craft({**raw_meta((1, 1, 1)),
                     "tensors": [{"name": first, "dims": [1, 1, 1]},
                                 {"name": "tensor", "dims": [1, 1, 1]}]},
                    slice_major(one) + slice_major(two))
    path = tmp_path / "w.tcur"
    path.write_bytes(raw)
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)


@pytest.mark.parametrize("meta", [
    render({**raw_meta((1, 1, 1)), "extra": 1}),
    render({**raw_meta((1, 1, 1)), "stack_order": "role-major"}),
    json.dumps(raw_meta((1, 1, 1)), sort_keys=True).encode("utf-8"),
], ids=["extra-key", "other-stack-order", "whitespace"])
def test_non_canonical_meta_rejected(tmp_path, meta):
    path = tmp_path / "w.tcur"
    path.write_bytes(craft(meta, struct.pack("<d", 5.0)))
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)


def _factors(rank):
    return tcur(np.random.default_rng(12).standard_normal((6, 7, 4)), rank)


# Each helper returns a payload and an edit that breaks it, or no edit if
# the payload is already broken. The writer gets the payload, or
# ``dataclasses.replace(payload, **edit)``, which refuses the edit when it
# is built; the reader gets a file crafted from the payload's parts with
# the edit applied.

def _bad_factors_rows():
    return _factors(5), {"rows": np.array([0, 0, 99])}


def _fractional_factors_rows():
    # each row is 0.25 above a valid one, so truncation would hide it
    f = _factors(5)
    return f, {"rows": f.rows + 0.25}


def _core_not_row_sample():
    # every shape agrees, but the core is not W(I, J, :) = C[rows]
    f = _factors(3)
    return f, {"U_core": f.U_core + 1}


def _rows_2d():
    # _validate_index_set flattens it unless told the expected size
    f = _factors(3)
    return f, {"rows": f.rows[None, :]}


def _rows_edited_in_place():
    # Built valid, then edited: the writer sees it only by re-running the
    # factor set's own checks.
    f = _factors(3)
    f.rows[0] = f.rows[1]
    return f, {}


def _bad_adapter_core():
    # The Adapter checks U's shape on construction; training may reassign it.
    a = init_adapter(np.random.default_rng(13).standard_normal((5, 6, 2)), 2)
    a.U = np.zeros((3, 3, 2))
    return a, {}


CROSS_FIELD = {
    "rows-not-an-index-set": (1, _bad_factors_rows),
    "rows-fractional": (1, _fractional_factors_rows),
    "rows-edited-in-place": (1, _rows_edited_in_place),
    "core-dims-not-rank": (2, _bad_adapter_core),
    "core-not-row-sample": (1, _core_not_row_sample),
    "rows-2d": (1, _rows_2d),
}


@pytest.mark.parametrize("case", sorted(CROSS_FIELD))
def test_cross_field_inconsistency_rejected_on_read(tmp_path, case):
    kind, make = CROSS_FIELD[case]
    payload, edit = make()
    parts = factor_parts(payload, **edit) if kind == 1 else adapter_parts(payload)
    path = tmp_path / "w.tcur"
    path.write_bytes(craft_kind(kind, *parts))  # valid CRC
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)


# No factor set can hold a core other than C[rows], so that case has no writer side.
@pytest.mark.parametrize("case", sorted(set(CROSS_FIELD) - {"core-not-row-sample"}))
def test_cross_field_inconsistency_rejected_before_write(tmp_path, case):
    _, make = CROSS_FIELD[case]
    payload, edit = make()
    path = tmp_path / "w.tcur"
    write_checkpoint(path, np.ones((2, 2, 2)))
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_checkpoint(path, dataclasses.replace(payload, **edit) if edit else payload)
    assert path.read_bytes() == before


@pytest.mark.parametrize("tol", [float("nan"), 0.0, 1e-12, 2 * SV_TOL_FACTOR],
                         ids=["nan", "zero", "1e-12", "twice-eps"])
def test_factor_sv_tol_factor_other_than_the_constant_rejected_on_read(tmp_path, tol):
    tensors, extras = factor_parts(tcur(np.random.default_rng(11).standard_normal((6, 7, 4)), 3))
    path = tmp_path / "f.tcur"
    path.write_bytes(craft_kind(1, tensors, {**extras, "sv_tol_factor": tol}))  # valid CRC
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("rank", [1, 3, 7])
def test_recorded_rank_other_than_the_arrays_rejected_on_read(tmp_path, kind, rank):
    # Rank 2 arrays; the rank in the metadata is derived, never trusted.
    payload = (None, tcur(np.random.default_rng(12).standard_normal((5, 6, 3)), 2),
               trained_adapter(12))[kind]
    tensors, extras = (None, factor_parts, adapter_parts)[kind](payload)
    path = tmp_path / "w.tcur"
    path.write_bytes(craft_kind(kind, tensors, {**extras, "rank": rank}))  # valid CRC
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)


def test_adapter_factor_that_does_not_fit_the_base_rejected_on_read(tmp_path):
    # A file whose rank, C, R and U agree but whose base has another n2:
    # the Adapter raises DimMismatch, and the reader names the file.
    a = trained_adapter(13)
    tensors, extras = adapter_parts(a)
    tensors["base"] = np.ones((4, 6, 2))
    with pytest.raises(DimMismatch):
        Adapter(**tensors)
    path = tmp_path / "a.tcur"
    path.write_bytes(craft_kind(2, tensors, extras))  # valid CRC
    with pytest.raises(CorruptCheckpoint):
        read_checkpoint(path)


# Small files as the format has always written them, with the rank and the
# pinv cutoff factor recorded in the metadata. The digests are those of the
# files the writer produced for these arrays before both became derived.
_C = np.arange(1.0, 13.0).reshape(3, 2, 2)
_R = -np.arange(1.0, 17.0).reshape(2, 4, 2)
EARLIER_FILES = {
    1: ({"C": _C, "U_core": _C[[0, 2]], "R": _R},
        {"rank": 2, "rows": [0, 2], "cols": [1, 3], "sv_tol_factor": SV_TOL_FACTOR},
        "92fbb1954dbffb7eb1260b38c11a41b3b8c8b3b6310d08a23e9d96bf9ffe4015"),
    2: ({"base": np.arange(24.0).reshape(3, 4, 2) / 8, "C": _C, "R": _R,
         "U": np.arange(1.0, 9.0).reshape(2, 2, 2) / 4},
        {"rank": 2},
        "59dc40884ef141f541acf8fddbe9c1092e023b5cc0ec1421046192edfb4336ac"),
}


@pytest.mark.parametrize("kind", sorted(EARLIER_FILES))
def test_earlier_files_read_back_equal(tmp_path, kind):
    tensors, extras, digest = EARLIER_FILES[kind]
    raw = craft_kind(kind, tensors, extras)
    assert hashlib.sha256(raw).hexdigest() == digest
    path = tmp_path / "old.tcur"
    path.write_bytes(raw)
    back = read_checkpoint(path)
    for name, t in tensors.items():
        assert np.array_equal(getattr(back, name), t), name
    assert back.rank == 2
    if kind == 1:
        assert back.rows.tolist() == [0, 2] and back.cols.tolist() == [1, 3]
    write_checkpoint(path, back)
    assert path.read_bytes() == raw


# ------------------------------------------------------------------ fuzzing

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=4),
    max_leaves=8,
)


def _valid_file(kind: int) -> bytes:
    payload = (
        np.random.default_rng(14).standard_normal((3, 4, 2)),
        tcur(np.random.default_rng(15).standard_normal((4, 5, 3)), 2),
        trained_adapter(16),
    )[kind]
    with tempfile.TemporaryDirectory() as d:
        write_checkpoint(Path(d) / "v.tcur", payload)
        return (Path(d) / "v.tcur").read_bytes()


VALID_FILES = {kind: _valid_file(kind) for kind in range(3)}


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(VALID_FILES)), data=st.data())
def test_reader_fuzz_one_meta_value(kind, data):
    # One meta value replaced, CRC recomputed: the reader either refuses
    # the file with a CheckpointError or returns what rewrites to it.
    good = VALID_FILES[kind]
    (meta_len,) = struct.unpack_from("<I", good, 12)
    meta = json.loads(good[16:16 + meta_len])
    holder, key = data.draw(st.sampled_from(
        [(meta, k) for k in sorted(meta)]
        + [(entry, k) for entry in meta["tensors"] for k in ("name", "dims")]
    ), label="target")
    holder[key] = data.draw(st.just(holder[key]) | JSON_VALUES, label="value")
    raw = craft(meta, good[16 + meta_len:-4], kind=kind)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f.tcur"
        path.write_bytes(raw)
        try:
            back = read_checkpoint(path)
        except CheckpointError:
            return
        write_checkpoint(path, back)
        assert path.read_bytes() == raw


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        read_checkpoint(tmp_path / "nope.tcur")
