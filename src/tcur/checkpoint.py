"""Binary checkpoint container for tensors, CUR factors, and adapters.

Layout (all integers little-endian u32):

    bytes 0..4      magic "TCUR"
    bytes 4..8      format version (currently 1)
    bytes 8..12     payload kind: 0 raw_tensor, 1 tcur_factors, 2 adapter
    bytes 12..16    meta_len
    next meta_len   meta JSON (utf-8): layout descriptor, per-tensor dims,
                    rank / index-set metadata
    next            tensor payloads, little-endian f64, slice-major
                    (frontal slice k contiguous, row-major within slice),
                    concatenated in the meta's declared order
    last 4          CRC-32 over everything between the magic and this field

Round trips are byte-exact: doubles are written verbatim and the meta JSON
is rendered deterministically.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from .adapter import Adapter
from .decomp import TcurFactors
from .errors import CorruptCheckpoint, UnsupportedVersion

MAGIC = b"TCUR"
VERSION = 1

KIND_RAW = 0
KIND_FACTORS = 1
KIND_ADAPTER = 2
_KIND_NAMES = {KIND_RAW: "raw_tensor", KIND_FACTORS: "tcur_factors", KIND_ADAPTER: "adapter"}

#: Byte order of every tensor payload; part of the format.
LAYOUT = "slice-major:frontal-slice-contiguous,row-major-within-slice,f64-le"
#: Slice ordering law for stacked attention weights; recorded so files are
#: interpretable without the producing code.
STACK_ORDER = "layer-major;roles=q,k,v,o"

_HEADER = struct.Struct("<III")  # version, kind, meta_len


def _tensor_bytes(t: np.ndarray) -> bytes:
    # (n1, n2, n3) -> slice-major: slice k contiguous, row-major within.
    return np.ascontiguousarray(t.transpose(2, 0, 1)).astype("<f8").tobytes()


def _tensor_from_bytes(buf: bytes, dims: tuple[int, int, int]) -> np.ndarray:
    n1, n2, n3 = dims
    flat = np.frombuffer(buf, dtype="<f8")
    return flat.reshape(n3, n1, n2).transpose(1, 2, 0).copy()


def _check_writable_payload(tensors: dict[str, np.ndarray]) -> None:
    for name, t in tensors.items():
        t = np.asarray(t)
        if t.ndim != 3:
            raise ValueError(f"checkpoint tensor {name!r} must be third-order, got {t.shape}")
        if not np.isfinite(t).all():
            raise ValueError(f"checkpoint tensor {name!r} contains non-finite entries")


def _payload_parts(payload) -> tuple[int, dict, dict[str, np.ndarray]]:
    """Split a payload object into (kind, meta-extras, named tensors)."""
    if isinstance(payload, np.ndarray):
        t = np.asarray(payload, dtype=np.float64)
        return KIND_RAW, {}, {"tensor": t}
    if isinstance(payload, TcurFactors):
        extras = {
            "rank": int(payload.rank),
            "rows": [int(i) for i in payload.rows],
            "cols": [int(j) for j in payload.cols],
            "sv_tol_factor": float(payload.sv_tol_factor),
        }
        return KIND_FACTORS, extras, {
            "C": payload.C, "U_core": payload.U_core, "R": payload.R,
        }
    if isinstance(payload, Adapter):
        extras = {"rank": int(payload.rank)}
        return KIND_ADAPTER, extras, {
            "base": payload.base, "C": payload.C, "R": payload.R, "U": payload.U,
        }
    raise TypeError(f"unsupported checkpoint payload type: {type(payload).__name__}")


def write_checkpoint(path, payload) -> None:
    """Serialize a raw tensor, TcurFactors, or Adapter to ``path``.

    Raises:
        ValueError: payload violates its invariants (shape, finiteness).
        OSError: the file cannot be written.
    """
    kind, extras, tensors = _payload_parts(payload)
    _check_writable_payload(tensors)

    meta = {
        "kind": _KIND_NAMES[kind],
        "layout": LAYOUT,
        "stack_order": STACK_ORDER,
        "tensors": [
            {"name": name, "dims": [int(d) for d in np.asarray(t).shape]}
            for name, t in tensors.items()
        ],
    }
    meta.update(extras)
    meta_bytes = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")

    body = _HEADER.pack(VERSION, kind, len(meta_bytes)) + meta_bytes
    for t in tensors.values():
        body += _tensor_bytes(np.asarray(t, dtype=np.float64))
    crc = zlib.crc32(body) & 0xFFFFFFFF
    Path(path).write_bytes(MAGIC + body + struct.pack("<I", crc))


def read_checkpoint(path):
    """Deserialize; returns an ndarray, TcurFactors, or Adapter.

    Validates magic, version, checksum, and dims before constructing any
    value.

    Raises:
        CorruptCheckpoint: bad magic, checksum, or structural metadata.
        UnsupportedVersion: recognized container, unknown version.
        OSError: the file cannot be read.
    """
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + _HEADER.size + 4:
        raise CorruptCheckpoint(f"file too short ({len(data)} bytes)")
    if data[:4] != MAGIC:
        raise CorruptCheckpoint(f"bad magic {data[:4]!r}")

    version, kind, meta_len = _HEADER.unpack_from(data, 4)
    if version != VERSION:
        raise UnsupportedVersion(f"format version {version}, expected {VERSION}")

    body = data[4:-4]
    (stored_crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
        raise CorruptCheckpoint("CRC-32 mismatch")

    if kind not in _KIND_NAMES:
        raise CorruptCheckpoint(f"unknown payload kind {kind}")
    meta_start = 4 + _HEADER.size
    payload_start = meta_start + meta_len
    if payload_start > len(data) - 4:
        raise CorruptCheckpoint("meta length overruns file")
    try:
        meta = json.loads(data[meta_start:payload_start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CorruptCheckpoint(f"meta JSON unreadable: {e}") from e
    if not isinstance(meta, dict):
        raise CorruptCheckpoint(f"meta JSON is a {type(meta).__name__}, not an object")

    if meta.get("layout") != LAYOUT:
        raise CorruptCheckpoint(f"unknown tensor layout {meta.get('layout')!r}")

    manifest = meta.get("tensors")
    if not isinstance(manifest, list) or not manifest:
        raise CorruptCheckpoint("missing tensor manifest")
    tensors: dict[str, np.ndarray] = {}
    offset = payload_start
    for entry in manifest:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise CorruptCheckpoint(f"bad manifest entry: {entry!r}")
        dims = entry.get("dims", [])
        if (not isinstance(dims, list) or len(dims) != 3
                or any(not isinstance(d, int) or d < 1 for d in dims)):
            raise CorruptCheckpoint(f"bad dims in manifest: {dims}")
        nbytes = 8 * dims[0] * dims[1] * dims[2]
        if offset + nbytes > len(data) - 4:
            raise CorruptCheckpoint("tensor payload overruns file")
        tensors[entry["name"]] = _tensor_from_bytes(
            data[offset:offset + nbytes], tuple(dims)
        )
        offset += nbytes
    if offset != len(data) - 4:
        raise CorruptCheckpoint(
            f"payload length mismatch: manifest ends at {offset}, file at {len(data) - 4}"
        )
    for name, t in tensors.items():
        if not np.isfinite(t).all():
            raise CorruptCheckpoint(f"tensor {name!r} contains non-finite entries")

    try:
        return _assemble(kind, meta, tensors)
    except (KeyError, TypeError, ValueError) as e:
        raise CorruptCheckpoint(f"inconsistent metadata: {e}") from e


def _assemble(kind: int, meta: dict, tensors: dict[str, np.ndarray]):
    if kind == KIND_RAW:
        return tensors["tensor"]
    if kind == KIND_FACTORS:
        return TcurFactors(
            C=tensors["C"],
            U_core=tensors["U_core"],
            R=tensors["R"],
            rows=np.asarray(meta["rows"], dtype=np.intp),
            cols=np.asarray(meta["cols"], dtype=np.intp),
            rank=int(meta["rank"]),
            sv_tol_factor=float(meta["sv_tol_factor"]),
        )
    base, c, r = tensors["base"], tensors["C"], tensors["R"]
    for frozen in (base, c, r):
        frozen.setflags(write=False)
    return Adapter(base=base, C=c, R=r, U=tensors["U"], rank=int(meta["rank"]))
