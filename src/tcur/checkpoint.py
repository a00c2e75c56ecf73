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
is rendered deterministically. One table (``_KINDS``) and one encoder
(``_encode``) serve both directions, so the reader accepts exactly what
the writer writes.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from .adapter import ROLE_ORDER, Adapter
from .decomp import TcurFactors
from .errors import CorruptCheckpoint, UnsupportedVersion

MAGIC = b"TCUR"
VERSION = 1

#: Byte order of every tensor payload; part of the format.
LAYOUT = "slice-major:frontal-slice-contiguous,row-major-within-slice,f64-le"
#: Slice ordering law for stacked attention weights; recorded so files are
#: interpretable without the producing code.
STACK_ORDER = "layer-major;roles=" + ",".join(ROLE_ORDER)

_HEADER = struct.Struct("<III")  # version, kind, meta_len

#: kind code -> (name, payload type, {tensor: dims} in file order,
#: {meta field: the type it is held as}). Each dim is a symbol shared by
#: the kind's tensors; "r" is the rank.
_KINDS = {
    0: ("raw_tensor", np.ndarray, {"tensor": "abc"}, {}),
    1: ("tcur_factors", TcurFactors, {"C": "arc", "U_core": "rrc", "R": "rbc"},
        {"rank": int, "rows": np.intp, "cols": np.intp, "sv_tol_factor": float}),
    2: ("adapter", Adapter, {"base": "abc", "C": "arc", "R": "rbc", "U": "rrc"},
        {"rank": int}),
}


def _encode(payload) -> tuple[int, bytes, dict[str, np.ndarray]]:
    """Validate a payload; returns (kind, meta JSON bytes, tensors in file order).

    Raises:
        TypeError: not a raw tensor, TcurFactors, or Adapter.
        ValueError: a tensor is not third-order with positive dims or has
            non-finite entries; dims disagree across tensors or with the
            rank; an index set is not ``rank`` ascending in-range indices;
            ``sv_tol_factor`` is not finite and >= 0.
    """
    kind = next((k for k, spec in _KINDS.items() if isinstance(payload, spec[1])), None)
    if kind is None:
        raise TypeError(f"unsupported checkpoint payload type: {type(payload).__name__}")
    name, ptype, dims, fields = _KINDS[kind]
    parts = {"tensor": payload} if ptype is np.ndarray else vars(payload)
    extras = {f: held(parts[f]) for f, held in fields.items()}
    size = {"r": extras["rank"]} if "rank" in extras else {}
    tensors = {}
    for tname, symbols in dims.items():
        t = tensors[tname] = np.asarray(parts[tname], dtype=np.float64)
        if (t.ndim != 3 or min(t.shape) < 1
                or any(size.setdefault(s, n) != n for s, n in zip(symbols, t.shape))):
            raise ValueError(f"checkpoint tensor {tname!r} has shape {t.shape}, "
                             f"not ({', '.join(symbols)}) with {size}")
        if not np.isfinite(t).all():
            raise ValueError(f"checkpoint tensor {tname!r} contains non-finite entries")
    for f, s in (("rows", "a"), ("cols", "b")):
        idx = extras.get(f)
        if idx is not None and (idx.shape != (size["r"],) or idx[0] < 0
                                or idx[-1] >= size[s] or (np.diff(idx) <= 0).any()):
            raise ValueError(f"{f} must be {size['r']} ascending indices below {size[s]}")
    if not 0.0 <= extras.get("sv_tol_factor", 0.0) < np.inf:
        raise ValueError(f"sv_tol_factor {extras['sv_tol_factor']} is not finite and >= 0")
    meta = {
        "kind": name,
        "layout": LAYOUT,
        "stack_order": STACK_ORDER,
        "tensors": [{"name": n, "dims": list(t.shape)} for n, t in tensors.items()],
        **{f: v.tolist() if isinstance(v, np.ndarray) else v for f, v in extras.items()},
    }
    return kind, json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8"), tensors


def write_checkpoint(path, payload) -> None:
    """Serialize a raw tensor, TcurFactors, or Adapter to ``path``.

    The payload is validated before the file is opened, then streamed one
    tensor at a time with a running CRC.

    Raises:
        TypeError: unsupported payload type.
        ValueError: payload violates its invariants (see ``_encode``).
        OSError: the file cannot be written.
    """
    kind, meta, tensors = _encode(payload)
    head = _HEADER.pack(VERSION, kind, len(meta)) + meta
    crc = zlib.crc32(head)
    with open(path, "wb") as fh:
        fh.write(MAGIC + head)
        for t in tensors.values():
            # (n1, n2, n3) -> slice-major: slice k contiguous, row-major within.
            t = np.ascontiguousarray(t.transpose(2, 0, 1), dtype="<f8")
            crc = zlib.crc32(t, crc)
            fh.write(t)
        fh.write(struct.pack("<I", crc))


def read_checkpoint(path):
    """Deserialize; returns an ndarray, TcurFactors, or Adapter.

    Checks magic, version, checksum, and that the manifest's dims cover
    the payload exactly, then rebuilds the payload and accepts it only if
    the writer would write this same file for it: every rule the writer
    enforces holds, and the meta JSON is the canonical rendering.

    Raises:
        CorruptCheckpoint: bad magic, checksum, structure, or a payload or
            meta the writer would not have produced.
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

    end = len(data) - 4
    (stored_crc,) = struct.unpack_from("<I", data, end)
    if zlib.crc32(memoryview(data)[4:end]) != stored_crc:
        raise CorruptCheckpoint("CRC-32 mismatch")

    if kind not in _KINDS:
        raise CorruptCheckpoint(f"unknown payload kind {kind}")
    meta_start = 4 + _HEADER.size
    payload_start = meta_start + meta_len
    if payload_start > end:
        raise CorruptCheckpoint("meta length overruns file")
    meta_bytes = data[meta_start:payload_start]
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CorruptCheckpoint(f"meta JSON unreadable: {e}") from e
    if not isinstance(meta, dict):
        raise CorruptCheckpoint(f"meta JSON is a {type(meta).__name__}, not an object")

    if meta.get("layout") != LAYOUT:
        raise CorruptCheckpoint(f"unknown tensor layout {meta.get('layout')!r}")

    manifest = meta.get("tensors")
    if not isinstance(manifest, list) or not manifest:
        raise CorruptCheckpoint("missing tensor manifest")
    parts = {}
    offset = payload_start
    for entry in manifest:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise CorruptCheckpoint(f"bad manifest entry: {entry!r}")
        dims = entry.get("dims", [])
        if (not isinstance(dims, list) or len(dims) != 3
                or any(not isinstance(d, int) or d < 1 for d in dims)):
            raise CorruptCheckpoint(f"bad dims in manifest: {dims}")
        n1, n2, n3 = dims
        if offset + 8 * n1 * n2 * n3 > end:
            raise CorruptCheckpoint("tensor payload overruns file")
        flat = np.frombuffer(data, dtype="<f8", count=n1 * n2 * n3, offset=offset)
        parts[entry["name"]] = flat.reshape(n3, n1, n2).transpose(1, 2, 0).copy()
        offset += 8 * n1 * n2 * n3
    if offset != end:
        raise CorruptCheckpoint(f"payload length mismatch: manifest ends at {offset}, file at {end}")

    _, ptype, _, fields = _KINDS[kind]
    try:
        parts.update((f, held(meta[f])) for f, held in fields.items())
        payload = parts["tensor"] if ptype is np.ndarray else ptype(**parts)
        if _encode(payload)[1] != meta_bytes:
            raise ValueError("meta is not what the writer renders for this payload")
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise CorruptCheckpoint(f"inconsistent metadata: {e}") from e
    return payload
