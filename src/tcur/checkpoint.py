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

A write and a read each stream the tensors through one slice-major buffer
of at most 1 MiB and a sixth of the payload, so neither holds a copy of
the file. A write overwrites the file in place and cuts an old tail last.
It does not truncate first: on ext4, truncating a file that holds data
flushes its delayed allocation, and 5.9 MB written over an existing file
took 1.7-4.0 ms that way against 0.6-0.7 ms in place (tmpfs: 2.1-2.3
against 0.8-1.1 ms). The write is not atomic: a crash or a failed write
leaves the new head over the old tail, or a prefix of the new file, and
the CRC rejects either. A temp file, ``fsync`` and ``os.replace`` would
keep the old file whole, but a rename over an existing file costs about
what truncating does (those 5.9 MB: 2.6 ms, 4.8 ms with ``fsync``), so
that choice is left open.
"""

from __future__ import annotations

import dataclasses
import json
import os
import stat
import struct
import zlib

import numpy as np

from .adapter import ROLE_ORDER, Adapter
from .decomp import TcurFactors, _finite_tensor3
from .errors import CorruptCheckpoint, TcurError, UnsupportedVersion

MAGIC = b"TCUR"
VERSION = 1

#: Byte order of every tensor payload; part of the format.
LAYOUT = "slice-major:frontal-slice-contiguous,row-major-within-slice,f64-le"
#: Slice ordering law for stacked attention weights; recorded so files are
#: interpretable without the producing code.
STACK_ORDER = "layer-major;roles=" + ",".join(ROLE_ORDER)

_HEADER = struct.Struct("<III")  # version, kind, meta_len

#: Most bytes a write or a read buffers at once. The tensors pass through
#: one slice-major buffer of at most this size and at most a sixth of the
#: payload (:func:`_buffer`), so neither holds a copy of the file.
_BUF_BYTES = 1 << 20


#: kind code -> (name, payload type, tensor names in file order, meta
#: fields). A tensor that is not a field of the payload type (the factor
#: ``U_core``) is one the payload derives.
_KINDS = {
    0: ("raw_tensor", np.ndarray, ("tensor",), ()),
    1: ("tcur_factors", TcurFactors, ("C", "U_core", "R"),
        ("rank", "rows", "cols", "sv_tol_factor")),
    2: ("adapter", Adapter, ("base", "C", "R", "U"), ("rank",)),
}


def _encode(payload) -> tuple[int, bytes, dict[str, np.ndarray]]:
    """Render a payload; returns (kind, meta JSON bytes, tensors in file order).

    A TcurFactors or Adapter is rendered as built, its construction having
    checked every tensor it holds; a raw tensor is checked here.

    Raises:
        TypeError: not a raw tensor, TcurFactors, or Adapter.
        ValueError: a raw tensor that ``_finite_tensor3`` refuses.
    """
    kind = next((k for k, spec in _KINDS.items() if isinstance(payload, spec[1])), None)
    if kind is None:
        raise TypeError(f"unsupported checkpoint payload type: {type(payload).__name__}")
    name, ptype, tnames, fields = _KINDS[kind]
    parts = ({"tensor": _finite_tensor3(payload, "checkpoint tensor")} if ptype is np.ndarray
             else {n: getattr(payload, n) for n in (*tnames, *fields)})
    tensors = {n: parts[n] for n in tnames}
    meta = {
        "kind": name,
        "layout": LAYOUT,
        "stack_order": STACK_ORDER,
        "tensors": [{"name": n, "dims": list(t.shape)} for n, t in tensors.items()],
        **{f: np.asarray(parts[f]).tolist() for f in fields},
    }
    return kind, json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8"), tensors


def write_checkpoint(path, payload) -> None:
    """Serialize a raw tensor, TcurFactors, or Adapter to ``path``.

    The payload is validated before the file is opened. A dataclass
    payload (every kind but the raw tensor) is rebuilt first, so its
    construction checks run again on what it holds now (a reassigned
    adapter core, an index set edited in place).

    The file is opened without truncating it and overwritten in place:
    each tensor is copied, in file order, into one reused slice-major
    buffer of at most 1 MiB and a sixth of the payload, and written one
    chunk at a time with a running CRC. A regular file that was longer has
    its old tail cut last. Like ``open(path, "wb")``, a write follows
    symlinks, reaches every hard link, and keeps the file's permission
    bits. A crash or a failed write leaves the new head over the old
    file's tail (a prefix of the new file where there was no tail); the
    reader's CRC rejects either. The module docstring says why the file
    is not replaced atomically.

    Raises:
        TypeError: unsupported payload type.
        ValueError: the payload fails its type's checks or ``_encode``'s.
        OSError: the file cannot be written.
    """
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        payload = dataclasses.replace(payload)
    kind, meta, tensors = _encode(payload)
    head = _HEADER.pack(VERSION, kind, len(meta)) + meta
    crc = zlib.crc32(head)
    buf = _buffer(sum(t.nbytes for t in tensors.values()))
    with open(path, "wb", opener=lambda p, flags: os.open(p, flags & ~os.O_TRUNC, 0o666)) as fh:
        old = os.fstat(fh.fileno())
        fh.write(MAGIC + head)
        for t in tensors.values():
            src = t.transpose(2, 0, 1)  # slice-major view
            # Gathered a band of t's rows at a time, so the slices of one
            # chunk reuse each cache line of t they read while it is cached
            # (192x160x24 on tmpfs: 6.2 -> 4.8 ms a write).
            band = max(1, _BUF_BYTES // t[:1].nbytes)
            for idx in _chunks(src.shape, len(buf)):
                part = src[idx]
                chunk = buf[:part.size]
                view = chunk.reshape(part.shape)
                for i in range(0, part.shape[1], band):
                    np.copyto(view[:, i:i + band], part[:, i:i + band])
                crc = zlib.crc32(chunk, crc)
                fh.write(chunk)
        fh.write(struct.pack("<I", crc))
        if stat.S_ISREG(old.st_mode) and old.st_size > fh.tell():
            fh.truncate()


def _buffer(payload_bytes: int) -> np.ndarray:
    """The one slice-major buffer a write or a read streams its tensors
    through: at most ``_BUF_BYTES`` and a sixth of the payload."""
    return np.empty(max(1, min(_BUF_BYTES, payload_bytes // 6) // 8), "<f8")


def _chunks(shape: tuple[int, int, int], size: int):
    """Index expressions into a slice-major ``(n3, n1, n2)`` view, in file
    order, each of at most ``size`` entries and each picking a 3-D block:
    whole frontal slices, or rows of one slice when a slice is larger, or
    pieces of a row."""
    n3, n1, n2 = shape
    if n1 * n2 <= size:
        step = size // (n1 * n2)
        return (np.s_[k:k + step] for k in range(0, n3, step))
    if n2 <= size:
        step = size // n2
        return (np.s_[k:k + 1, i:i + step] for k in range(n3) for i in range(0, n1, step))
    return (np.s_[k:k + 1, i:i + 1, j:j + size] for k in range(n3) for i in range(n1)
            for j in range(0, n2, size))


def _manifest(meta_bytes: bytes, start: int, end: int) -> tuple[dict, list]:
    """Parse the meta JSON; returns (meta, [(name, dims)]) once the
    manifest's tensors fill the payload bytes ``start..end`` exactly, so
    nothing is allocated for a tensor the file does not hold."""
    try:
        meta = json.loads(meta_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise CorruptCheckpoint(f"meta JSON unreadable: {e}") from e
    if not isinstance(meta, dict):
        raise CorruptCheckpoint(f"meta JSON is a {type(meta).__name__}, not an object")
    manifest = meta.get("tensors")
    if not isinstance(manifest, list) or not manifest:
        raise CorruptCheckpoint("missing tensor manifest")
    shapes = []
    offset = start
    for entry in manifest:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise CorruptCheckpoint(f"bad manifest entry: {entry!r}")
        dims = entry.get("dims", [])
        if (not isinstance(dims, list) or len(dims) != 3
                or any(not isinstance(d, int) or d < 1 for d in dims)):
            raise CorruptCheckpoint(f"bad dims in manifest: {dims}")
        offset += 8 * dims[0] * dims[1] * dims[2]
        if offset > end:
            raise CorruptCheckpoint("tensor payload overruns file")
        shapes.append((entry["name"], dims))
    if offset != end:
        raise CorruptCheckpoint(f"payload length mismatch: manifest ends at {offset}, file at {end}")
    return meta, shapes


def _read_file(path) -> tuple[int, bytes, dict, dict[str, np.ndarray]]:
    """The framing half of :func:`read_checkpoint`: returns (kind, meta
    bytes, meta, tensors by name) of a file whose checksum and structure
    hold. The read buffer is freed on return, before the payload is built."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < len(MAGIC) + _HEADER.size + 4:
            raise CorruptCheckpoint(f"file too short ({size} bytes)")
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CorruptCheckpoint(f"bad magic {magic!r}")
        head = fh.read(_HEADER.size)
        version, kind, meta_len = _HEADER.unpack(head)
        if version != VERSION:
            raise UnsupportedVersion(f"format version {version}, expected {VERSION}")

        end = size - 4
        crc = zlib.crc32(head)
        buf = None

        def fill(view):
            nonlocal crc
            if fh.readinto(view) != view.nbytes:
                raise CorruptCheckpoint("file shorter than when it was opened")
            crc = zlib.crc32(view, crc)

        try:
            if kind not in _KINDS:
                raise CorruptCheckpoint(f"unknown payload kind {kind}")
            payload_start = fh.tell() + meta_len
            if payload_start > end:
                raise CorruptCheckpoint("meta length overruns file")
            meta_bytes = fh.read(meta_len)
            crc = zlib.crc32(meta_bytes, crc)
            meta, shapes = _manifest(meta_bytes, payload_start, end)
            # The arrays first, so the buffer does not split a hole one would fit.
            parts = {name: np.empty(dims) for name, dims in shapes}
            buf = _buffer(end - payload_start)
            for t in parts.values():
                dst = t.transpose(2, 0, 1)  # slice-major view
                for idx in _chunks(dst.shape, len(buf)):
                    part = dst[idx]
                    chunk = buf[:part.size]
                    fill(chunk)
                    np.copyto(part, chunk.reshape(part.shape))
        except CorruptCheckpoint:
            # Judge the checksum first: run it over the rest of the file.
            rest = (np.empty(min(_BUF_BYTES, end - fh.tell()), np.uint8) if buf is None
                    else buf.view(np.uint8))
            while (left := end - fh.tell()) > 0:
                fill(rest[:min(left, len(rest))])
            if fh.read(4) != struct.pack("<I", crc):
                raise CorruptCheckpoint("CRC-32 mismatch") from None
            raise
        if fh.read(4) != struct.pack("<I", crc):
            raise CorruptCheckpoint("CRC-32 mismatch")
    return kind, meta_bytes, meta, parts


def read_checkpoint(path):
    """Deserialize; returns an ndarray, TcurFactors, or Adapter.

    Checks magic and version, then the manifest: its dims must cover the
    payload exactly before any tensor is allocated. Each tensor is read
    into the C-contiguous ``(n1, n2, n3)`` float64 array that is returned,
    through one reused slice-major buffer of at most 1 MiB and a sixth
    of the payload, with a running CRC, so a read holds the returned
    arrays and that buffer, never the whole file. The checksum is judged
    before any structural error: a file that fails both raises the CRC
    mismatch. The read then builds the payload once and accepts it only if
    the writer would write this same file for it: every rule the writer
    enforces holds, the meta JSON is the canonical rendering, and a stored
    tensor the payload derives (the factor ``U_core``) is the derived one.

    Raises:
        CorruptCheckpoint: bad magic, checksum, structure, or a payload or
            meta the writer would not have produced.
        UnsupportedVersion: recognized container, unknown version.
        OSError: the file cannot be read.
    """
    kind, meta_bytes, meta, parts = _read_file(path)
    _, ptype, tnames, fields = _KINDS[kind]
    own = {"tensor"} if ptype is np.ndarray else {f.name for f in dataclasses.fields(ptype)}
    try:
        parts.update((f, meta[f]) for f in fields)
        payload = parts["tensor"] if ptype is np.ndarray else ptype(**{n: parts[n] for n in own})
        _, canonical, tensors = _encode(payload)
        if canonical != meta_bytes:
            raise ValueError("meta is not what the writer renders for this payload")
        for n in set(tnames) - own:  # the payload holds the others as read
            if not np.array_equal(parts[n], tensors[n]):
                raise ValueError(f"stored {n} is not the {n} the payload derives")
    except (KeyError, TypeError, ValueError, OverflowError, TcurError) as e:
        raise CorruptCheckpoint(f"inconsistent metadata: {e}") from e
    return payload
