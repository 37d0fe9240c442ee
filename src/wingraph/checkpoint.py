"""Binary checkpoints: a named-tensor manifest plus one raw blob.

Layout (all integers little-endian):

    magic      4 bytes  b"WGTS"
    version    u16      currently 1
    count      u32      number of manifest entries
    entry*     name_len u16, name bytes (utf-8), dtype u8 (1 = float64),
               rank u8, extents u64 * rank, blob offset u64, byte length u64
    blob       concatenated raw little-endian float64 tensor data

Offsets are relative to the start of the blob (the byte right after the
last manifest entry).  Entries lie back to back in manifest order: each
offset is the sum of the byte lengths before it, so the blob has no gaps,
overlaps or reordered entries, and the file ends where the last entry's
data ends.  The blob is the model's parameter arena: ``save_checkpoint``
writes it in one piece and ``load_checkpoint`` reads it back in one piece.
Every stored value must be finite.  Loading checks the whole file, names
and shapes against ``param_spec(config)``, before it builds a model, so a
failed load builds none.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .model import Segmenter, SegmenterConfig, param_spec

MAGIC = b"WGTS"
VERSION = 1
DTYPE_FLOAT64 = 1


class CheckpointError(ValueError):
    """Malformed, truncated or structurally mismatched checkpoint file."""


@dataclass
class ManifestEntry:
    name: str
    shape: tuple[int, ...]
    offset: int
    length: int


def save_checkpoint(model: Segmenter, path) -> None:
    """Write every model parameter, in registration order: the blob is the model's arena."""
    params = model.parameters()
    header = bytearray()
    header += MAGIC
    header += struct.pack("<HI", VERSION, len(params))
    offset = 0
    for name, param in params.items():
        name_bytes = name.encode("utf-8")
        header += struct.pack("<H", len(name_bytes))
        header += name_bytes
        header += struct.pack("<BB", DTYPE_FLOAT64, param.ndim)
        header += struct.pack(f"<{param.ndim}Q", *param.shape)
        header += struct.pack("<QQ", offset, 8 * param.data.size)
        offset += 8 * param.data.size
    with open(path, "wb") as f:
        f.write(bytes(header))
        f.write(model.arena.astype("<f8", copy=False).tobytes())


def read_manifest(raw: bytes) -> tuple[list[ManifestEntry], int]:
    """Parse and sanity-check the header; returns entries and blob start.

    Each entry's offset must be the sum of the byte lengths before it.  A
    file that ends inside an entry is a "truncated manifest".
    """
    if len(raw) < 10:
        raise CheckpointError("truncated header")
    if raw[:4] != MAGIC:
        raise CheckpointError(f"bad magic {raw[:4]!r}, expected {MAGIC!r}")
    version, count = struct.unpack_from("<HI", raw, 4)
    if version != VERSION:
        raise CheckpointError(f"unsupported version {version}")
    pos, end = 10, 0
    entries = []
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", raw, pos)
            pos += 2 + name_len
            dtype, rank = struct.unpack_from("<BB", raw, pos)
            try:
                name = raw[pos - name_len:pos].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"manifest entry name is not valid utf-8: {exc}") from exc
            if dtype != DTYPE_FLOAT64:
                raise CheckpointError(f"unknown dtype tag {dtype} for {name!r}")
            *shape, offset, length = struct.unpack_from(f"<{rank + 2}Q", raw, pos + 2)
            pos += 2 + 8 * (rank + 2)
            expected = 8 * math.prod(shape)
            if length != expected:
                size = expected if expected < 2 ** 64 else "over 2**64"  # str() caps int digits
                raise CheckpointError(f"entry {name!r}: byte length {length} != shape size {size}")
            if offset != end:
                raise CheckpointError(f"entry {name!r}: blob offset {offset}, expected {end}")
            entries.append(ManifestEntry(name, tuple(shape), offset, length))
            end += length
    except struct.error as exc:
        raise CheckpointError("truncated manifest") from exc
    return entries, pos


def load_checkpoint(path, config: SegmenterConfig) -> Segmenter:
    """Build a model from ``config`` over a copy of the file's blob, drawing no weights.

    The manifest must name exactly the rows of ``param_spec(config)`` with
    matching shapes; any structural difference is a manifest mismatch.  Every
    value must be finite: the first entry, in manifest order, holding a NaN or
    an infinity is named in the ``CheckpointError``.  The whole file is
    checked before a model is built.
    """
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    entries, blob_start = read_manifest(raw)
    have, needed = len(raw) - blob_start, sum(e.length for e in entries)
    if have < needed:
        raise CheckpointError(f"truncated blob: have {have} bytes, need {needed}")
    if have > needed:
        raise CheckpointError(f"trailing bytes: {have - needed} after the last blob entry")

    spec = param_spec(config)
    file_names = [e.name for e in entries]
    spec_names = [name for name, _, _ in spec]
    if file_names != spec_names:
        missing = sorted(set(spec_names) - set(file_names))
        extra = sorted(set(file_names) - set(spec_names))
        raise CheckpointError(f"manifest mismatch: missing {missing}, unexpected {extra}")
    for e, (_, shape, _) in zip(entries, spec):
        if e.shape != shape:
            raise CheckpointError(f"manifest mismatch: {e.name!r} has shape {list(e.shape)}, "
                                  f"model expects {list(shape)}")
    blob = np.frombuffer(raw, dtype="<f8", count=needed // 8, offset=blob_start)
    finite = np.isfinite(blob)
    if not finite.all():
        ends = np.cumsum([e.length // 8 for e in entries])
        first = entries[int(np.searchsorted(ends, finite.argmin(), side="right"))]
        raise CheckpointError(f"entry {first.name!r} holds a NaN or an infinity")
    return Segmenter(config, blob.astype(np.float64))
