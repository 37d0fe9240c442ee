"""Binary checkpoints: a named-tensor manifest plus one raw blob.

Layout (all integers little-endian):

    magic      4 bytes  b"WGTS"
    version    u16      currently 1
    count      u32      number of manifest entries
    entry*     name_len u16, name bytes (utf-8), dtype u8 (1 = float64),
               rank u8, extents u64 * rank, blob offset u64, byte length u64
    blob       concatenated raw little-endian float64 tensor data

Offsets are relative to the start of the blob (the byte right after the
last manifest entry), and the file ends where the last entry's data ends.
Every stored value must be finite.  Loading validates the whole file before
touching the model, so a failed load leaves the model as built.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .model import Segmenter, SegmenterConfig, build_model

MAGIC = b"WGTS"
VERSION = 1
DTYPE_FLOAT64 = 1


class CheckpointError(ValueError):
    """Malformed, truncated or structurally mismatched checkpoint file."""


@dataclass
class ManifestEntry:
    name: str
    dtype: int
    shape: tuple[int, ...]
    offset: int
    length: int


def save_checkpoint(model: Segmenter, path) -> None:
    """Write every model parameter, in registration order: the blob is the model's arena."""
    entries, offset = [], 0
    for name, param in model.parameters().items():
        entries.append(ManifestEntry(name, DTYPE_FLOAT64, param.shape, offset, 8 * param.data.size))
        offset += 8 * param.data.size

    header = bytearray()
    header += MAGIC
    header += struct.pack("<HI", VERSION, len(entries))
    for e in entries:
        name_bytes = e.name.encode("utf-8")
        header += struct.pack("<H", len(name_bytes))
        header += name_bytes
        header += struct.pack("<BB", e.dtype, len(e.shape))
        header += struct.pack(f"<{len(e.shape)}Q", *e.shape) if e.shape else b""
        header += struct.pack("<QQ", e.offset, e.length)
    with open(path, "wb") as f:
        f.write(bytes(header))
        f.write(model.arena.astype("<f8", copy=False).tobytes())


def read_manifest(raw: bytes) -> tuple[list[ManifestEntry], int]:
    """Parse and sanity-check the header; returns entries and blob start."""
    if len(raw) < 10:
        raise CheckpointError("truncated header")
    if raw[:4] != MAGIC:
        raise CheckpointError(f"bad magic {raw[:4]!r}, expected {MAGIC!r}")
    version, count = struct.unpack_from("<HI", raw, 4)
    if version != VERSION:
        raise CheckpointError(f"unsupported version {version}")
    pos = 10
    entries = []
    for _ in range(count):
        if pos + 2 > len(raw):
            raise CheckpointError("truncated manifest")
        (name_len,) = struct.unpack_from("<H", raw, pos)
        pos += 2
        if pos + name_len + 2 > len(raw):
            raise CheckpointError("truncated manifest")
        try:
            name = raw[pos:pos + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"manifest entry name is not valid utf-8: {exc}") from exc
        pos += name_len
        dtype, rank = struct.unpack_from("<BB", raw, pos)
        pos += 2
        if dtype != DTYPE_FLOAT64:
            raise CheckpointError(f"unknown dtype tag {dtype} for {name!r}")
        if pos + 8 * rank + 16 > len(raw):
            raise CheckpointError("truncated manifest")
        shape = struct.unpack_from(f"<{rank}Q", raw, pos) if rank else ()
        pos += 8 * rank
        offset, length = struct.unpack_from("<QQ", raw, pos)
        pos += 16
        expected = 8 * math.prod(shape)
        if length != expected:
            size = expected if expected < 2 ** 64 else "over 2**64"  # str() caps int digits
            raise CheckpointError(f"entry {name!r}: byte length {length} != shape size {size}")
        entries.append(ManifestEntry(name, dtype, tuple(int(s) for s in shape), offset, length))

    spans = sorted((e.offset, e.offset + e.length, e.name) for e in entries)
    for (s0, e0, n0), (s1, _, n1) in zip(spans, spans[1:]):
        if s1 < e0:
            raise CheckpointError(f"overlapping manifest entries {n0!r} and {n1!r}")
    return entries, pos


def load_checkpoint(path, config: SegmenterConfig) -> Segmenter:
    """Build a model from ``config`` and fill it from the file.

    The manifest must name exactly the model's parameters with matching
    shapes; any structural difference is a manifest mismatch.  Every value
    must be finite: the first entry, in manifest order, holding a NaN or an
    infinity is named in the ``CheckpointError``.
    """
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    entries, blob_start = read_manifest(raw)
    blob = raw[blob_start:]
    needed = max((e.offset + e.length for e in entries), default=0)
    if len(blob) < needed:
        raise CheckpointError(f"truncated blob: have {len(blob)} bytes, need {needed}")
    if len(blob) > needed:
        raise CheckpointError(f"trailing bytes: {len(blob) - needed} after the last blob entry")

    model = build_model(config)
    params = model.parameters()
    file_names = [e.name for e in entries]
    model_names = list(params.keys())
    if file_names != model_names:
        missing = sorted(set(model_names) - set(file_names))
        extra = sorted(set(file_names) - set(model_names))
        raise CheckpointError(f"manifest mismatch: missing {missing}, unexpected {extra}")
    values = []
    for e in entries:
        if params[e.name].shape != e.shape:
            raise CheckpointError(f"manifest mismatch: {e.name!r} has shape {list(e.shape)}, "
                                  f"model expects {list(params[e.name].shape)}")
        arr = np.frombuffer(blob, dtype="<f8", count=e.length // 8, offset=e.offset)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"entry {e.name!r} holds a NaN or an infinity")
        values.append(arr)
    np.concatenate(values, out=model.arena)
    return model
