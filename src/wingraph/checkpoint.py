"""Binary checkpoints: the model's config text, then its parameter arena.

Layout (all integers little-endian):

    magic      4 bytes  b"WGTS"
    version    u16      currently 2 (version 1 files are rejected)
    length     u32      config text bytes, at most MAX_CONFIG_BYTES
    config     ``format_config`` text of the model's SegmenterConfig, utf-8
    blob       the arena: 8 * param_count little-endian float64 values,
               the rows of ``param_spec(config)`` back to back

The config fixes every parameter's name, shape and place in the blob, so a
checkpoint evaluates as the model that was saved.  Loading reads at most one
byte past the blob that the config calls for, and checks all of it, every
value finite, before it builds a model, so a failed load builds none.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .model import (MAX_CONFIG_BYTES, ConfigError, Segmenter, SegmenterConfig, format_config,
                    model_param_count, param_spec, parse_config_text)

MAGIC = b"WGTS"
VERSION = 2
HEADER = struct.Struct("<4sHI")  # magic, version, config text length


class CheckpointError(ValueError):
    """Malformed or truncated checkpoint file."""


def save_checkpoint(model: Segmenter, path) -> None:
    """Write the model's config text, then its arena in one piece."""
    text = format_config(model.config).encode("utf-8")
    with open(path, "wb") as f:
        f.write(HEADER.pack(MAGIC, VERSION, len(text)) + text)
        f.write(model.arena.astype("<f8", copy=False).tobytes())


def _read_stored(f) -> tuple[SegmenterConfig, int, bytes]:
    """The stored config, its blob's size and the blob bytes read from ``f``, at most one past it."""
    header = f.read(HEADER.size)
    if len(header) < HEADER.size:
        raise CheckpointError("truncated header")
    magic, version, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise CheckpointError(f"unsupported version {version}")
    if length > MAX_CONFIG_BYTES:
        raise CheckpointError(f"config text of {length} bytes is over {MAX_CONFIG_BYTES}")
    text = f.read(length)
    if len(text) < length:
        raise CheckpointError(f"truncated config: have {len(text)} bytes, need {length}")
    try:
        stored = SegmenterConfig(**parse_config_text(text.decode("utf-8"), origin="stored config"))
    except (UnicodeDecodeError, ConfigError) as exc:
        raise CheckpointError(f"bad stored config: {exc}") from exc
    needed = 8 * model_param_count(stored)
    return stored, needed, f.read(needed + 1)


def load_checkpoint(path, config: SegmenterConfig | None = None) -> Segmenter:
    """Build the stored config's model over a copy of the file's blob, drawing no weights.

    A given ``config`` must equal the stored one; a difference is a
    ``ConfigError`` naming every differing field.  Every value must be
    finite: the first parameter, in ``param_spec`` order, holding a NaN or
    an infinity is named in the ``CheckpointError``.
    """
    try:
        with open(path, "rb") as f:
            stored, needed, blob = _read_stored(f)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < needed:
        raise CheckpointError(f"truncated blob: have {len(blob)} bytes, need {needed}")
    if len(blob) > needed:
        raise CheckpointError("trailing bytes after the blob")
    arena = np.frombuffer(blob, dtype="<f8").astype(np.float64)
    finite = np.isfinite(arena)
    if not finite.all():
        spec = param_spec(stored)
        ends = np.cumsum([math.prod(shape) for _, shape, _ in spec])
        name = spec[int(np.searchsorted(ends, finite.argmin(), side="right"))][0]
        raise CheckpointError(f"parameter {name!r} holds a NaN or an infinity")
    if config is not None and config != stored:
        pairs = zip(format_config(stored).splitlines(), format_config(config).splitlines())
        differing = "; ".join(f"{given} given, {kept} stored" for kept, given in pairs if kept != given)
        raise ConfigError(f"config differs from the checkpoint's: {differing}")
    return Segmenter(stored, arena)
