"""Checkpoint format: bit-exact round trips, the stored config, and corruption detection."""

import dataclasses
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wingraph.checkpoint import (
    HEADER,
    MAGIC,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from wingraph.cli import EVAL_SEED_OFFSET, main
from wingraph.data import synth_dataset
from wingraph.metrics import evaluate_miou
from wingraph.model import MAX_CONFIG_BYTES, ConfigError, SegmenterConfig, build_model, format_config, param_spec
from wingraph.train import train

TOY = SegmenterConfig(C=4, H=4, W=4, stages=((1, 2, 2),), num_classes=2,
                      r_gr=2, r_lr=2, r_ba=2, dataset_size=2, steps=5)
TOY_TEXT = format_config(TOY).encode("utf-8")
BLOB_START = HEADER.size + len(TOY_TEXT)


@pytest.fixture
def trained(tmp_path):
    model = build_model(TOY)
    dataset = synth_dataset("stripes", 2, 4, 4, 2, 0)
    train(model, dataset, steps=5, lr=0.1)
    path = tmp_path / "model.wgts"
    save_checkpoint(model, path)
    return model, dataset, path


def _rewritten(path, raw):
    """A file next to ``path`` holding ``raw``."""
    bad = path.with_name("bad.wgts")
    bad.write_bytes(bytes(raw))
    return bad


class TestRoundTrip:
    def test_parameters_bit_identical(self, trained):
        model, _, path = trained
        loaded = load_checkpoint(path, TOY)
        for name, p in model.parameters().items():
            assert np.array_equal(p.data, loaded.parameters()[name].data), name

    def test_evaluation_reproduced_exactly(self, trained):
        model, dataset, path = trained
        before = evaluate_miou(model, dataset)
        after = evaluate_miou(load_checkpoint(path, TOY), dataset)
        assert before.mean == after.mean
        assert np.array_equal(before.confusion, after.confusion)

    def test_stored_config_alone_reproduces_the_evaluation(self, trained):
        model, dataset, path = trained
        loaded = load_checkpoint(path)
        assert loaded.config == TOY
        assert loaded.arena.tobytes() == model.arena.tobytes()
        before, after = evaluate_miou(model, dataset), evaluate_miou(loaded, dataset)
        assert before.mean == after.mean
        assert np.array_equal(before.confusion, after.confusion)

    def test_layout_is_header_config_text_and_arena(self, trained):
        model, _, path = trained
        raw = path.read_bytes()
        assert HEADER.unpack_from(raw) == (MAGIC, 2, len(TOY_TEXT))
        assert raw[HEADER.size:BLOB_START] == TOY_TEXT
        assert raw[BLOB_START:] == model.arena.astype("<f8").tobytes()


class TestCorruption:
    def test_bad_magic(self, trained):
        _, _, path = trained
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(_rewritten(path, raw), TOY)

    def test_truncated_blob(self, trained):
        _, _, path = trained
        with pytest.raises(CheckpointError, match="truncated blob"):
            load_checkpoint(_rewritten(path, path.read_bytes()[:-16]), TOY)

    def test_truncated_config(self, trained):
        _, _, path = trained
        with pytest.raises(CheckpointError, match="truncated config"):
            load_checkpoint(_rewritten(path, path.read_bytes()[:HEADER.size + 5]), TOY)

    def test_trailing_bytes(self, trained):
        _, _, path = trained
        with pytest.raises(CheckpointError, match="trailing bytes after the blob"):
            load_checkpoint(_rewritten(path, path.read_bytes() + b"\0" * 8), TOY)

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameter_named(self, trained, bad_value):
        _, _, path = trained
        raw = bytearray(path.read_bytes())
        spec = param_spec(TOY)
        ends = np.cumsum([math.prod(shape) for _, shape, _ in spec])
        # Poison the last value of the second and third parameters: the
        # error names the second, the first in param_spec order.
        for end in ends[1:3]:
            struct.pack_into("<d", raw, BLOB_START + 8 * (int(end) - 1), bad_value)
        with pytest.raises(CheckpointError, match=f"parameter '{spec[1][0]}' holds a NaN or an infinity"):
            load_checkpoint(_rewritten(path, raw), TOY)

    @pytest.mark.parametrize("version", [1, 9])
    def test_other_versions_rejected(self, trained, version):
        # Version 1 held a manifest of parameter names and shapes; no reader is kept.
        _, _, path = trained
        raw = bytearray(path.read_bytes())
        struct.pack_into("<H", raw, 4, version)
        with pytest.raises(CheckpointError, match=f"unsupported version {version}$"):
            load_checkpoint(_rewritten(path, raw))

    def test_non_utf8_config_text(self, trained):
        _, _, path = trained
        raw = bytearray(path.read_bytes())
        raw[HEADER.size] = 0xFF
        with pytest.raises(CheckpointError, match="bad stored config: 'utf-8' codec"):
            load_checkpoint(_rewritten(path, raw))

    @pytest.mark.parametrize("line, edited, message", [
        (b"C = 4", b"C = 0", "C must be positive, got 0"),
        (b"fusion = gr_then_lr", b"fusion = gr_then_xx", "bad value for 'fusion'"),
        (b"seed = 0", b"seee = 0", "unknown config key 'seee'"),
    ], ids=["breaks_a_rule", "bad_value", "unknown_key"])
    def test_bad_stored_config(self, trained, line, edited, message):
        # Each edit keeps the text's length, so only the config text is wrong.
        _, _, path = trained
        raw = path.read_bytes().replace(line, edited, 1)
        with pytest.raises(CheckpointError, match=f"bad stored config: .*{message}"):
            load_checkpoint(_rewritten(path, raw))

    def test_config_text_over_the_cap(self, trained):
        _, _, path = trained
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 6, MAX_CONFIG_BYTES + 1)
        with pytest.raises(CheckpointError, match=f"config text of {MAX_CONFIG_BYTES + 1} bytes is over"):
            load_checkpoint(_rewritten(path, raw))

    def test_disagreeing_config_names_every_differing_field(self, trained, monkeypatch):
        _, _, path = trained
        monkeypatch.setattr("wingraph.checkpoint.Segmenter", lambda config, arena: pytest.fail("built"))
        given = dataclasses.replace(TOY, theta_coefficient=2.0, relation_variant="cosine")
        message = ("config differs from the checkpoint's: theta_coefficient = 2.0 given, "
                   "theta_coefficient = 0.25 stored; relation_variant = cosine given, "
                   "relation_variant = softmax stored")
        with pytest.raises(ConfigError) as info:
            load_checkpoint(path, given)
        assert str(info.value) == message

    def test_invalid_config_rejected_before_any_build(self, trained, monkeypatch):
        _, _, path = trained
        monkeypatch.setattr("wingraph.checkpoint.Segmenter", lambda config, arena: pytest.fail("built"))
        with pytest.raises(ConfigError, match="r_gr=3 does not divide"):
            load_checkpoint(path, dataclasses.replace(TOY, r_gr=3))

    def test_failed_load_does_not_return_partial_model(self, trained):
        _, _, path = trained
        with pytest.raises(CheckpointError):
            load_checkpoint(_rewritten(path, path.read_bytes()[:-8]), TOY)
        # a fresh build still works and is untouched by the failed attempt
        fresh = build_model(TOY)
        ref = build_model(TOY)
        for name, p in fresh.parameters().items():
            assert np.array_equal(p.data, ref.parameters()[name].data)


class TestBoundedReads:
    def test_sparse_gigabyte_file_is_rejected_reading_little(self, trained):
        _, _, path = trained
        os.truncate(path, 2 ** 30)  # sparse: no disk blocks past the blob
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointError, match="trailing bytes after the blob"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_dev_zero_is_bad_magic(self):
        if not os.path.exists("/dev/zero"):
            pytest.skip("no /dev/zero here")
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint("/dev/zero")


# The same model as TOY, spelled as `wingraph eval` overrides: a config
# given to `eval` must equal the stored one.
TOY_OVERRIDES = [arg for kv in ("C=4", "H=4", "W=4", "stages=1x2x2", "num_classes=2", "r_gr=2",
                                "r_lr=2", "r_ba=2", "dataset_size=2", "steps=5")
                 for arg in ("--override", kv)]
# The header, the config text and the first blob values.
FUZZ_SPAN = BLOB_START + 300
SEED_DIGIT = HEADER.size + TOY_TEXT.index(b"seed = 0") + len("seed = ")

edits = st.one_of(
    st.tuples(st.just("mutate"), st.integers(0, FUZZ_SPAN - 1), st.integers(0, 255)),
    st.tuples(st.just("truncate"), st.integers(0, FUZZ_SPAN - 1)),
    st.tuples(st.just("extend"), st.integers(0, FUZZ_SPAN - 1), st.binary(min_size=1, max_size=16)),
)


@pytest.fixture(scope="module")
def toy_checkpoint(tmp_path_factory):
    model = build_model(TOY)
    train(model, synth_dataset("stripes", 2, 4, 4, 2, 0), steps=5, lr=0.1)
    path = tmp_path_factory.mktemp("fuzz") / "model.wgts"
    save_checkpoint(model, path)
    return path, path.read_bytes()


def test_every_cut_is_a_truncation(toy_checkpoint):
    """A file cut short anywhere is rejected as truncated, naming the part
    the cut falls in: the 10-byte header, the config text or the blob."""
    path, raw = toy_checkpoint
    cut_file = path.with_name("cut.wgts")
    parts = []
    for cut in range(len(raw)):
        cut_file.write_bytes(raw[:cut])
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(cut_file)
        parts.append(str(info.value).split(":")[0])
    assert parts == (["truncated header"] * HEADER.size + ["truncated config"] * len(TOY_TEXT)
                     + ["truncated blob"] * (len(raw) - BLOB_START))


@settings(max_examples=300, deadline=None)
@given(edit=edits)
@example(edit=("mutate", 0, MAGIC[0]))  # the file unchanged
@example(edit=("mutate", 4, 1))  # a version 1 file
@example(edit=("mutate", SEED_DIGIT, ord("7")))  # a loadable file of another config
@example(edit=("mutate", BLOB_START + 7, 0x7E))  # a first stem value near 1e300: the logits overflow
def test_fuzzed_file_loads_or_is_rejected(toy_checkpoint, edit):
    path, raw = toy_checkpoint
    assert len(raw) > FUZZ_SPAN
    kind, pos = edit[0], edit[1]
    if kind == "mutate":
        fuzzed = raw[:pos] + bytes([edit[2]]) + raw[pos + 1:]
    elif kind == "truncate":
        fuzzed = raw[:pos]
    else:
        fuzzed = raw[:pos] + edit[2] + raw[pos:]
    bad = path.with_name("fuzzed.wgts")
    bad.write_bytes(fuzzed)
    try:
        model = load_checkpoint(bad, TOY)
    except (CheckpointError, ConfigError):
        expected = 2
    else:
        # A loadable file whose values overflow the logits of an evaluation image is refused too.
        c = model.config
        eval_set = synth_dataset(c.dataset, c.dataset_size, c.H, c.W, c.num_classes, c.seed + EVAL_SEED_OFFSET)
        with np.errstate(all="ignore"):
            finite = all(np.isfinite(model.forward(image).data).all() for image, _ in eval_set)
        expected = 0 if finite else 2
    assert main(["eval", "--checkpoint", str(bad), *TOY_OVERRIDES]) == expected
