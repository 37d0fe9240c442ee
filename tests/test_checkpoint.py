"""Checkpoint format: bit-exact round trips and corruption detection."""

import dataclasses
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wingraph.checkpoint import (
    MAGIC,
    CheckpointError,
    load_checkpoint,
    read_manifest,
    save_checkpoint,
)
from wingraph.cli import main
from wingraph.data import synth_dataset
from wingraph.metrics import evaluate_miou
from wingraph.model import ConfigError, SegmenterConfig, build_model
from wingraph.train import train

TOY = SegmenterConfig(C=4, H=4, W=4, stages=((1, 2, 2),), num_classes=2,
                      r_gr=2, r_lr=2, r_ba=2, dataset_size=2, steps=5)


@pytest.fixture
def trained(tmp_path):
    model = build_model(TOY)
    dataset = synth_dataset("stripes", 2, 4, 4, 2, 0)
    train(model, dataset, steps=5, lr=0.1)
    path = tmp_path / "model.wgts"
    save_checkpoint(model, path)
    return model, dataset, path


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

    def test_magic_and_version(self, trained):
        _, _, path = trained
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        assert struct.unpack_from("<H", raw, 4)[0] == 1

    def test_manifest_lists_every_parameter_in_order(self, trained):
        model, _, path = trained
        entries, _ = read_manifest(path.read_bytes())
        assert [e.name for e in entries] == list(model.parameters())
        for e in entries:
            assert e.shape == model.parameters()[e.name].shape

    def test_offsets_contiguous_non_overlapping(self, trained):
        _, _, path = trained
        entries, blob_start = read_manifest(path.read_bytes())
        expected = 0
        for e in entries:
            assert e.offset == expected
            expected += e.length
        assert len(path.read_bytes()) == blob_start + expected


class TestCorruption:
    def test_bad_magic(self, trained, tmp_path):
        _, _, path = trained
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        bad = tmp_path / "bad.wgts"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(bad, TOY)

    def test_truncated_blob(self, trained, tmp_path):
        _, _, path = trained
        raw = path.read_bytes()
        bad = tmp_path / "short.wgts"
        bad.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError, match="truncated blob"):
            load_checkpoint(bad, TOY)

    def test_truncated_manifest(self, trained, tmp_path):
        _, _, path = trained
        bad = tmp_path / "header.wgts"
        bad.write_bytes(path.read_bytes()[:20])
        with pytest.raises(CheckpointError, match="truncated manifest"):
            load_checkpoint(bad, TOY)

    def test_non_utf8_entry_name(self, trained, tmp_path):
        _, _, path = trained
        raw = bytearray(path.read_bytes())
        raw[12] = 0xFF  # first byte of the first manifest entry name
        bad = tmp_path / "name.wgts"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="not valid utf-8"):
            load_checkpoint(bad, TOY)

    def test_size_overflow_rejected(self):
        # 8 * 2**32 * 2**32 wraps to 0 in 64-bit arithmetic, matching length 0
        raw = (MAGIC + struct.pack("<HI", 1, 1) + struct.pack("<H", 1) + b"w"
               + struct.pack("<BB", 1, 2) + struct.pack("<2Q", 2**32, 2**32)
               + struct.pack("<QQ", 0, 0))
        with pytest.raises(CheckpointError, match="byte length 0 != shape size"):
            read_manifest(raw)

    def test_trailing_bytes(self, trained, tmp_path):
        _, _, path = trained
        bad = tmp_path / "long.wgts"
        bad.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(CheckpointError, match="trailing bytes"):
            load_checkpoint(bad, TOY)

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_named(self, trained, tmp_path, bad_value):
        _, _, path = trained
        raw = bytearray(path.read_bytes())
        entries, blob_start = read_manifest(bytes(raw))
        # Poison the last value of the second and third entries: the error
        # names the second, the first in manifest order.
        for e in entries[1:3]:
            struct.pack_into("<d", raw, blob_start + e.offset + e.length - 8, bad_value)
        bad = tmp_path / "nan.wgts"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=f"entry '{entries[1].name}' holds a NaN or an infinity"):
            load_checkpoint(bad, TOY)

    def test_manifest_mismatch_different_structure(self, trained):
        _, _, path = trained
        other = dataclasses.replace(TOY, enable_ba=False)
        with pytest.raises(CheckpointError, match="manifest mismatch"):
            load_checkpoint(path, other)

    def test_manifest_mismatch_names_the_shape(self, trained):
        _, _, path = trained
        message = "'ba.squeeze' has shape [2, 4, 1, 1], model expects [4, 4, 1, 1]"
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path, dataclasses.replace(TOY, r_ba=1))

    @pytest.mark.parametrize("config,message", [
        (dataclasses.replace(TOY, enable_ba=False), "manifest mismatch: missing"),
        (dataclasses.replace(TOY, r_ba=1), "manifest mismatch: 'ba.squeeze' has shape"),
    ], ids=["names", "shapes"])
    def test_mismatch_found_from_the_spec_before_any_build(self, trained, monkeypatch, config, message):
        _, _, path = trained

        def no_build(config, arena):
            raise AssertionError("a model was built before the manifest was checked")

        monkeypatch.setattr("wingraph.checkpoint.Segmenter", no_build)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(path, config)

    def test_invalid_config_rejected_before_any_build(self, trained, monkeypatch):
        _, _, path = trained
        monkeypatch.setattr("wingraph.checkpoint.Segmenter", lambda config, arena: pytest.fail("built"))
        with pytest.raises(ConfigError, match="r_gr=3 does not divide"):
            load_checkpoint(path, dataclasses.replace(TOY, r_gr=3))

    @pytest.mark.parametrize("layout", ["permuted", "gapped"])
    def test_entries_must_lie_back_to_back(self, trained, tmp_path, layout):
        # Each file keeps every entry's offset pointing at that entry's own
        # data, so a reader that follows the offsets would load it.
        _, _, path = trained
        raw = path.read_bytes()
        entries, start = read_manifest(raw)
        first, second = entries[:2]
        blob, split = raw[start:], first.length + second.length
        if layout == "permuted":  # the first two entries' data swapped
            offsets = [second.length, 0] + [e.offset for e in entries[2:]]
            blob = blob[first.length:split] + blob[:first.length] + blob[split:]
            message = f"entry '{first.name}': blob offset {second.length}, expected 0"
        else:  # an 8-byte NaN between the first two entries
            offsets = [0] + [e.offset + 8 for e in entries[1:]]
            blob = blob[:first.length] + struct.pack("<d", np.nan) + blob[first.length:]
            message = f"entry '{second.name}': blob offset {first.length + 8}, expected {first.length}"
        header = bytearray(raw[:start])
        pos = 10
        for e, offset in zip(entries, offsets):
            pos += 2 + len(e.name.encode("utf-8")) + 2 + 8 * len(e.shape)
            struct.pack_into("<Q", header, pos, offset)
            pos += 16
        bad = tmp_path / f"{layout}.wgts"
        bad.write_bytes(bytes(header) + blob)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            load_checkpoint(bad, TOY)
        assert main(["eval", "--checkpoint", str(bad), *TOY_OVERRIDES]) == 2

    def test_unsupported_version(self, trained, tmp_path):
        _, _, path = trained
        raw = bytearray(path.read_bytes())
        struct.pack_into("<H", raw, 4, 9)
        bad = tmp_path / "v9.wgts"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="unsupported version"):
            load_checkpoint(bad, TOY)

    def test_failed_load_does_not_return_partial_model(self, trained, tmp_path):
        _, _, path = trained
        raw = path.read_bytes()
        bad = tmp_path / "short.wgts"
        bad.write_bytes(raw[:-8])
        with pytest.raises(CheckpointError):
            load_checkpoint(bad, TOY)
        # a fresh build still works and is untouched by the failed attempt
        fresh = build_model(TOY)
        ref = build_model(TOY)
        for name, p in fresh.parameters().items():
            assert np.array_equal(p.data, ref.parameters()[name].data)


# The same architecture as TOY, spelled as `wingraph eval` overrides.
TOY_OVERRIDES = [arg for kv in ("C=4", "H=4", "W=4", "stages=1x2x2", "num_classes=2", "r_gr=2",
                                "r_lr=2", "r_ba=2", "dataset_size=2") for arg in ("--override", kv)]
FUZZ_SPAN = 600

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


@settings(max_examples=300, deadline=None)
@given(edit=edits)
@example(edit=("mutate", 0, MAGIC[0]))  # the file unchanged
@example(edit=("mutate", 517, 248))  # a 248-d shape for stage0.gt.lr.unsqueeze
def test_fuzzed_header_loads_or_is_rejected(toy_checkpoint, edit):
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
        load_checkpoint(bad, TOY)
        expected = 0
    except CheckpointError:
        expected = 2
    assert main(["eval", "--checkpoint", str(bad), *TOY_OVERRIDES]) == expected
