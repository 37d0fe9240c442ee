"""The output digest tool is deterministic and sees a one-ulp weight change."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def test_digest_is_repeatable_and_sees_one_weight():
    name, config = output_digest.configurations()[0]
    assert name.startswith("toy-")
    first = output_digest.digest(*output_digest.prepare(config))
    assert output_digest.digest(*output_digest.prepare(config)) == first

    model, data = output_digest.prepare(config)
    w = model.parameters()["head"].data
    w[0, 0, 0, 0] = np.nextafter(w[0, 0, 0, 0], np.inf)
    assert output_digest.digest(model, data) != first


def test_digest_refuses_non_finite_values():
    _, config = output_digest.configurations()[0]
    model, data = output_digest.prepare(config)
    model.parameters()["head"].data[0, 0, 0, 0] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite logits at step 0"):
        output_digest.digest(model, data)
