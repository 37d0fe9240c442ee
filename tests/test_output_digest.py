"""The output digest tool is deterministic, sees a one-ulp weight change,
and prints the committed golden digests.

Run as a script, this module prints a fresh golden file (the platform
header, then the tool's lines):

    PYTHONPATH=src python3 tests/test_output_digest.py > tests/golden_output_digest.txt
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_output_digest.txt"
_spec = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def platform_fingerprint() -> list[str]:
    """The golden file's header: what its floats depend on besides the code.

    ``openblas configuration`` is the string numpy was built against, so it
    names the build's target core, not the kernels OpenBLAS picks at run
    time. Those follow the CPU, and so do numpy's own SIMD loops, which is
    why the CPU features numpy found at run time are part of the header.
    """
    config = np.show_config(mode="dicts")
    return [f"# numpy {np.__version__}",
            f"# openblas configuration: {config['Build Dependencies']['blas'].get('openblas configuration')}",
            f"# simd found: {' '.join(config['SIMD Extensions']['found'])}"]


def tool_lines() -> list[str]:
    """What ``tools/output_digest.py`` prints, one line per configuration."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        output_digest.main()
    return out.getvalue().splitlines()


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


def test_output_matches_golden_digests():
    """Every configuration's digest equals the committed golden line.

    Policy: ``tests/golden_output_digest.txt`` changes only in a change that
    means to change output. That change lists the lines it changes, and
    why, in ``CHANGES.md``, and regenerates the file by running this module
    as a script. Regenerating the file to make a failing test pass is a
    loosening. The test skips, naming the difference, when this platform's
    fingerprint differs from the file's header, because OpenBLAS and numpy
    pick their kernels, and with them the last bits of a float, by CPU.
    """
    lines = GOLDEN.read_text().splitlines()
    header = [line for line in lines if line.startswith("#")][1:]
    here = platform_fingerprint()
    if header != here:
        changed = "; ".join(f"{a[2:]!r} in the file, {b[2:]!r} here" for a, b in zip(header, here) if a != b)
        pytest.skip(f"golden digests were made on another platform: {changed}")
    golden = dict(line.split() for line in lines if not line.startswith("#"))
    fresh = dict(line.split() for line in tool_lines())
    assert list(fresh) == list(golden), "the tool's configurations differ from the golden file's"
    differing = [name for name in golden if fresh[name] != golden[name]]
    assert not differing, f"digests differ from {GOLDEN.name} in: {', '.join(differing)}"


if __name__ == "__main__":
    print("# tools/output_digest.py lines; tests/test_output_digest.py says when they may change")
    print(*platform_fingerprint(), *tool_lines(), sep="\n")
