"""The output digest tool is deterministic, sees a one-ulp weight change,
and prints the committed golden digests, both on this platform's own kernels
and under one pinned profile that any x86-64 machine with AVX2 and FMA can run.

Run as a script, this module prints a fresh golden file (the platform
header, then the tool's lines). The native file and the pinned-profile file:

    PYTHONPATH=src python3 tests/test_output_digest.py > tests/golden_output_digest.txt
    OPENBLAS_CORETYPE=Haswell NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" \
        PYTHONPATH=src python3 tests/test_output_digest.py > tests/golden_output_digest_pinned.txt
"""

import contextlib
import ctypes
import importlib.util
import io
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden_output_digest.txt"
PINNED_GOLDEN = ROOT / "tests" / "golden_output_digest_pinned.txt"
# OpenBLAS's Haswell kernels and numpy's SIMD loops up to X86_V3 (AVX2, FMA).
PINNED_PROFILE = {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}
_spec = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def openblas_core() -> str:
    """The kernel set OpenBLAS picked at run time (``OPENBLAS_CORETYPE`` or the
    CPU), asked of the library bundled in ``numpy.libs``; ``unknown`` when
    that library or its symbol is missing."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes = []
            corename.restype = ctypes.c_char_p
            return corename().decode("ascii")
    return "unknown"


def platform_fingerprint() -> list[str]:
    """The golden file's header: what its floats depend on besides the code.

    ``openblas configuration`` is the string numpy was built against, so it
    names the build's target core, not the kernels OpenBLAS picks at run
    time; ``openblas core`` names those. Numpy's own SIMD loops follow the
    CPU too, which is why the CPU features numpy found at run time are part
    of the header.
    """
    config = np.show_config(mode="dicts")
    return [f"# numpy {np.__version__}",
            f"# openblas configuration: {config['Build Dependencies']['blas'].get('openblas configuration')}",
            f"# openblas core: {openblas_core()}",
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


def skip_unless_platform(golden: list[str], here: list[str]) -> None:
    """Skip, naming each difference, when the fingerprint ``here`` differs from
    the header of the golden file's ``golden`` lines."""
    header = [line for line in golden if line.startswith("#")][1:]
    if header != here:
        changed = "; ".join(f"{a[2:]!r} in the file, {b[2:]!r} here"
                            for a, b in itertools.zip_longest(header, here, fillvalue="# nothing") if a != b)
        pytest.skip(f"golden digests were made on another platform: {changed}")


def assert_digests(golden_path: Path, golden: list[str], fresh_lines: list[str]) -> None:
    """Every configuration's digest in ``fresh_lines`` equals the golden line."""
    golden = dict(line.split() for line in golden if not line.startswith("#"))
    fresh = dict(line.split() for line in fresh_lines)
    assert list(fresh) == list(golden), "the tool's configurations differ from the golden file's"
    differing = [name for name in golden if fresh[name] != golden[name]]
    assert not differing, f"digests differ from {golden_path.name} in: {', '.join(differing)}"


def test_output_matches_golden_digests():
    """Every configuration's digest equals the committed golden line.

    Policy: ``tests/golden_output_digest.txt`` and
    ``tests/golden_output_digest_pinned.txt`` change only in a change that
    means to change output. That change lists the lines it changes, and
    why, in ``CHANGES.md``, and regenerates both files by running this
    module as a script, as its docstring shows. Regenerating a file to make
    a failing test pass is a loosening. The test skips, naming the
    difference, when this platform's fingerprint differs from the file's
    header, because OpenBLAS and numpy pick their kernels, and with them
    the last bits of a float, by CPU.
    """
    golden = GOLDEN.read_text().splitlines()
    skip_unless_platform(golden, platform_fingerprint())
    assert_digests(GOLDEN, golden, tool_lines())


def test_pinned_profile_matches_golden_digests():
    """The same check in a subprocess under ``PINNED_PROFILE``, against the file
    made under it, so that one set of kernels is checked on any x86-64 machine
    with AVX2 and FMA and the same numpy build; same policy as above."""
    env = {**os.environ, **PINNED_PROFILE,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    fresh = run.stdout.splitlines()
    golden = PINNED_GOLDEN.read_text().splitlines()
    skip_unless_platform(golden, [line for line in fresh if line.startswith("#")][1:])
    assert_digests(PINNED_GOLDEN, golden, [line for line in fresh if not line.startswith("#")])


if __name__ == "__main__":
    print("# tools/output_digest.py lines; tests/test_output_digest.py says when they may change")
    print(*platform_fingerprint(), *tool_lines(), sep="\n")
