"""wingraph benchmark: one command, three workloads, checked outputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload train_toy --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that reports per-layer metrics and writes its spans as JSON lines to
``.perfbench_out/``.  The program under test is the ``wingraph`` package
in ``src/`` of the same checkout, imported from source; the benchmark
refuses to run (exit 2, no result) when that source is missing.

Times are scaled to a reference machine speed measured during the run
(``workloads.Meter``); each line also shows the raw figure.

Output: an environment block and one line per metric, then ``REPORT``
followed by a JSON object with every figure the run took, then, as the
last line, the result object ``{"correct", "attempted", "failed",
"metrics"}``.  The exit code is 0 when every output check passed, 1 when
any operation or check failed, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
# The program is single-threaded; one BLAS thread keeps the load to one
# core and the timings steady on a shared machine.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def openblas_threads(np) -> str:
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    import ctypes

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment(np) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": openblas_threads(np),
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def clean(value):
    """JSON number, or None for a figure a failure left undefined."""
    return value if isinstance(value, (int, float)) and math.isfinite(value) else None


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import spec

    args = parse_args(argv, spec.WORKLOADS)
    src = ROOT / "src"
    if not (src / "wingraph" / "__init__.py").is_file():
        print(f"perfbench: no wingraph source at {src}; run from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import numpy as np
    import wingraph

    if Path(wingraph.__file__).resolve().parent != (src / "wingraph").resolve():
        print(f"perfbench: imported wingraph from {wingraph.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    w = spec.WORKLOADS[args.workload]
    env = environment(np)
    print(f"# wingraph benchmark: workload {w.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "blas_env")
          + " " + " ".join(f"{k}={v}" for k, v in env["blas_env"].items()), flush=True)

    res, spans = workloads.run(w, args.seed, args.seconds, bool(args.trace), OUT_DIR)

    gated = spec.PER_LAYER if args.trace else spec.END_TO_END
    shown = gated if args.trace else gated + spec.INFO
    for m in shown:
        value = res.metrics.get(m.name, math.nan)
        base = m.name.rsplit("_", 1)[0]
        note = m.doc
        if m.name.endswith("_tail"):
            note = f"p{res.tails.get(base)} of {res.samples.get(base)} samples"
        elif m.name.endswith("_p50"):
            note = f"{note} [{res.samples.get(base)} samples]"
        raw = res.raw.get(m.name)
        if raw is not None:
            note = f"{note} (raw {raw:.6g})"
        print(f"{m.name:<26} {value:>14.6g} {m.unit:<6} {note}")
    print("# speed: " + " ".join(f"{k}={v:.6g}" for k, v in res.speed.items()))
    for what in res.failures:
        print(f"FAILED: {what}")

    if spans is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{w.name}-seed{args.seed}.jsonl"
        t0 = spans.records[0][1] if spans.records else 0.0
        with open(path, "w", encoding="ascii") as f:
            for name, start, end, parent, step in spans.records:
                f.write(json.dumps({"name": name, "start_ms": (start - t0) * 1e3,
                                    "end_ms": (end - t0) * 1e3, "parent": parent,
                                    "step": step}) + "\n")
        print(f"# spans: {len(spans.records)} written to {path.relative_to(ROOT)}")

    correct = res.failed == 0
    report = {"workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "units": {m.name: m.unit for m in shown},
              "metrics": {m.name: clean(res.metrics.get(m.name)) for m in shown},
              "raw": {k: clean(v) for k, v in res.raw.items()}, "speed": res.speed,
              "tail_percentile": res.tails, "samples": res.samples, "failures": res.failures}
    print("REPORT " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(res.attempted, 1),
        "failed": res.failed,
        "metrics": {m.name: {"value": clean(res.metrics.get(m.name)), "unit": m.unit} for m in gated},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
