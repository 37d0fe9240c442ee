"""Dense vs sparse node-propagation timing.

For each (node count K, feature dim D, threshold coefficient c) the
benchmark builds a row-softmax relation matrix and prunes it at c times the
mean entry, as a graph round does (``relation_softmax``, ``make_theta``,
``sparsify``), then times both propagation paths on identical data.  The two
paths are bit-identical by construction, so the max absolute difference
column must be exactly 0; it is recorded as a per-row verification.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .graph import make_theta, node_update_dense_data, node_update_sparse_data, relation_softmax, sparsify
from .tensor import Tensor

CSV_HEADER = "K,D,c,dense_ms,sparse_ms,max_abs_diff"


@dataclass
class BenchRow:
    K: int
    D: int
    c: float
    dense_ms: float
    sparse_ms: float
    max_abs_diff: float
    kept_edges: int

    def csv(self) -> str:
        return (f"{self.K},{self.D},{self.c:g},{self.dense_ms:.6f},"
                f"{self.sparse_ms:.6f},{self.max_abs_diff:g}")


def _time_ms(fn, repeats: int) -> tuple[float, np.ndarray]:
    """Mean wall time of ``repeats`` calls after one warm-up, and the last output."""
    fn()  # warm-up outside the measurements
    times = np.empty(repeats)
    for r in range(repeats):
        start = time.perf_counter()
        out = fn()
        times[r] = (time.perf_counter() - start) * 1e3
    return float(times.mean()), out


def bench_point(k: int, d: int, c: float, repeats: int, rng: np.random.Generator) -> BenchRow:
    nodes = rng.uniform(-1.0, 1.0, (k, d))
    rel = relation_softmax(Tensor(nodes))
    rel = sparsify(rel, make_theta(rel.values, c))
    masked, mask = rel.values.data, rel.mask

    dense_ms, dense = _time_ms(lambda: node_update_dense_data(masked, nodes), repeats)
    sparse_ms, sparse = _time_ms(lambda: node_update_sparse_data(masked, mask, nodes), repeats)
    return BenchRow(k, d, c, dense_ms, sparse_ms, float(np.abs(dense - sparse).max()), rel.kept_edges())


def run_benchmark(ks: list[int], ds: list[int], coefficients: list[float],
                  repeats: int = 30, seed: int = 0) -> list[BenchRow]:
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    rows = []
    for k in ks:
        for d in ds:
            for c in coefficients:
                rng = np.random.default_rng(seed + 7919 * k + 101 * d)
                rows.append(bench_point(k, d, c, repeats, rng))
    return rows


def format_csv(rows: list[BenchRow]) -> str:
    return "\n".join([CSV_HEADER] + [row.csv() for row in rows]) + "\n"
