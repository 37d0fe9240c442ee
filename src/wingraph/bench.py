"""Dense vs sparse node-propagation timing.

For each (node count K, feature dim D, threshold coefficient c) the
benchmark builds a row-softmax relation matrix, prunes it at c times the
mean entry, and times both propagation paths on identical data.  The two
paths are bit-identical by construction, so the max absolute difference
column must be exactly 0; it is recorded as a per-row verification.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .graph import node_update_dense_data, node_update_sparse_data
from .tensor import Tensor, softmax_rows

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


def _time_ms(fn, repeats: int) -> tuple[float, list[np.ndarray]]:
    fn()  # warm-up outside the measurements
    times = np.empty(repeats)
    outputs = []
    for r in range(repeats):
        start = time.perf_counter()
        out = fn()
        times[r] = (time.perf_counter() - start) * 1e3
        outputs.append(out)
    return float(times.mean()), outputs


def bench_point(k: int, d: int, c: float, repeats: int, rng: np.random.Generator) -> BenchRow:
    nodes = rng.uniform(-1.0, 1.0, (k, d))
    values = softmax_rows(Tensor(nodes @ nodes.T)).data
    theta = c * values.mean()
    mask = values > theta
    masked = np.where(mask, values, 0.0)

    dense_ms, dense_outs = _time_ms(lambda: node_update_dense_data(masked, nodes), repeats)
    sparse_ms, sparse_outs = _time_ms(lambda: node_update_sparse_data(masked, mask, nodes), repeats)

    diff = max(float(np.abs(a - b).max()) for a, b in zip(dense_outs, sparse_outs))
    return BenchRow(k, d, c, dense_ms, sparse_ms, diff, int(mask.sum()))


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
