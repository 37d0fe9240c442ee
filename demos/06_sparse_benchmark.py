#!/usr/bin/env python3
"""Dense vs sparse propagation timing across pruning strengths.

Larger threshold coefficients prune more edges.  The sparse path is the
bit-identity oracle of the dense masked product: it gives the same bytes at
every point.  It is not a speed path: its per-neighbour indexing costs more
than the products it skips, so it is faster only when every edge is pruned.
"""

from wingraph.bench import run_benchmark

rows = run_benchmark(ks=[64], ds=[32], coefficients=[0.125, 0.5, 1.0, 2.0, 1e6],
                     repeats=30, seed=0)

print(f"{'c':>8} {'kept':>6} {'dense ms':>10} {'sparse ms':>10} {'diff':>6}")
for row in rows:
    print(f"{row.c:>8g} {row.kept_edges:>6} "
          f"{row.dense_ms:>10.4f} {row.sparse_ms:>10.4f} {row.max_abs_diff:>6g}")
    assert row.max_abs_diff == 0.0

print("\nsparse output is bit-identical to the dense masked product at every point;")
print("with any edge kept the dense path is the faster one, and the sparse path")
print("wins only when every edge is pruned, where it does no column work at all.")
