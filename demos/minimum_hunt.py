"""
Hunting minimal-boundary sets exhaustively
==========================================

Scanning every size-k subset of the plane is impossible, but compression
makes the problem finite: every set flows, without gaining boundary, to a
fixed point whose axis sections are centered runs, so the minimum over all
sets equals the minimum over those fixed points.  In the plane the fixed
points of size k are nested row stacks, one per integer partition of k.
"""

from kinglattice import (
    enumerate_compressed_sets,
    fully_gap_free,
    min_edge_boundary,
    render_grid,
    survey_gap_free_optima,
)

# The candidate family stays tiny even as the raw search space explodes.
print("size  candidate fixed points")
for k in range(1, 13):
    count = sum(1 for _ in enumerate_compressed_sets(2, k))
    print(f"{k:4d}  {count:5d}")

# Exhaustive minima for all sizes up to 12, with a note on whether the
# optimal sets are free of gaps in all eight directions, not just along
# the axes.
print("\nsize  min boundary  witnesses  all witnesses gap-free")
for row in survey_gap_free_optima(2, 12):
    flag = "yes" if row.all_witnesses_gap_free else "no"
    print(
        f"{row.size:4d}  {row.min_edge_boundary:12d}  {len(row.witnesses):9d}  {flag}"
    )

# The twelve-point minimum in detail: 36 edges, achieved by exactly one
# shape up to translation.
report = min_edge_boundary(2, 12)
print(f"\nmin(2, 12) = {report.min_edge_boundary}, "
      f"proved over {report.sets_scanned} candidates")
for witness, stats in zip(report.witnesses, report.witness_stats):
    print(f"witness with exterior vertex boundary {stats.exterior_vertex_boundary}:")
    print(render_grid(witness))
    assert fully_gap_free(witness)

# Three dimensions work the same way, only with bigger constants: the
# single point has 26 neighbors instead of 8.
cube = min_edge_boundary(3, 8)
print(f"\nmin(3, 8) = {cube.min_edge_boundary} "
      f"with {len(cube.witnesses)} witness(es)")
