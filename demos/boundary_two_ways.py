"""
Counting the edge boundary two ways
===================================

Every edge of the king-move graph on Z^2 is a unit step in one of the
eight directions of {-1,0,1}^2.  The edges leaving a finite set can be
counted one by one, or per direction as (occupied lines) +
(gaps along those lines).  The two totals agree on every set; this script
shows the bookkeeping side by side.
"""

import itertools

from kinglattice import (
    PointSet,
    closed_vertex_boundary,
    edge_boundary_count,
    edge_boundary_formula,
    exterior_vertex_boundary,
    gap_set,
    render_grid,
)

# A 4 x 3 box of twelve points.
box = PointSet.of(itertools.product(range(4), range(3)))
print(render_grid(box))

# Direct counting walks every point and every step direction.
count = edge_boundary_count(box)
print(f"direct enumeration: {count} boundary edges")

# The per-direction formula never looks at individual edges.  For each of
# the eight step directions it counts the lattice lines meeting the set,
# plus the gaps in the set along those lines.
breakdown = edge_boundary_formula(box)
print("\ndirection   lines  gaps")
for d, (lines, gaps) in sorted(breakdown.per_direction.items()):
    print(f"({d[0]:+d},{d[1]:+d})     {lines:5d} {gaps:5d}")
print(f"formula total: {breakdown.total}")

# A box has no gaps in any direction, so its boundary is just the summed
# line counts: 4 columns + 3 rows + 6 lines in each diagonal direction,
# everything doubled because directions come in opposite pairs.
assert breakdown.total == count == 38

# Vertex boundaries of the same box.
print(f"\nexterior vertex boundary: {exterior_vertex_boundary(box)}")
print(f"closed vertex boundary:   {closed_vertex_boundary(box)}")

# Gaps appear as soon as a line through the set has a hole.  {0, 2} on the
# integer line has one gap, seen from either end.
pair = PointSet.of([(0,), (2,)])
print(f"\npair {{0, 2}}: boundary {edge_boundary_count(pair)}")
print(f"gap walking right: {set(gap_set(pair, (1,)))}")
print(f"gap walking left:  {set(gap_set(pair, (-1,)))}")

# The twelve-point set with the smallest possible boundary is not the box:
# clipping the corners into an octagon saves two edges.
octagon = PointSet.of(
    [(x, y) for x, y in itertools.product(range(4), range(4))
     if (x, y) not in {(0, 0), (0, 3), (3, 0), (3, 3)}]
)
print(f"\noctagon boundary: {edge_boundary_count(octagon)} (box had 38)")
print(render_grid(octagon))
