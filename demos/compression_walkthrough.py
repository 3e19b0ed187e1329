"""
Squeezing a set without growing its boundary
============================================

Central compression slides every section of a set along one axis into a
run centered on zero.  The move keeps the number of points, never adds
boundary edges, and closes every gap along that axis.  It also keeps the
other axes' sections centered, so one sweep over the axes drives any set to
a fixed point.  A two-part potential drops at every changing step, and the
sweep checks that it does.
"""

from kinglattice import (
    PointSet,
    canonical_segment,
    central_compress,
    compress_to_fixed_point,
    edge_boundary_count,
    potential,
    render_grid,
)

# Centered runs are the building blocks: odd sizes sit symmetrically
# around 0, even sizes keep the extra point on the right.
for m in range(1, 6):
    print(f"canonical run of {m}: {list(canonical_segment(m))}")

# Start from a deliberately scattered set.
scattered = PointSet.of([(0, 0), (0, 9), (4, 5), (5, 5), (2, 7)])
print("\nbefore:")
print(render_grid(scattered))
print(f"boundary {edge_boundary_count(scattered)}, potential {potential(scattered)}")

# One compression along the vertical axis already tells the story: every
# column collapses into a centered run, columns keep their sizes.
squeezed = central_compress(scattered, 2)
print("\nafter one vertical compression:")
print(render_grid(squeezed))
print(f"boundary {edge_boundary_count(squeezed)}, potential {potential(squeezed)}")

# Sweeping to the fixed point records only the steps that changed the
# set.  Watch the potential fall strictly while the boundary never rises.
trace = compress_to_fixed_point(scattered)
print("\nstep  axis  boundary        potential")
for i, step in enumerate(trace.steps, start=1):
    print(
        f"{i:4d} {step.axis:5d}  {step.boundary_before:3d} -> {step.boundary_after:3d}"
        f"   {step.potential_before} -> {step.potential_after}"
    )

print("\nfixed point:")
print(render_grid(trace.final))
print(f"boundary {edge_boundary_count(trace.final)}")

# The fixed point is fixed for every axis at once.
assert all(
    central_compress(trace.final, axis) == trace.final
    for axis in (1, 2)
)

# In one dimension the fixed point of any k points is the centered run of
# k, whatever the starting positions.
line = PointSet.of([(-9,), (2,), (31,)])
print(f"\n1-d scatter {sorted(p[0] for p in line.points)} "
      f"compresses to {sorted(p[0] for p in compress_to_fixed_point(line).final.points)}")
