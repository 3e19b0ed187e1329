import itertools
import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

import kinglattice
from kinglattice import PointSet, random_point_set


# Sets in Z^1..Z^4, empty ones included; a small box makes gaps common.
small_lattice_sets = st.integers(1, 4).flatmap(
    lambda n: st.sets(
        st.tuples(*[st.integers(-3, 3)] * n), max_size=14
    ).map(lambda pts: PointSet(n, frozenset(pts)))
)


def box(*extents: int) -> PointSet:
    """Axis-aligned box [0, a) x [0, b) x ..."""
    return PointSet.of(itertools.product(*(range(e) for e in extents)))


def subprocess_env() -> dict[str, str]:
    """The environment with the imported package's root first on PYTHONPATH."""
    env = dict(os.environ)
    root = str(Path(kinglattice.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def suite_sets() -> list[PointSet]:
    """Seeded random sets in dims 1 to 3 shared by the property suites."""
    out = []
    for i in range(300):
        dim = 1 + i % 3
        k = 1 + i % 12
        side = 14 if dim == 1 else 8
        out.append(random_point_set(dim, k, side, seed=1000 + i))
    return out
