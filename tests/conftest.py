"""Shared fixtures: small reference maps and cached census enumerations."""

import os
from pathlib import Path

import pytest

from semeq.enumerator import EnumOptions, enumerate_maps
from semeq.mapcore import FaceListMap, build_from_faces


TETRAHEDRON = FaceListMap(4, ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)))
CUBE = FaceListMap(
    8,
    ((1, 2, 3, 4), (5, 6, 7, 8), (1, 2, 6, 5), (2, 3, 7, 6), (3, 4, 8, 7), (4, 1, 5, 8)),
)
OCTAHEDRON = FaceListMap(
    6,
    ((1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 2), (6, 2, 3), (6, 3, 4), (6, 4, 5), (6, 5, 2)),
)
DOUBLED_TRIANGLE = FaceListMap(3, ((1, 2, 3), (1, 3, 2)))
BIPYRAMID = FaceListMap(
    5, ((1, 2, 3), (1, 3, 4), (1, 4, 2), (5, 2, 3), (5, 3, 4), (5, 4, 2))
)
# the icosahedron, vertex 12 antipodal to vertex 1, as map-file face lists
ICOSAHEDRON = [[1, 2, 3], [1, 3, 4], [1, 4, 5], [1, 5, 6], [1, 6, 2], [2, 3, 7], [3, 4, 8],
               [4, 5, 9], [5, 6, 10], [6, 2, 11], [3, 8, 7], [4, 9, 8], [5, 10, 9],
               [6, 11, 10], [2, 7, 11], [12, 7, 8], [12, 8, 9], [12, 9, 10], [12, 10, 11],
               [12, 11, 7]]

SRC = Path(__file__).resolve().parent.parent / "src"


def checkout_env() -> dict:
    """The environment for a subprocess that must import this checkout's
    semeq: its src/ first on PYTHONPATH, ahead of any installed copy."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.fixture(scope="session")
def tetrahedron():
    return build_from_faces(TETRAHEDRON)


@pytest.fixture(scope="session")
def cube():
    return build_from_faces(CUBE)


@pytest.fixture(scope="session")
def octahedron():
    return build_from_faces(OCTAHEDRON)


@pytest.fixture(scope="session")
def census_4451():
    """The three [4^3,5^1] maps with 20 vertices on the chi = -1 surface.

    This is the most expensive enumeration in the default suite, shared
    across all tests that need it.
    """
    return enumerate_maps("[4^3,5^1]", 20, -1)


@pytest.fixture(scope="session")
def census_35_4():
    return enumerate_maps("[3^5,4^1]", 12, -1)
