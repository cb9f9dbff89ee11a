"""semeq: census tools for semi-equivelar maps on closed surfaces.

A semi-equivelar map is a polyhedral map in which every vertex sees the same
cyclic pattern of face sizes.  This package computes the arithmetically
admissible (vertex count, vertex type) pairs on a surface of prescribed Euler
characteristic, exhaustively enumerates the maps of a given type up to
isomorphism, and analyzes each map's automorphism group, vertex orbits, and
auxiliary link-intersection graphs.
"""

from .mapcore import (
    CombMap,
    DisconnectedError,
    EdgeDegreeError,
    FaceListMap,
    LinkCycle,
    MapBuildError,
    NoSuchVertexError,
    PinchedVertexError,
    PolyhedralityReport,
    RepeatedVertexInFaceError,
    build_from_faces,
    dual_map,
    euler_characteristic,
    face_cycle_type,
    face_list_of,
    link_cycle,
    semi_equivelar_type,
    surface_signature,
    validate_polyhedral,
)
from .typecalc import (
    AdmissiblePair,
    DegreeTooSmall,
    FilterOptions,
    SizeTooSmall,
    TypeSyntaxError,
    VertexTypeSpec,
    admissible_types,
    closed_star_size,
    datta_maity_admissible,
    face_counts,
    normalize_cycle,
    parse_type,
    vertex_count_for,
)
from .symmetry import (
    CanonicalCode,
    GiGraph,
    PermGroup,
    automorphism_group,
    canonical_code,
    canonical_order,
    gi_graph,
    is_vertex_transitive,
    isomorphic,
    recognize_group,
    vertex_orbits,
)
from .enumerator import (
    CorruptCheckpointError,
    EnumOptions,
    EnumerationResult,
    InconsistentParametersError,
    enumerate_maps,
    exists_any,
)
from .transforms import NotPolyhedralError, rectify, truncate
from .mapfile import MapFileError, dumps, loads, read_map_file, write_map_file
from .census import analyze_map, census, census_report_json
from .fixtures import fixture_face_list, fixture_map, fixture_names, fixtures_for_type

__version__ = "0.1.0"
