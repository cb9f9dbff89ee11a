"""Census assembly: admissible types, enumeration, and per-map analysis.

A census run for a fixed Euler characteristic walks the admissible (n, type)
list, enumerates each short-running row exhaustively up to isomorphism, and
summarizes every map found: canonical-code digest, automorphism group order
and structure, vertex orbits, and the auxiliary same-link-intersection
graphs.  Rows whose searches are known to be long (n >= 40) are skipped
unless explicitly enabled, and report status "not-run(long)".

The JSON report has a versioned schema with stable key order, so byte-equal
reports mean equal censuses.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

from .enumerator import EnumOptions, enumerate_maps
from .mapcore import CombMap, surface_signature
from .symmetry import _gi_degrees, _group_summary, canonical_code
from .typecalc import AdmissiblePair, FilterOptions, admissible_types

__all__ = ["CENSUS_SCHEMA_VERSION", "LONG_RUN_VERTEX_COUNT", "analyze_map",
           "census", "census_report_json"]

CENSUS_SCHEMA_VERSION = 1

# searches at these sizes take hours; they are gated behind an explicit flag
LONG_RUN_VERTEX_COUNT = 40


def analyze_map(m: CombMap) -> dict:
    """Label-free summary of one map: group data, orbits, link-graph data."""
    order, structure, orbits = _group_summary(m)
    chi, orientable, genus = surface_signature(m)
    # every nonempty G_i from one pass over the vertex pairs, as degree lists
    gi_summary = {}
    for i, degs in sorted(_gi_degrees(m).items()):
        gi_summary[str(i)] = {
            "edges": sum(degs) // 2,
            "degree_multiset_constant": min(degs) == max(degs),
        }
    return {
        "vertices": m.f0,
        "edges": m.f1,
        "faces": m.f2,
        "euler_characteristic": chi,
        "orientable": orientable,
        "euler_genus": genus,
        "canonical_digest": canonical_code(m).digest(),
        "aut_order": order,
        "aut_structure": structure,
        "orbit_count": len(orbits),
        "orbit_sizes": sorted(len(o) for o in orbits),
        "vertex_transitive": len(orbits) == 1,
        "gi_graphs": gi_summary,
    }


@dataclass(frozen=True)
class CensusRow:
    pair: AdmissiblePair
    status: str
    maps: tuple[CombMap, ...]
    analyses: tuple[dict, ...]
    complete: bool


def census(
    chi: int,
    filters: FilterOptions | None = None,
    enum_opts: EnumOptions | None = None,
    include_long: bool = False,
) -> list[CensusRow]:
    filters = filters or FilterOptions()
    enum_opts = enum_opts or EnumOptions()
    rows = []
    for pair in admissible_types(chi, filters):
        if pair.n >= LONG_RUN_VERTEX_COUNT and not include_long:
            rows.append(CensusRow(pair, "not-run(long)", (), (), False))
            continue
        opts = enum_opts
        # each row keeps its own checkpoint, e.g. PATH.3e5-4e1.n12
        if enum_opts.checkpoint_path is not None:
            slug = str(pair.type).strip("[]").replace("^", "e").replace(",", "-")
            path = f"{enum_opts.checkpoint_path}.{slug}.n{pair.n}"
            opts = replace(enum_opts, checkpoint_path=path)
        result = enumerate_maps(pair.type, pair.n, chi, opts)
        if not result.complete:
            status = "not-run(budget)"
        elif result.maps:
            status = f"exists({len(result.maps)})"
        else:
            status = "empty"
        analyses = tuple(analyze_map(m) for m in result.maps)
        rows.append(CensusRow(pair, status, result.maps, analyses, result.complete))
    return rows


def census_report_json(chi: int, rows: list[CensusRow],
                       filters: FilterOptions | None = None) -> str:
    filters = filters or FilterOptions()
    doc = {
        "schema_version": CENSUS_SCHEMA_VERSION,
        "euler_characteristic": chi,
        "filters": asdict(filters),
        "rows": [
            {
                "type": str(row.pair.type),
                "cycle": list(row.pair.type.cycle),
                "n": row.pair.n,
                "face_counts": {str(q): x for q, x in sorted(row.pair.face_counts.items())},
                "status": row.status,
                "maps": list(row.analyses),
            }
            for row in rows
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=False)
