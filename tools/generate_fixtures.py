"""Regenerate the bundled fixture maps.

Sphere and torus references are built from hand face lists or transforms;
the chi = -1 fixtures are produced by the enumerator and frozen together
with their canonical-code digests in MANIFEST.json.  A rerun reproduces
MANIFEST.json and the sphere and torus files byte for byte.  A chi = -1
file holds the labelled copy of its class that the search returns, so a
rerun may write another labelling of the same map: the digest in
MANIFEST.json stays, the face list in the file changes.  The committed
chi = -1 files hold copies an earlier enumerator returned, the last
completion of each class where the enumerator now returns the first, so a
rerun rewrites all 11 of them; they are kept, since the benchmark reads
them.

Usage: python tools/generate_fixtures.py [--skip-24]
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from semeq.enumerator import EnumOptions, enumerate_maps
from semeq.mapcore import FaceListMap, build_from_faces, dual_map, semi_equivelar_type
from semeq.mapfile import dumps
from semeq.symmetry import canonical_code
from semeq.transforms import rectify

OUT = Path(__file__).resolve().parent.parent / "src" / "semeq" / "fixtures"

TETRAHEDRON = FaceListMap(4, ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)))
CUBE = FaceListMap(
    8, ((1, 2, 3, 4), (5, 6, 7, 8), (1, 2, 6, 5), (2, 3, 7, 6), (3, 4, 8, 7), (4, 1, 5, 8))
)
OCTAHEDRON = FaceListMap(
    6, ((1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 2), (6, 2, 3), (6, 3, 4), (6, 4, 5), (6, 5, 2))
)


def k7_torus():
    faces = tuple((i + 1, (i + 1) % 7 + 1, (i + 3) % 7 + 1) for i in range(7)) + tuple(
        (i + 1, (i + 2) % 7 + 1, (i + 3) % 7 + 1) for i in range(7)
    )
    return build_from_faces(FaceListMap(7, faces))


def main(skip_24: bool = False) -> None:
    OUT.mkdir(exist_ok=True)
    singles = {
        "tetrahedron": build_from_faces(TETRAHEDRON),
        "cube": build_from_faces(CUBE),
        "octahedron": build_from_faces(OCTAHEDRON),
        "cuboctahedron": rectify(build_from_faces(CUBE)),
        "torus-hex": dual_map(k7_torus()),
    }
    entries = {}
    for name, m in singles.items():
        entries[name] = m

    census_targets = [
        ("[4^3,5^1]", 20),
        ("[3^5,4^1]", 12),
        ("[3^1,4^1,3^1,4^2]", 12),
    ]
    if not skip_24:
        census_targets += [("[3^1,4^1,8^1,4^1]", 24), ("[6^2,8^1]", 24)]
    for tstr, n in census_targets:
        print(f"enumerating {tstr} n={n} ...", flush=True)
        result = enumerate_maps(tstr, n, -1)
        assert result.complete, (tstr, n)
        slug = tstr.strip("[]").replace("^", "e").replace(",", "-")
        for i, m in enumerate(result.maps, 1):
            entries[f"chi-1-{slug}-{i}"] = m

    manifest = {"fixtures": {}}
    for name, m in sorted(entries.items()):
        t = semi_equivelar_type(m)
        text = dumps(m, comment=f"{name}: type {t} on chi={m.f0 - m.f1 + m.f2}")
        (OUT / f"{name}.map").write_text(text)
        manifest["fixtures"][name] = {
            "type": str(t),
            "vertices": m.f0,
            "euler_characteristic": m.f0 - m.f1 + m.f2,
            "canonical_digest": canonical_code(m).digest(),
        }
        print(f"wrote {name}.map ({m.f0} vertices, type {t})", flush=True)
    (OUT / "MANIFEST.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"manifest with {len(entries)} fixtures")


if __name__ == "__main__":
    main(skip_24="--skip-24" in sys.argv)
