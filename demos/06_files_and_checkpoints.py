"""Map files, canonical serialization, and resumable searches.

Maps serialize to a plain text format (or JSON) whose face order comes from
the canonical flag traversal, so two relabelings of the same map produce
structurally matching files.  Long enumerations write a JSON checkpoint of
the remaining search frontier; an interrupted run resumes from it and ends
with byte-identical results.
"""

import os
import tempfile

from semeq import (
    EnumOptions,
    build_from_faces,
    canonical_code,
    dumps,
    enumerate_maps,
    fixture_map,
    isomorphic,
    loads,
)

print(__doc__)

cube = fixture_map("cube")
text = dumps(cube, comment="a cube, written canonically")
print(text)
again = build_from_faces(loads(text))
print("round trip isomorphic:", isomorphic(cube, again) is not None)
print("round trip same canonical code:", canonical_code(again) == canonical_code(cube))

print()
print("interrupt-and-resume on the [3^5,4^1] census row:")
with tempfile.TemporaryDirectory() as tmp:
    ck = os.path.join(tmp, "frontier.ckpt")
    partial = enumerate_maps(
        "[3^5,4^1]", 12, -1,
        EnumOptions(checkpoint_path=ck, node_budget=2000),
    )
    print(f"  budgeted session: complete={partial.complete}, "
          f"{len(partial.maps)} map(s) so far, checkpoint at {os.path.basename(ck)}")
    resumed = enumerate_maps("[3^5,4^1]", 12, -1, EnumOptions(checkpoint_path=ck))
    reference = enumerate_maps("[3^5,4^1]", 12, -1)
    print(f"  resumed session: complete={resumed.complete}, {len(resumed.maps)} maps")
    print(f"  identical to an uninterrupted run: {resumed.codes == reference.codes}")
    print(f"  search nodes: {resumed.stats.nodes} resumed (the checkpoint counts "
          f"finished subtrees only), {reference.stats.nodes} uninterrupted")
