"""The full chi = -1 census in one machine-readable report.

classify -> enumerate -> analyze, assembled into the versioned JSON schema
the command line also emits.  Long rows (n >= 40) are marked not-run here;
enable them with include_long=True (hours).  The short rows already settle
every existence question for n < 40: exactly five short types carry maps
(with 3 + 1 + 2 + 2 + 3 = 11 maps between them), and the two candidate
pairs the hand analysis overlooked are certified empty by the same
exhaustive search.

Expect a few minutes of compute; the n = 24 rows dominate.
"""

import json
import os
import tempfile

from semeq import EnumOptions, census, census_report_json

print(__doc__)

rows = census(-1, enum_opts=EnumOptions(threads=2))
report = census_report_json(-1, rows)
doc = json.loads(report)
print(f"schema v{doc['schema_version']}, {len(doc['rows'])} rows")
for row in doc["rows"]:
    marker = {"empty": "-", "not-run(long)": "?"}.get(row["status"], "+")
    print(f" {marker} n={row['n']:>3} {row['type']:<22} {row['status']}")
    for m in row["maps"]:
        print(f"      |Aut|={m['aut_order']:>2} ({m['aut_structure']}), "
              f"orbits={m['orbit_count']}, vt={m['vertex_transitive']}")

exists = sorted(r["type"] for r in doc["rows"] if r["status"].startswith("exists"))
print("\ntypes with maps among short rows:", exists)
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "census-chi-minus-1.json")
    with open(out, "w") as fh:
        fh.write(report)
    print(f"full report written to {os.path.basename(out)} "
          f"({os.path.getsize(out)} bytes, in a temporary directory)")
