"""Spans around calls into semeq's public functions, recorded from outside.

``Tracer.install`` replaces each function named in ``TRACED`` wherever a
semeq module holds it (the defining module, every module that imported the
name, the package namespace) by a wrapper that records a span: name, start,
end and the span that was open when it was called.  The search reaches its
completion checks and dedup through such imported names, so their time
separates from the search's own.  Spans stay in memory until the run ends.
Calls made inside forked pool workers are not seen.
"""

from __future__ import annotations

import functools
import sys

# host-speed samples taken inside a span are not part of its time
from workloads import net_clock as clock


def _flags(m) -> int:
    return getattr(m, "flag_count", 0)


# span name -> flags a call scans (one canonical scan visits flag_count
# start flags x flag_count flags), or None when the call does no such scan
TRACED = {
    "typecalc.admissible_types": None,
    "enumerator.enumerate_maps": None,
    "enumerator.exists_any": None,
    "mapcore.build_from_faces": None,
    "mapcore.validate_polyhedral": None,
    "mapcore.semi_equivelar_type": None,
    "symmetry.canonical_code": lambda m: _flags(m) ** 2,
    "symmetry.automorphism_group": lambda m: _flags(m) ** 2,
    "symmetry.isomorphic": lambda a, b: 2 * _flags(a) ** 2 if _flags(a) == _flags(b) else 0,
    "symmetry.gi_graph": None,
    "census.analyze_map": None,
    "transforms.truncate": None,
    "transforms.rectify": None,
    "mapfile.dumps": lambda m, comment="": _flags(m) ** 2,
    "mapfile.loads": None,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.flags_scanned = 0
        self._open: list[int] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "semeq" or name.startswith("semeq.")]
        for span, flags in TRACED.items():
            module, func = span.split(".")
            original = getattr(sys.modules[f"semeq.{module}"], func)
            wrapper = self._wrap(span, original, flags)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name: str, fn, flags):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if flags is not None:
                self.flags_scanned += flags(*args, **kwargs)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()

        return traced

    def summary(self) -> tuple[dict, dict, float]:
        """(self seconds by name, calls by name, seconds covered by root spans).

        A span's self time is its duration minus its direct children's.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
            calls[name] = calls.get(name, 0) + 1
            if parent < 0:
                covered += end - start
        return self_s, calls, covered
