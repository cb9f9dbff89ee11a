"""Time one budget-cut witness search under 0 to 239 extra Python frames.

Under CPython 3.11 a call that crosses a frame-chunk boundary allocates and
frees a 16 KB chunk, so the cost of the search kernel can depend on the
stack depth its caller runs it at.  This script runs [4^1,6^1,14^1]/84
(fresh_first, node_budget=3000) under each number of extra nested frames,
keeps the best of --repeat runs per depth, and prints the median time and
every depth slower than 1.5 times the median.  It only measures.

Usage: python tools/depth_sweep.py [CHECKOUT] [--repeat N] [--depths N]

CHECKOUT is the repository whose src/ is timed (default: the one this
script sits in), so two checkouts can be swept with one copy of the
script.  Takes about 90 s with the defaults.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

ROW = ("[4^1,6^1,14^1]", 84, -1)
BUDGET = 3000
SLOW = 1.5


def nested(extra: int, fn):
    """fn() called under extra more Python frames."""
    return fn() if extra == 0 else nested(extra - 1, fn)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", default=str(Path(__file__).resolve().parents[1]))
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--depths", type=int, default=240)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.checkout).resolve() / "src"))
    from semeq.enumerator import EnumOptions, exists_any

    opts = EnumOptions(fresh_first=True, node_budget=BUDGET)

    def once() -> float:
        t = time.perf_counter()
        exists_any(*ROW, opts)
        return time.perf_counter() - t

    once()  # warm up imports and caches
    times = [min(nested(extra, once) for _ in range(args.repeat))
             for extra in range(args.depths)]
    median = statistics.median(times)
    print(f"median {median:.4f} s over {args.depths} depths, best of {args.repeat}")
    for extra, t in enumerate(times):
        if t > SLOW * median:
            print(f"  {extra:3d} extra frames: {t:.4f} s ({t / median:.2f}x)")


if __name__ == "__main__":
    main()
