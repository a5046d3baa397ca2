"""Re-measure the ROADMAP baseline probe rows that the benchmark covers.

Usage, from the repository root: ``python3 perfbench/crosscheck.py``.
Prints one JSON object: medians, in ms, of ``python -c pass``, the
in-child time of ``import rccs``, ``construction_steps`` at 10 and 100
intervals per event (on the benchmark's generator), and one
``search_rccs`` per pair at m=10, n=3 with uniform weights, since search
time depends on the pair and not only on (m, n).
"""

import json
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SRC, FiniteSearch, child_env, finite_case, interval_pair, run_child  # noqa: E402

REPEATS = 5


def _ms(fn) -> float:
    t = time.perf_counter()
    fn()
    return (time.perf_counter() - t) * 1e3


def main() -> dict:
    sys.path.insert(0, str(SRC))
    from rccs.engine import construction_steps
    from rccs.finite import search_rccs

    out = {}
    out["python_c_pass_ms"] = statistics.median(
        _ms(lambda: run_child([sys.executable, "-c", "pass"])) for _ in range(REPEATS)
    )
    code = "import time; t = time.perf_counter(); import rccs; print(time.perf_counter() - t)"
    out["import_rccs_ms"] = statistics.median(
        1e3 * float(run_child([sys.executable, "-c", code], child_env())[1])
        for _ in range(REPEATS)
    )
    rng = random.Random("crosscheck")
    for count in (10, 100):
        pairs = [interval_pair(rng, count, count) for _ in range(REPEATS)]
        out[f"construct_{count}_intervals_ms"] = statistics.median(_ms(lambda: construction_steps(a, b)) for a, b in pairs)
    per_pair = []
    for sizes in FiniteSearch.INDEPENDENT + FiniteSearch.DEPENDENT:
        space, a, b = finite_case(rng, 10, True, sizes)
        per_pair.append(_ms(lambda: search_rccs(space, a, b, 3)))
    out["search_m10_n3_uniform_ms_per_pair"] = per_pair
    return out


if __name__ == "__main__":
    print(json.dumps(main(), indent=1))
