"""Record the output digests that the default seed is checked against.

Usage, from the repository root: ``python3 perfbench/record_reference.py``.
Runs every pooled input of the default seed once, plus every CLI case,
and writes ``perfbench/reference.json``.  Record only from a commit whose
outputs are known to be right: later runs fail on any difference.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, SRC, WORKLOADS  # noqa: E402


def record() -> dict:
    sys.path.insert(0, str(SRC))
    reference = {}
    for name, cls in WORKLOADS.items():
        wl = cls(DEFAULT_SEED)
        digests = [wl.check(k, wl.execute(k))[0] for k in range(len(wl.pool))]
        if name == "cli-cold":
            reference[name] = {wl.kind(k): d for k, d in enumerate(digests)}
        else:
            reference[name] = digests
        print(f"{name}: {len(digests)} digests", file=sys.stderr)
    return reference


if __name__ == "__main__":
    (HERE / "reference.json").write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
