"""The answers of ``bench/identity_probe.py`` match their recorded digests.

The probe digests the construction, verification, predicate, size-2,
search, enumeration and decomposition answers of the public API on
seeded inputs, and the exit code, stdout and stderr of a fixed list of
command lines, in seven families.  A change that alters any of those
answers, an error text or a printed Bell float included, changes a
digest here.  The Bell floats are pinned because they come from the
pure-Python kernel in ``rccs.bell``, which rounds the same way on every
platform.
"""

import importlib.util
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_probe():
    spec = importlib.util.spec_from_file_location("identity_probe", ROOT / "bench" / "identity_probe.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_families_match_recorded_digests():
    expected = json.loads((ROOT / "tests" / "data" / "identity_digests.json").read_text())
    probe = _load_probe()
    assert {name: probe.digest(records) for name, records in probe.family_records().items()} == expected


def test_size2_records_are_answers_of_verify_common_cause():
    # each pair gives five records: the pair, correlation, logical independence, the size-2 check, the construction
    size2 = _load_probe().interval_outcomes(random.Random(0))[3::5]
    assert len(size2) == 400
    assert all(r.startswith(("VerificationReport(", "PreconditionError: ")) for r in size2)
    assert any(r.startswith("VerificationReport(") for r in size2)
