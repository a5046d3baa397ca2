"""The answers of ``bench/identity_probe.py`` match their recorded digests.

The probe digests the construction, verification, predicate, size-2,
search, enumeration and decomposition answers of the public API on
seeded inputs, and the exit code, stdout and stderr of a fixed list of
command lines, in seven families.  A change that alters any of those
answers, an error text or a printed Bell float included, changes a
digest here.  The Bell floats are pinned because they come from the
pure-Python kernel in ``rccs.bell``, which rounds the same way on every
platform.  The command-line family is also run where numpy cannot be
imported, since numpy is an optional extra, and must keep its digest.
"""

import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from .test_cli import DATA, WORKED_INPUT, run_cli

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


def test_every_subcommand_runs_without_numpy():
    # numpy is the optional 'array' extra: with it uninstallable, every subcommand still writes its golden output,
    # and the probe's command-line family (every subcommand, errors included) keeps its recorded digest
    worked = json.loads(WORKED_INPUT)
    cells = json.loads(run_cli(["construct", WORKED_INPUT, "--json"])[1])["cells"]
    goldens = {
        "construct_worked.golden.json": ["construct", WORKED_INPUT, "--json"],
        "verify_worked.golden.json": ["verify", json.dumps({**worked, "partition": cells}), "--json"],
        "construct_worked_explain.golden.txt": ["construct", WORKED_INPUT, "--explain"],
    }
    code = """
import contextlib, importlib.util, io, json, sys
sys.modules["numpy"] = None
spec = importlib.util.spec_from_file_location("identity_probe", sys.argv[2])
probe = importlib.util.module_from_spec(spec)
spec.loader.exec_module(probe)
from rccs.cli import main
outputs = {}
for name, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        outputs[name] = [main(argv), out.getvalue()]
print(json.dumps([outputs, probe.digest(probe.cli_outcomes()), sys.modules["numpy"] is None]))
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", code, json.dumps(goldens), str(ROOT / "bench" / "identity_probe.py")]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    outputs, cli_digest, blocked = json.loads(done.stdout)
    assert outputs == {name: [0, (DATA / name).read_text()] for name in goldens}
    assert cli_digest == json.loads((DATA / "identity_digests.json").read_text())["cli"]
    assert blocked
