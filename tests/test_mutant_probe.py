"""``bench/mutant_probe.py`` keeps a table that still matches the source: each old text occurs once."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_probe():
    spec = importlib.util.spec_from_file_location("mutant_probe", ROOT / "bench" / "mutant_probe.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_old_text_occurs_once_in_the_package():
    probe = _load_probe()
    assert probe.check_table() == []
    assert len(probe.MUTANTS) >= 20
    for mutant in probe.MUTANTS:
        assert all((ROOT / "tests" / f"{module}.py").is_file() for module in mutant.tests), mutant.name


def test_a_moved_text_is_reported(tmp_path):
    probe = _load_probe()
    for name in {mutant.file for mutant in probe.MUTANTS}:
        (tmp_path / name).write_text((probe.PACKAGE / name).read_text())
    first = probe.MUTANTS[0]
    (tmp_path / first.file).write_text((tmp_path / first.file).read_text().replace(first.old, first.new))
    assert probe.check_table(tmp_path) == [f"{first.name}: old text occurs 0 times in {first.file}"]
