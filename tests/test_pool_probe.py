"""``bench/pool_probe.py --compiled`` measures a byte-compiled copy and never writes into the tree it copies."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_probe():
    spec = importlib.util.spec_from_file_location("pool_probe", ROOT / "bench" / "pool_probe.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compiled_copy_leaves_the_tree_without_bytecode(tmp_path):
    tree = tmp_path / "src"
    (tree / "pkg").mkdir(parents=True)
    (tree / "pkg" / "__init__.py").write_text("VALUE = 1\n")
    (tree / "pkg" / "__pycache__").mkdir()
    (tree / "pkg" / "__pycache__" / "stale.pyc").write_bytes(b"stale")

    copy = Path(_load_probe().compiled_copy(str(tree), tmp_path / "copy"))

    assert sorted(p.name for p in (tree / "pkg" / "__pycache__").iterdir()) == ["stale.pyc"]
    assert sorted(p.relative_to(tree).as_posix() for p in tree.rglob("*")) == [
        "pkg", "pkg/__init__.py", "pkg/__pycache__", "pkg/__pycache__/stale.pyc",
    ]
    compiled = [p.name for p in (copy / "pkg" / "__pycache__").iterdir()]
    assert compiled == [f"__init__.{sys.implementation.cache_tag}.pyc"]
    # an interpreter that writes no bytecode (-B) still reads the copy's
    done = subprocess.run(
        [sys.executable, "-B", "-v", "-c", "import pkg"], cwd=copy, capture_output=True, text=True, check=True, timeout=60
    )
    assert f"code object from '{copy / 'pkg' / '__pycache__' / compiled[0]}'" in done.stderr
