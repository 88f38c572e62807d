"""Packaging: the installed program needs numpy and scipy, and nothing else.

sympy is the tests' exact-arithmetic reference and lives in the ``test``
extra; no subcommand may import it, and no source file of the package
names it.  Of scipy the program uses LAPACK's
tridiagonal LU alone, and no subcommand may load its integrators, sparse
matrices or special functions, which cost start-up time.  The package
catches only the errors it expects: no bare ``except:`` and no catch-all
base class.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys
out, argvs = sys.argv[1], json.loads(sys.argv[2])
import dsyk.cli
codes = [dsyk.cli.main(["--out", out] + argv) for argv in argvs]
unused = ["scipy.integrate", "scipy.sparse", "scipy.special"]
print(json.dumps({"codes": codes, "sympy": "sympy" in sys.modules,
                  "scipy": [m for m in unused if m in sys.modules]}))
"""

ARGVS = [
    ["meixner", "--u", "0.1", "--tmax", "1", "--points", "5"],
    ["evolve", "--u", "0.1", "--tmax", "1", "--points", "5"],
    ["moments", "--nmax", "6"],
    ["large-n", "--q-inf", "--nmax", "4"],
]


def test_subcommands_do_not_import_sympy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path), json.dumps(ARGVS)],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0] * len(ARGVS)
    assert out["sympy"] is False
    assert out["scipy"] == []


def test_package_source_does_not_name_sympy():
    named = [path.name for path in sorted((ROOT / "src" / "dsyk").glob("*.py"))
             if "sympy" in path.read_text().lower()]
    assert named == []


def test_runtime_dependencies_are_numpy_and_scipy():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower()
             for d in project["dependencies"]}
    assert names == {"numpy", "scipy"}
    assert any(d.startswith("sympy") for d in project["optional-dependencies"]["test"])


def test_no_catch_all_handlers():
    broad = {"Exception", "BaseException"}
    found = []
    for path in sorted((ROOT / "src" / "dsyk").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or any(isinstance(c, ast.Name) and c.id in broad
                                        for c in caught):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
