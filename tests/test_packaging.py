"""Packaging: the installed program needs numpy and scipy, and nothing else.

sympy is the tests' exact-arithmetic reference and lives in the ``test``
extra; no subcommand may import it, and no source file of the package
names it.  Of scipy the program uses four tridiagonal LAPACK routines,
which ``dsyk.dynamics`` loads from scipy's compiled LAPACK extension
without importing any ``scipy`` module: neither ``import dsyk.cli`` nor
any subcommand may load one, since ``scipy.linalg`` alone costs about a
quarter of a second of start-up.  The routines it loads must give bit for
bit what ``scipy.linalg.lapack`` gives, so that a scipy that moves the
extension fails here.  The package catches only the errors it expects:
no bare ``except:`` and no catch-all base class.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys
out, argvs = sys.argv[1], json.loads(sys.argv[2])

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import dsyk.cli
at_import = scipy_modules()
codes = [dsyk.cli.main(["--out", out] + argv) for argv in argvs]
unused = ["scipy.integrate", "scipy.sparse", "scipy.special"]
print(json.dumps({"codes": codes, "sympy": "sympy" in sys.modules,
                  "unused": [m for m in unused if m in sys.modules],
                  "at_import": at_import, "after_runs": scipy_modules()}))
"""

ARGVS = [
    ["meixner", "--u", "0.1", "--tmax", "1", "--points", "5"],
    ["evolve", "--u", "0.1", "--tmax", "1", "--points", "5"],
    ["moments", "--nmax", "6"],
    ["large-n", "--q-inf", "--nmax", "4"],
    ["finite-n-arnoldi", "--n", "8", "--mu", "0.02", "--nmax", "4"],
    ["large-n", "--q", "4", "--nmax", "4"],
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
    assert out["unused"] == []
    assert out["at_import"] == []
    assert out["after_runs"] == []


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_loaded_lapack_routines_match_scipy_linalg(dtype):
    from scipy.linalg import lapack
    from dsyk import dynamics

    prefix = "z" if dtype == np.complex128 else "d"
    rng = np.random.default_rng(7)

    def draw(size):
        x = rng.standard_normal(size)
        return x + 1j * rng.standard_normal(size) if prefix == "z" else x

    dl, d, du, rhs = draw(49), draw(50), draw(49), draw(50)
    got_lu = getattr(dynamics, prefix + "gttrf")(dl, d, du)
    want_lu = getattr(lapack, prefix + "gttrf")(dl, d, du)
    assert got_lu[-1] == want_lu[-1] == 0
    for got, want in zip(got_lu, want_lu):
        np.testing.assert_array_equal(got, want, strict=True)
    got = getattr(dynamics, prefix + "gttrs")(*got_lu[:-1], rhs)
    want = getattr(lapack, prefix + "gttrs")(*want_lu[:-1], rhs)
    assert got[-1] == want[-1] == 0
    np.testing.assert_array_equal(got[0], want[0], strict=True)


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
