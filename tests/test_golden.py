"""Golden outputs: CLI runs whose CSVs a change must leave as they are.

``tests/golden/<run>/`` holds the CSVs of each run in RUNS.  The exact run
(strict large q, in rationals) must come back byte for byte.  A float run
must match its manifest lines, headers and row counts exactly, and every
number to a relative 1e-12, measured against the larger of the two values
and the largest magnitude in the run's CSVs: another BLAS may sum in
another order, which moves the rounding-level entries of a Hessenberg
matrix and its departure from tridiagonal form (the eps file).

A change that means to alter an output rewrites the goldens with

    PYTHONPATH=src python tests/test_golden.py

and says so in CHANGES.md.
"""

import math
import shutil
from pathlib import Path

import pytest

from dsyk.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12

# run name -> (CLI arguments, whether the CSVs must match byte for byte)
RUNS = {
    "large_n_q_inf_nmax12": (["large-n", "--q-inf", "--nmax", "12"], True),
    "large_n_q4_nmax12": (["large-n", "--q", "4", "--nmax", "12"], False),
    "large_n_q4_mu0.02_nmax8": (["large-n", "--q", "4", "--mu", "0.02", "--nmax", "8"],
                                False),
}


def _run(name, out):
    assert main(["--out", str(out)] + RUNS[name][0]) == 0


def _numbers(text):
    return [row.split(",") for row in text.splitlines()[2:]]


def _assert_close(got, want, scale, path):
    lines, golden = got.splitlines(), want.splitlines()
    assert lines[:2] == golden[:2], f"{path}: manifest or header"
    assert len(lines) == len(golden), f"{path}: row count"
    for k, (g, w) in enumerate(zip(_numbers(got), _numbers(want))):
        assert len(g) == len(w), f"{path} row {k}"
        for x, y in zip(g, w):
            if x != y:
                x, y = float(x), float(y)
                assert math.isclose(x, y, rel_tol=RTOL, abs_tol=RTOL * scale), \
                    f"{path} row {k}: {x!r} against golden {y!r}"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_goldens(name, tmp_path):
    _run(name, tmp_path)
    files = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    want = {f: (GOLDEN / name / f).read_text() for f in files}
    scale = max(abs(float(x)) for text in want.values() for row in _numbers(text)
                for x in row)
    for f in files:
        got = (tmp_path / f).read_text()
        if RUNS[name][1]:
            assert got == want[f], f"{name}/{f} differs from its golden"
        else:
            _assert_close(got, want[f], scale, f"{name}/{f}")


if __name__ == "__main__":
    for name in RUNS:
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        _run(name, GOLDEN / name)
