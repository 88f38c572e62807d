"""Golden outputs: CLI runs whose CSVs a change must leave as they are.

``tests/golden/<run>/`` holds the CSVs of each run in RUNS.  The exact runs
(strict large q and the moment series, in rationals) must come back byte
for byte.  A float run
must match its manifest lines, headers, row counts and integer fields
(indices, sizes) exactly, and every other number to the run's relative
tolerance in RUNS, measured against the larger of the two values and the
largest such number in the run's CSVs: another BLAS may sum in another
order, which moves the rounding-level entries of a Hessenberg matrix and
its departure from tridiagonal form (the eps file).

A change that means to alter an output rewrites the goldens of the runs
it alters, and only those, with

    PYTHONPATH=src python tests/test_golden.py <run> [<run> ...]

(run names as in RUNS, e.g. ``evolve_u0.1_tmax4``; with no names every
run is rewritten) and says so in CHANGES.md.  An unknown name exits
non-zero and lists the runs.
"""

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dsyk.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12
# The evolve run integrates the chain ODE to the relative tolerance DT_TOL
# per step.  Another sequence of steps (another stepper, or rounding that
# moves a step-size decision) shifts its output by a global error of a few
# local errors: values interpolated between Radau steps and values stepped
# onto these times differed by 0.3 DT_TOL.
DT_TOL = 1e-9
EVOLVE_RTOL = 10 * DT_TOL

# run name -> (CLI arguments, relative tolerance of its numbers, or None if
# the CSVs must match byte for byte)
RUNS = {
    "large_n_q_inf_nmax12": (["large-n", "--q-inf", "--nmax", "12"], None),
    "large_n_q4_nmax12": (["large-n", "--q", "4", "--nmax", "12"], RTOL),
    "large_n_q4_mu0.02_nmax8": (["large-n", "--q", "4", "--mu", "0.02", "--nmax", "8"],
                                RTOL),
    "moments_q4_mu0.1_nmax12": (["moments", "--nmax", "12", "--q", "4", "--mu-tilde", "0.1"],
                                None),
    "finite_n_arnoldi_n8_mu0.02": (["finite-n-arnoldi", "--n", "8", "--mu", "0.02",
                                    "--nmax", "6", "--seed", "1"], RTOL),
    "meixner_u0.1_u0.01": (["meixner", "--u", "0.1", "--u", "0.01", "--points", "21"],
                           RTOL),
    "evolve_u0.1_tmax4": (["evolve", "--u", "0.1", "--tmax", "4", "--points", "9",
                           "--dt-tol", str(DT_TOL)], EVOLVE_RTOL),
    # the command lines of the benchmark's workloads; the chain workload's
    # is left out, as its snapshot alone is 57 KB and evolve_u0.1_tmax4
    # already covers the stepper
    "moments_q4_mu0.1_nmax28": (["moments", "--nmax", "28", "--q", "4",
                                 "--mu-tilde", "0.1"], None),
    "large_n_q_inf_nmax13": (["large-n", "--q-inf", "--nmax", "13"], None),
    "large_n_q4_nmax15": (["large-n", "--q", "4", "--nmax", "15"], RTOL),
    "finite_n_arnoldi_n14_mu0.02_nmax12": (["finite-n-arnoldi", "--n", "14", "--q", "4",
                                            "--mu", "0.02", "--nmax", "12", "--seed", "1"],
                                           RTOL),
}


def _run(name, out):
    assert main(["--out", str(out)] + RUNS[name][0]) == 0


def _numbers(text):
    return [row.split(",") for row in text.splitlines()[2:]]


def _is_int(field):
    return field.lstrip("-").isdigit()


def _assert_close(got, want, rtol, scale, path):
    lines, golden = got.splitlines(), want.splitlines()
    assert lines[:2] == golden[:2], f"{path}: manifest or header"
    assert len(lines) == len(golden), f"{path}: row count"
    for k, (g, w) in enumerate(zip(_numbers(got), _numbers(want))):
        assert len(g) == len(w), f"{path} row {k}"
        for x, y in zip(g, w):
            if x != y:
                assert not (_is_int(x) or _is_int(y)), f"{path} row {k}: {x} against {y}"
                x, y = float(x), float(y)
                assert math.isclose(x, y, rel_tol=rtol, abs_tol=rtol * scale), \
                    f"{path} row {k}: {x!r} against golden {y!r}"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_goldens(name, tmp_path):
    _run(name, tmp_path)
    files = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    want = {f: (GOLDEN / name / f).read_text() for f in files}
    rtol = RUNS[name][1]
    if rtol is None:
        for f in files:
            assert (tmp_path / f).read_text() == want[f], f"{name}/{f} differs from its golden"
        return
    scale = max(abs(float(x)) for text in want.values() for row in _numbers(text)
                for x in row if not _is_int(x))
    for f in files:
        _assert_close((tmp_path / f).read_text(), want[f], rtol, scale, f"{name}/{f}")


def test_finite_n_golden_on_one_blas_thread(tmp_path):
    # OpenBLAS splits a dot over its threads from 10,000 entries on; the
    # N = 14 run's sector vdots have 8,192, so its CSVs do not depend on the
    # thread count, which is read when numpy loads (hence a fresh interpreter)
    name = "finite_n_arnoldi_n14_mu0.02_nmax12"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from dsyk.cli import main; sys.exit(main(sys.argv[1:]))",
         "--out", str(tmp_path)] + RUNS[name][0],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr[-3000:]
    files = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    for f in files:
        assert (tmp_path / f).read_bytes() == (GOLDEN / name / f).read_bytes(), \
            f"{name}/{f} differs from its golden on one BLAS thread"


if __name__ == "__main__":
    names = sys.argv[1:]
    unknown = [name for name in names if name not in RUNS]
    if unknown:
        sys.exit(f"unknown run(s) {', '.join(unknown)}; runs: {', '.join(RUNS)}")
    for name in names or RUNS:
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        _run(name, GOLDEN / name)
