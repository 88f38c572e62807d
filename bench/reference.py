"""One-off reference run: the ROADMAP baseline re-measured at its sizes.

    python3 bench/reference.py

Not a gating workload.  Each point is one solve in a fresh interpreter,
timed like the benchmark's solves (solve_s = the dsyk.cli.main call), and
printed beside the figure the ROADMAP baseline gives for it.  The last
point runs the q = 4 diagram Lanczos twice in one interpreter to show the
cold-versus-warm gap that makes the benchmark start a fresh interpreter
per solve.  Results go to bench/out/reference.json.

Takes about five minutes and 1.3 GB of memory at its largest point.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from run import OUT, ROOT, has_sources, prepare, run_child

TIMEOUT_S = 900

# (name, CLI argument lists, ROADMAP figure in s, what the figure measured)
POINTS = [
    ("arnoldi_N14", [["finite-n-arnoldi", "--n", "14", "--q", "4", "--mu", "0.02",
                      "--nmax", "10", "--seed", "1"]], 1.3, "ten Arnoldi steps, N=14"),
    ("arnoldi_N16", [["finite-n-arnoldi", "--n", "16", "--q", "4", "--mu", "0.02",
                      "--nmax", "10", "--seed", "1"]], 8.5, "ten Arnoldi steps, N=16"),
    ("arnoldi_N18", [["finite-n-arnoldi", "--n", "18", "--q", "4", "--mu", "0.02",
                      "--nmax", "10", "--seed", "1"]], 59.0, "ten Arnoldi steps, N=18"),
    ("lanczos_q4_n17", [["large-n", "--q", "4", "--nmax", "17"]], 43.0,
     "criterion 10 test: q=4 Lanczos to n=17 plus size distributions"),
    ("lanczos_qinf_n15", [["large-n", "--q-inf", "--nmax", "15"]], 15.0,
     "criterion 3 test: exact large-q Lanczos to n=15"),
    ("chain_u0.001", [["evolve", "--u", "0.001", "--eta", "0.5", "--tmax", "6",
                       "--points", "61", "--dt-tol", "1e-9"]], 131.0,
     "chain ODE at u=0.001 (17,773 sites)"),
    ("cold_warm_q4_n15", [["large-n", "--q", "4", "--nmax", "15"]] * 2, None,
     "q=4 Lanczos to n=15 twice in one interpreter: cold, then warm"),
]


def main():
    if not has_sources():
        return 2
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference_", dir=OUT)
    rows = []
    try:
        env = prepare(work)
        if env is None:
            return 3
        print(f"{'point':18s} {'measured_s':>10s} {'roadmap_s':>9s} {'ratio':>6s} "
              f"{'rss_MB':>7s}  what")
        for name, argvs, roadmap_s, what in POINTS:
            out_dir = tempfile.mkdtemp(dir=work)
            result, err = run_child(argvs, out_dir, work, timeout=TIMEOUT_S)
            shutil.rmtree(out_dir, ignore_errors=True)
            if result is None or any(result["exit_codes"]):
                print(f"{name:18s} failed: {err}")
                rows.append({"point": name, "error": err})
                continue
            times = result["argv_s"]
            if len(times) == 2:
                shown = f"{times[0]:.2f} cold, {times[1]:.2f} warm"
                print(f"{name:18s} {shown:>26s} {result['peak_rss_mb']:7.0f}  {what}")
            else:
                ratio = f"{times[0] / roadmap_s:6.2f}" if roadmap_s else ""
                print(f"{name:18s} {times[0]:10.2f} {roadmap_s or '':>9} {ratio:>6s} "
                      f"{result['peak_rss_mb']:7.0f}  {what}")
            rows.append({"point": name, "argvs": argvs, "solve_s": times,
                         "setup_s": result["setup_s"], "peak_rss_mb": result["peak_rss_mb"],
                         "roadmap_s": roadmap_s, "what": what})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = os.path.join(OUT, "reference.json")
    with open(path, "w") as f:
        json.dump({"environment": env, "points": rows}, f, indent=1)
    print(f"result file {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
