"""The benchmark's trace contract: every function bench/spans.py wraps is still there.

``bench/spans.py`` replaces each traced function under the name its caller
looks it up by, and leaves out every per-layer metric whose target no
longer resolves.  A renamed or removed function therefore does not fail a
traced benchmark run; it shortens its result.  This test installs the
wrappers in a fresh interpreter, runs a tiny version of each benchmark
workload through ``dsyk.cli.main`` and checks that no target is missing,
that every hook accepted what it was given, that every wrapped function is
still called, and that the metrics cover the per-layer list of
``BENCHMARK.json``.  It reads ``bench/`` and changes nothing there.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# one tiny solve per benchmark workload, in its subcommands' order, plus the
# complex dissipative Arnoldi on diagram states
ARGVS = [
    ["finite-n-arnoldi", "--n", "8", "--mu", "0.02", "--nmax", "4"],
    ["large-n", "--q", "4", "--nmax", "6"],
    ["large-n", "--q", "4", "--mu", "0.02", "--nmax", "4"],
    ["large-n", "--q-inf", "--nmax", "5"],
    ["moments", "--nmax", "8"],
    ["evolve", "--u", "0.1", "--tmax", "1", "--points", "5"],
]

CHILD = """
import json, sys
root, out, argvs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path[:0] = [root + "/src", root + "/bench"]
import dsyk.cli
import spans
rec = spans.SpanRecorder()
missing = spans.install(rec)
runs = []
for argv in argvs:
    first = len(rec.start)
    i = rec.open(spans.ROOT_SPAN)
    code = dsyk.cli.main(["--out", out] + argv)
    rec.close(i)
    names = sorted({rec.names[rec.name_id[k]] for k in range(first, len(rec.start))})
    runs.append({"code": code, "spans": names})
print(json.dumps({
    "missing": sorted(missing),
    "runs": runs,
    "metrics": spans.solve_metrics(rec, missing),
    "units": spans.per_layer_units(),
    "proc": sorted(spans.PROC_METRICS),
    "targets": sorted({name for _, name, _ in spans.TARGETS}),
}))
"""

FINITE_N_SPANS = {"cli.write_csv", "majorana.sample_syk", "lindblad.lindbladian_apply",
                  "majorana.liouvillian_apply", "lindblad.dissipator_apply",
                  "majorana.inner", "majorana.vector_ops", "krylov.arnoldi"}


def test_benchmark_trace_targets_resolve_and_are_called(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT), str(tmp_path), json.dumps(ARGVS)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.splitlines()[-1])

    assert out["missing"] == []
    assert [r["code"] for r in out["runs"]] == [0] * len(ARGVS)
    assert FINITE_N_SPANS <= set(out["runs"][0]["spans"])
    called = set().union(*(r["spans"] for r in out["runs"]))
    assert set(out["targets"]) - called == set()

    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())
                ["per_layer"]}
    assert declared - (set(out["metrics"]) | set(out["proc"])) == set()

    # every count and ratio is fed by a hook; a hook that got the wrong
    # object would have raised or left its counter at zero
    metrics, units = out["metrics"], out["units"]
    for name, value in metrics.items():
        if units[name] != "s":
            assert value > 0, name
    assert metrics["majorana.support_fill"] <= 1.0
    assert metrics["trees.cache_hit_ratio"] <= 1.0
