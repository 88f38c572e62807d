"""Tests of the benchmark itself: output checks, span arithmetic, seeding.

    python3 -m pytest bench/tests

The checks are run on real dsyk outputs at small sizes, then on copies
with one value corrupted, which every check must reject.
"""

import itertools
import json
import shutil

import pytest

import checks
import spans
from run import tail
from workloads import WORKLOADS

import dsyk.cli

SMALL = {
    "finite_n": [["finite-n-arnoldi", "--n", "8", "--q", "4", "--mu", "0.02",
                  "--nmax", "4", "--seed", "3"]],
    "large_n_q4": [["large-n", "--q", "4", "--nmax", "6"]],
    "large_q_exact": [["large-n", "--q-inf", "--nmax", "6"],
                      ["moments", "--nmax", "10", "--q", "4", "--mu-tilde", "0.1"]],
    "chain": [["evolve", "--u", "0.1", "--eta", "0.5", "--tmax", "3", "--points", "7"]],
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    dirs = {}
    for name, argvs in SMALL.items():
        d = tmp_path_factory.mktemp(name)
        for argv in argvs:
            assert dsyk.cli.main(["--out", str(d)] + argv) == 0
        dirs[name] = d
    return dirs


def _copy(outputs, name, tmp_path):
    d = tmp_path / name
    shutil.copytree(outputs[name], d)
    return d


def _edit(directory, pattern, edit):
    """Rewrite the one CSV matching pattern after edit(manifest, rows) mutates it."""
    (path,) = directory.glob(pattern)
    manifest, header, rows = checks.read_csv(path)
    edit(manifest, rows)
    lines = ["# " + json.dumps(manifest, sort_keys=True), ",".join(header)]
    lines += [",".join(str(r[h]) for h in header) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def _set(rows, where, field, value):
    hits = [r for r in rows if all(r[k] == v for k, v in where.items())]
    assert hits, where
    for r in hits:
        r[field] = value(r[field])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_check_accepts_real_output(outputs, name):
    assert WORKLOADS[name].check(str(outputs[name]), SMALL[name]) == []


CORRUPTIONS = {
    "finite_n": [
        ("hessenberg_*.csv", lambda m, rows: _set(
            rows, {"m": "1", "n": "1"}, "im", lambda v: repr(float(v) * 1.0001))),
        ("hessenberg_*.csv", lambda m, rows: _set(
            rows, {"m": "0", "n": "0"}, "im", lambda v: repr(float(v) + 1e-10))),
        ("hessenberg_*.csv", lambda m, rows: m.update(basis_dim=4)),
    ],
    "large_n_q4": [
        ("largen_lanczos_q4.csv", lambda m, rows: _set(
            rows, {"n": "2"}, "re_a", lambda v: "1e-9")),
        ("largen_sizes_q4.csv", lambda m, rows: rows.append(
            {"n": "3", "s": "9", "P": "1e-9", "mean": "7.0", "std": "0.0"})),
        ("largen_sizes_q4.csv", lambda m, rows: rows.__setitem__(
            slice(None), [r for r in rows if r["n"] != "5" or r["s"] == "11"])),
        ("largen_lanczos_q4.csv", lambda m, rows: rows.pop()),
    ],
    "large_q_exact": [
        ("largen_lanczos_qinf.csv", lambda m, rows: _set(
            rows, {"n": "4"}, "b_sq", lambda v: repr(float(v) + 1e-9))),
        ("largen_lanczos_qinf.csv", lambda m, rows: _set(
            rows, {"n": "1"}, "b_sq", lambda v: "0.5")),
        ("moment_polynomials.csv", lambda m, rows: _set(
            rows, {"n": "6"}, "coeffs_ascending_u", lambda v: "16;0;23;0;1")),
        ("moment_polynomials.csv", lambda m, rows: _set(
            rows, {"n": "10"}, "coeffs_ascending_u", lambda v: "1" + v)),
    ],
    "chain": [
        ("evolve_snapshot_*.csv", lambda m, rows: _set(
            rows, {"n": "2"}, "re_phi", lambda v: repr(float(v) + 1e-5))),
        ("evolve_u*.csv", lambda m, rows: _set(
            rows, {"t": "2.0"}, "K", lambda v: repr(float(v) * (1 + 1e-5)))),
        ("evolve_u*.csv", lambda m, rows: rows.pop()),
    ],
}


@pytest.mark.parametrize("name,index", [(n, i) for n, cs in sorted(CORRUPTIONS.items())
                                        for i in range(len(cs))])
def test_check_rejects_corrupted_output(outputs, tmp_path, name, index):
    pattern, edit = CORRUPTIONS[name][index]
    d = _copy(outputs, name, tmp_path)
    _edit(d, pattern, edit)
    assert WORKLOADS[name].check(str(d), SMALL[name]) != []


@pytest.mark.parametrize("name", sorted(SMALL))
def test_check_reports_missing_file(outputs, tmp_path, name):
    d = _copy(outputs, name, tmp_path)
    for p in d.glob("*.csv"):
        p.unlink()
        break
    assert WORKLOADS[name].check(str(d), SMALL[name]) != []


def test_chain_moments_match_small_cases():
    # b_k^2 = k(k+1): m_0 = 1, m_2 = b_1^2 = 2, m_4 = b_1^2 (b_1^2 + b_2^2) = 16
    assert checks.chain_moments(lambda k: k * (k + 1), 4) == [1, 0, 2, 0, 16]


# ---------------------------------------------------------------------------


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_times_on_nested_span_tree():
    # root [0,10] { A [1,4] { B [2,3] }  C [5,9] { D [6,7]  D [7.5,8.5] } }
    rec = spans.SpanRecorder(clock=_fake_clock([0, 1, 2, 3, 4, 5, 6, 7, 7.5, 8.5, 9, 10]))
    root = rec.open("root")
    a = rec.open("A")
    rec.close(rec.open("B"))
    rec.close(a)
    c = rec.open("C")
    rec.close(rec.open("D"))
    rec.close(rec.open("D"))
    rec.close(c)
    rec.close(root)
    assert list(rec.parent) == [-1, 0, 1, 0, 3, 3]
    assert spans.self_times(rec.parent, rec.start, rec.end) == [3, 2, 1, 2, 1, 1]
    own = spans.self_by_name(rec)
    assert own == {"root": 3, "A": 2, "B": 1, "C": 2, "D": 2}
    # self times of a properly nested tree add up to the root's duration
    assert sum(own.values()) == rec.end[0] - rec.start[0]


def test_wrapped_calls_nest_and_run_hooks():
    rec = spans.SpanRecorder(clock=_fake_clock([0, 1, 3, 6]))
    seen = []
    inner = rec.wrap(lambda x: x + 1, "inner", lambda r, args, out: seen.append((args, out)))
    outer = rec.wrap(lambda x: inner(x) * 2, "outer")
    assert outer(1) == 4
    assert seen == [((1,), 2)]
    assert spans.self_by_name(rec) == {"outer": 4, "inner": 2}


def test_missing_target_drops_only_its_metrics(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", [("dsyk.cli.no_such_function", "krylov.arnoldi", None)])
    missing = spans.install(spans.SpanRecorder())
    assert missing == {"dsyk.cli.no_such_function"}
    metrics = spans.solve_metrics(spans.SpanRecorder(), missing)
    assert "krylov.arnoldi_self_s" not in metrics
    assert "krylov.steps" not in metrics
    assert "krylov.inner_calls" not in metrics
    assert metrics["krylov.lanczos_self_s"] == 0.0


def test_every_target_resolves_at_this_commit():
    assert all(spans._resolve(path) is not None for path, _, _ in spans.TARGETS)
    assert all(spans._resolve(path) is not None for path in spans.CACHES)


# ---------------------------------------------------------------------------


def test_same_seed_same_finite_n_arguments():
    solves = WORKLOADS["finite_n"].solves
    first = list(itertools.islice(solves(7), 5))
    assert first == list(itertools.islice(solves(7), 5))
    assert first != list(itertools.islice(solves(8), 5))
    assert len({s[0][-1] for s in first}) == 5   # a new disorder seed per solve


def test_deterministic_workloads_ignore_the_seed():
    for name in ("large_n_q4", "large_q_exact", "chain"):
        solves = WORKLOADS[name].solves
        assert next(solves(1)) == next(solves(2))


def test_tail_needs_ten_samples_beyond_it():
    assert tail(list(range(10))) is None
    t = tail([float(x) for x in range(20)])
    assert t == {"value": 9.0, "percentile": 50.0, "samples": 20}


def test_solve_rel_is_the_median_ratio_over_passing_solves():
    from run import summarize

    def rec(solve_s, reference_s, problems=()):
        result = {"solve_s": solve_s, "setup_s": 1.0, "peak_rss_mb": 80.0}
        return {"traced": False, "result": result, "reference_s": reference_s,
                "problems": list(problems)}

    records = [rec(2.0, 0.5), rec(3.0, 0.5), rec(1.5, 0.5), rec(9.0, 0.1, ["bad output"])]
    metrics = summarize(records, trace=0)
    assert metrics["solve_rel"] == {"value": 4.0, "unit": "x"}
    assert summarize([records[-1]], trace=0) is None


def test_benchmark_json_matches_the_code():
    from run import END_TO_END_UNITS, ROOT

    with open(f"{ROOT}/BENCHMARK.json") as f:
        doc = json.load(f)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.per_layer_units()


def test_prepare_records_the_environment(tmp_path):
    from run import has_sources, prepare

    assert has_sources()
    env = prepare(str(tmp_path))
    assert "source" in env
    for key in ("python", "numpy", "scipy", "sympy", "nproc", "policy"):
        assert env[key]
    assert set(env["blas"]) == {"name", "version", "library", "threads"}
