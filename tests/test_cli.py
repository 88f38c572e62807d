"""CLI subcommands: exit codes, file outputs, manifest reproducibility."""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import sysconf_with_4_gib_available
from dsyk import cli, trees
from dsyk.cli import build_parser, evolve_bytes, finite_n_bytes, main


def read_csv(path):
    lines = path.read_text().splitlines()
    manifest = json.loads(lines[0][2:])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return manifest, header, rows


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def assert_strict_outputs(out_dir):
    """Every CSV's manifest is strict JSON and every float cell is finite."""
    for path in Path(out_dir).glob("*.csv"):
        lines = path.read_text().splitlines()
        json.loads(lines[0][2:], parse_constant=_reject_constant)
        for cell in (c for line in lines[2:] for c in line.split(",")):
            try:
                value = float(cell)
            except ValueError:   # a list of exact coefficients, such as "2;0;1/2"
                continue
            assert math.isfinite(value), (path.name, cell)


def test_moments_outputs_and_reproducibility(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["--out", str(a), "moments", "--nmax", "8"]) == 0
    assert main(["--out", str(b), "moments", "--nmax", "8"]) == 0
    fa = (a / "moment_polynomials.csv").read_bytes()
    fb = (b / "moment_polynomials.csv").read_bytes()
    assert fa == fb
    manifest, header, rows = read_csv(a / "moment_polynomials.csv")
    assert manifest["subcommand"] == "moments"
    assert header == ["n", "degree", "coeffs_ascending_u"]
    # mt_4 = u^2 + 2
    row4 = next(r for r in rows if r[0] == "4")
    assert row4[1:] == ["2", "2;0;1"]


def test_moments_tridiagonal_closed_system(tmp_path):
    assert main(["--out", str(tmp_path), "moments", "--nmax", "9",
                 "--q", "4", "--mu-tilde", "0.0"]) == 0
    _, _, rows = read_csv(tmp_path / "moment_tridiagonal.csv")
    # b_1^2 = 2/q = 0.5 from the physical moments
    assert float(rows[1][3]) == pytest.approx(0.5, rel=1e-12)


def test_finite_n_arnoldi_outputs(tmp_path):
    assert main(["--out", str(tmp_path), "finite-n-arnoldi", "--n", "8",
                 "--q", "4", "--mu", "0.05", "--seed", "3",
                 "--nmax", "6"]) == 0
    tag = "N8_q4_mu0.05_seed3"
    manifest, header, rows = read_csv(tmp_path / f"diagnostics_{tag}.csv")
    assert manifest["rng"] == "numpy PCG64"
    assert manifest["seed"] == 3
    assert header == ["n", "re_hnn", "im_hnn", "subdiag", "eps"]
    # h_00 = i mu s with s = 1, exactly
    assert float(rows[0][1]) == pytest.approx(0.0, abs=1e-12)
    assert float(rows[0][2]) == pytest.approx(0.05, rel=1e-12)
    assert (tmp_path / f"hessenberg_{tag}.csv").exists()


def test_finite_n_fit_window_too_small(tmp_path):
    # one Krylov step leaves a single diagonal entry in the fit window: the
    # run still succeeds and the diagnostics manifest carries the reason
    assert main(["--out", str(tmp_path), "finite-n-arnoldi", "--n", "8",
                 "--mu", "0.02", "--nmax", "1"]) == 0
    manifest, _, _ = read_csv(tmp_path / "diagnostics_N8_q4_mu0.02_seed1.csv")
    assert "diagonal_fit" not in manifest
    assert "fewer than 2 diagonal entries" in manifest["diagonal_fit_error"]


def test_finite_n_multiseed(tmp_path):
    assert main(["--out", str(tmp_path), "finite-n-arnoldi",
                 "--n", "6", "--mu", "0.0", "--seed", "1", "--seed", "2",
                 "--nmax", "4"]) == 0
    assert (tmp_path / "hessenberg_N6_q4_mu0.0_seed1.csv").exists()
    assert (tmp_path / "hessenberg_N6_q4_mu0.0_seed2.csv").exists()


def test_finite_n_cap_exit_code(tmp_path):
    # 47 blocks of 2^30 complex entries: about 0.8 TB, beyond any desk machine
    assert main(["--out", str(tmp_path), "finite-n-arnoldi", "--n", "32"]) == 3
    assert not list(tmp_path.iterdir())


def test_evolve_memory_exit_code(tmp_path):
    # at u = 0 the chain spreads without bound: about 2.7e11 sites by t = 12,
    # refused from its memory estimate before anything is allocated
    start = time.perf_counter()
    assert main(["--out", str(tmp_path), "evolve", "--u", "0", "--eta", "1",
                 "--tmax", "12"]) == 3
    assert time.perf_counter() - start < 1.0
    assert not list(tmp_path.iterdir())


def test_evolve_runs_a_chain_that_peaks_late(tmp_path):
    # phi_n peaks at n = 263 and the chain needs 759 sites
    assert main(["--out", str(tmp_path), "evolve", "--u", "0.1", "--eta", "60",
                 "--tmax", "4", "--points", "5"]) == 0
    manifest, _, rows = read_csv(tmp_path / "evolve_u0.1.csv")
    assert manifest["n_trunc"] == 758
    assert len(rows) == 5


def test_finite_n_memory_estimate():
    # n_max + 1 basis operators, H and the temporaries of one step, in
    # blocks of 2^(N-2) complex entries, plus 1 MiB for what does not grow
    # with them
    assert finite_n_bytes(14, 12) == 19 * 4 * 2 ** 14 + 2 ** 20
    assert finite_n_bytes(24, 40) == 47 * 4 * 2 ** 24 + 2 ** 20   # about 3.2 GB
    assert finite_n_bytes(32, 40) > 2 ** 39


# one run in a fresh interpreter, so that nothing an earlier test
# allocated and kept is left out; prints the tracemalloc peak
PEAK_CHILD = """
import sys, tracemalloc
from dsyk.cli import main
tracemalloc.start()
assert main(sys.argv[1:]) == 0
print(tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.parametrize("n", [12, 14])
def test_finite_n_memory_estimate_covers_a_run(tmp_path, n):
    # at N = 12 building H is most of the peak, which the 1 MiB term covers;
    # at N = 14 the sectors are most of it (2.32 MB measured against 3.15 MB
    # estimated)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_CHILD, "--out", str(tmp_path), "finite-n-arnoldi",
         "--n", str(n), "--mu", "0.02", "--nmax", "10"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert int(proc.stdout.splitlines()[-1]) <= finite_n_bytes(n, 10)


def test_evolve_memory_estimate_covers_a_run(tmp_path):
    # 20,473 sites: the stepper's factorizations peak at 451 bytes a site
    # beyond the amplitudes, against 448 and 1 MiB estimated
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_CHILD, "--out", str(tmp_path), "evolve", "--u", "0.001",
         "--eta", "1", "--tmax", "6", "--points", "8"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr[-3000:]
    manifest, _, _ = read_csv(tmp_path / "evolve_u0.001.csv")
    assert int(proc.stdout.splitlines()[-1]) <= evolve_bytes(manifest["n_trunc"] + 1, 8)


@pytest.mark.parametrize("n", [8, 14])
def test_finite_n_csv_phases_are_exact(tmp_path, n):
    # the Arnoldi vectors are i^k times Hermitian, so h_mn is i^(n+1-m) times
    # a real number: its other part is written as an exact 0.0, never -0.0
    assert main(["--out", str(tmp_path), "finite-n-arnoldi", "--n", str(n),
                 "--mu", "0.02", "--nmax", "12", "--seed", "1"]) == 0
    tag = f"N{n}_q4_mu0.02_seed1"
    text = "".join(p.read_text() for p in tmp_path.glob(f"*_{tag}.csv"))
    assert not re.search(r"(^|,)-0\.0(,|$)", text, re.M)
    _, _, rows = read_csv(tmp_path / f"hessenberg_{tag}.csv")
    for m_, n_, re_, im_ in rows:
        assert (im_ if (int(n_) + 1 - int(m_)) % 2 == 0 else re_) == "0.0", (m_, n_)
    _, _, diag = read_csv(tmp_path / f"diagnostics_{tag}.csv")
    assert [row[1] for row in diag] == ["0.0"] * len(diag)


def test_finite_n_diagonal_fit_window(tmp_path):
    # the manifest's chi comes from [1, 2], where the i mu (2n + 1) law holds at
    # N = 14; the [1, N/q] fit that reaches the saturation bend is kept apart
    assert main(["--out", str(tmp_path), "finite-n-arnoldi", "--n", "14",
                 "--mu", "0.02", "--seed", "1", "--nmax", "4"]) == 0
    manifest, _, _ = read_csv(tmp_path / "diagnostics_N14_q4_mu0.02_seed1.csv")
    fit, wide = manifest["diagonal_fit"], manifest["diagonal_fit_n_over_q"]
    assert fit["window"] == [1, 2] and wide["window"] == [1, 3]
    assert abs(fit["slope"] / (2 * 0.02) - 1.0) < 0.10
    assert wide["slope"] < fit["slope"]


@pytest.mark.parametrize("argv", [
    ["finite-n-arnoldi", "--n", "8", "--nmax", "0"],
    ["large-n", "--q-inf", "--nmax", "0"],
    ["large-n", "--q", "4", "--nmax", "-1"],
])
def test_counts_below_one_exit_code(tmp_path, argv):
    assert main(["--out", str(tmp_path)] + argv) == 2
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["finite-n-arnoldi", "--n", "8", "--mu", "nan", "--nmax", "3"],
    ["finite-n-arnoldi", "--n", "8", "--mu", "inf", "--nmax", "3"],
    ["finite-n-arnoldi", "--n", "8", "--coupling", "nan", "--nmax", "3"],
    ["finite-n-arnoldi", "--n", "8", "--mu", "-0.1", "--nmax", "3"],
    ["large-n", "--q", "4", "--mu", "-0.1"],
    ["large-n", "--q", "4", "--mu", "nan"],
    ["large-n", "--q", "4", "--mu", "inf"],
    ["large-n", "--q-inf", "--mu", "-0.1"],
    ["meixner", "--u", "0.1", "--eta", "nan"],
    ["moments", "--mu-tilde", "nan"],
])
def test_non_finite_or_negative_floats_exit_code(tmp_path, argv):
    # refused before any file is written, not run on nan or as the closed system
    assert main(["--out", str(tmp_path)] + argv) == 2
    assert not list(tmp_path.iterdir())


# small, bad or unparsable values for each subcommand's flags (None: a switch);
# sizes stay small enough that no case builds a big graph, and every float
# flag also draws nan and inf.  The keys are every option each subcommand
# has, as the README documents them
_NON_FINITE = ["nan", "inf"]
_FLAG_VALUES = {
    "finite-n-arnoldi": {"--n": ["-2", "0", "3", "4", "6", "x"],
                         "--q": ["-2", "0", "2", "3", "4", "8"],
                         "--mu": ["-1", "0", "0.05", *_NON_FINITE],
                         "--nmax": ["-1", "0", "1", "3"], "--seed": ["-1", "0", "2"],
                         "--coupling": ["-1", "0", "1", *_NON_FINITE]},
    "large-n": {"--q": ["-2", "0", "2", "3", "4", "6"], "--q-inf": None,
                "--mu": ["-0.1", "0", "0.1", *_NON_FINITE],
                "--nmax": ["-1", "0", "1", "4"]},
    "moments": {"--nmax": ["-1", "0", "1", "2", "6"], "--q": ["-2", "0", "1", "4"],
                "--mu-tilde": ["-0.5", "0", "0.1", "2", *_NON_FINITE]},
    "meixner": {"--u": ["-1", "0", "0.1", "1", "1.5", *_NON_FINITE],
                "--eta": ["-1", "0", "0.5", *_NON_FINITE],
                "--tmax": ["-1", "0", "1", *_NON_FINITE], "--points": ["-1", "0", "1", "3"]},
    "evolve": {"--u": ["-1", "0", "0.1", "1", *_NON_FINITE],
               "--eta": ["-1", "0", "0.5", *_NON_FINITE],
               "--tmax": ["-1", "0", "0.5", *_NON_FINITE], "--points": ["-1", "0", "1", "3"],
               "--dt-tol": ["-1", "0", "1e-6", *_NON_FINITE]},
}


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(sorted(_FLAG_VALUES)))
    argv = [command]
    for flag, values in _FLAG_VALUES[command].items():
        if draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(st.sampled_from(values))]
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        argv.append("--no-such-flag")
    return argv


@given(cli_argvs())
@settings(max_examples=80, deadline=None)
def test_every_command_line_exits_with_a_documented_code(argv):
    # the memory guards read 4 GiB available on every machine, so that a draw
    # such as evolve --u 0 at the default --tmax (70.7 million sites) exits 3
    # whatever the host has free
    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sysconf", sysconf_with_4_gib_available)
        try:
            code = main(["--out", out] + argv)
        except SystemExit as e:   # argparse rejects the command line with code 2
            code = e.code
        if code == 0:
            assert_strict_outputs(out)
    assert code in (0, 2, 3, 4)


def test_meixner_without_dissipation_writes_strict_json(tmp_path):
    # at u = 0 K and the variance grow without bound: the saturation values
    # are null, not the Infinity that strict JSON parsers reject
    assert main(["--out", str(tmp_path), "meixner", "--u", "0", "--tmax", "2",
                 "--points", "3"]) == 0
    assert_strict_outputs(tmp_path)
    manifest, _, _ = read_csv(tmp_path / "meixner_u0.0.csv")
    assert manifest["k_saturation"] is None and manifest["variance_saturation"] is None


@pytest.mark.parametrize("q", ["-6", "0", "2", "5"])
def test_q_inf_holds_q_to_the_diagram_rule(tmp_path, q):
    # --q labels a --q-inf run's sizes (q - 2) n + 1, so it must be a q the
    # finite engine takes: -6 would label them -7, -15, ...
    assert main(["--out", str(tmp_path), "large-n", "--q-inf", "--q", q,
                 "--nmax", "3"]) == 2
    assert not list(tmp_path.iterdir())


def test_validation_exit_code(tmp_path):
    assert main(["--out", str(tmp_path), "evolve", "--u", "1.5"]) == 2


def test_numerical_failure_exit_code(tmp_path, monkeypatch):
    # closed-system growth slams into a deliberately tiny truncation wall
    monkeypatch.setattr(cli, "meixner_n_trunc", lambda p, t_max: 10)
    assert main(["--out", str(tmp_path), "evolve", "--u", "0.0", "--tmax", "5.0"]) == 4


def test_large_n_exact_engine(tmp_path):
    assert main(["--out", str(tmp_path), "large-n", "--q-inf",
                 "--nmax", "6"]) == 0
    _, _, rows = read_csv(tmp_path / "largen_lanczos_qinf.csv")
    b_sq = [float(r[3]) for r in rows]
    assert b_sq[2:] == [float(n * (n - 1)) / 2.0 for n in range(2, 7)]
    _, _, srows = read_csv(tmp_path / "largen_sizes_qinf.csv")
    # every basis element concentrated: one size row per n
    ns = [r[0] for r in srows]
    assert len(ns) == len(set(ns))


def test_large_n_finite_q_sizes(tmp_path):
    assert main(["--out", str(tmp_path), "large-n", "--q", "4",
                 "--nmax", "6"]) == 0
    _, _, srows = read_csv(tmp_path / "largen_sizes_q4.csv")
    by_n = {}
    for r in srows:
        by_n.setdefault(int(r[0]), []).append((int(r[1]), float(r[2])))
    for n in range(5):
        assert len(by_n[n]) == 1 and by_n[n][0][0] == 2 * n + 1
    assert len(by_n[5]) == 2  # concentration breakdown


def test_large_n_dissipative_arnoldi(tmp_path):
    assert main(["--out", str(tmp_path), "large-n", "--q", "4",
                 "--mu", "0.25", "--nmax", "5"]) == 0
    manifest, _, rows = read_csv(tmp_path / "largen_hessenberg_q4_mu0.25.csv")
    assert manifest["mu"] == 0.25
    h00 = next(r for r in rows if r[0] == "0" and r[1] == "0")
    assert float(h00[3]) == pytest.approx(0.25, rel=1e-12)  # i mu s, s = 1


def test_large_n_tree_memory_estimate_exit_code(tmp_path, monkeypatch):
    # a next generation projected past the available memory is never built
    monkeypatch.setattr(trees, "TREE_BYTES", 2 ** 60)
    assert main(["--out", str(tmp_path), "large-n", "--q", "4", "--nmax", "6"]) == 3
    assert not list(tmp_path.iterdir())


def test_meixner_curves(tmp_path):
    assert main(["--out", str(tmp_path), "meixner", "--u", "0.1",
                 "--eta", "0.5", "--tmax", "40.0"]) == 0
    manifest, _, rows = read_csv(tmp_path / "meixner_u0.1.csv")
    k_final, var_final = float(rows[-1][1]), float(rows[-1][2])
    assert k_final == pytest.approx(manifest["k_saturation"], rel=1e-6)
    assert manifest["k_saturation"] == pytest.approx(0.5 / 0.2 - 0.25)
    assert var_final == pytest.approx(manifest["variance_saturation"], rel=1e-6)
    assert manifest["variance_saturation"] == pytest.approx(0.5 * 0.99 / 0.04)


def test_evolve_matches_closed_form(tmp_path):
    assert main(["--out", str(tmp_path), "evolve", "--u", "0.1",
                 "--eta", "0.5", "--tmax", "4.0", "--points", "9"]) == 0
    from dsyk.analytic import MeixnerParams, k_complexity_exact
    _, _, rows = read_csv(tmp_path / "evolve_u0.1.csv")
    p = MeixnerParams(u=0.1, eta=0.5)
    for r in rows:
        t, k = float(r[0]), float(r[1])
        assert k == pytest.approx(float(k_complexity_exact(t, p)), abs=1e-6)
    _, header, snap = read_csv(tmp_path / "evolve_snapshot_u0.1.csv")
    assert header == ["n", "re_phi", "im_phi"]
    # Meixner amplitudes are real: the im_phi column stays, all exact zeros
    assert snap and all(r[2] == "0.0" for r in snap)


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("DSYK_OUT_DIR", str(tmp_path / "envout"))
    assert main(["moments", "--nmax", "4"]) == 0
    assert (tmp_path / "envout" / "moment_polynomials.csv").exists()


def test_help_mentions_documented_flags(capsys):
    with pytest.raises(SystemExit):
        main(["finite-n-arnoldi", "--help"])
    text = capsys.readouterr().out
    for flag in ["--n", "--q", "--coupling", "--mu", "--seed", "--nmax"]:
        assert flag in text


def test_options_are_the_documented_set():
    # every option is one the README names and the fuzz table above draws
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    ap = build_parser()
    (sub,) = [a for a in ap._actions if isinstance(a.choices, dict)]
    registered = {None: ap, **sub.choices}
    expected = {None: {"--out"}, **{cmd: set(flags) for cmd, flags in _FLAG_VALUES.items()}}
    for command, parser in registered.items():
        options = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        assert options == expected[command], command
        for option in options:
            assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", readme), option
