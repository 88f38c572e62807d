"""Command-line front end.

Each subcommand writes CSV files whose first line is a commented JSON
manifest carrying every parameter (including seeds and the RNG algorithm),
so any output can be regenerated bit-identically.  Default output
directory comes from --out or the DSYK_OUT_DIR environment variable.

Exit codes: 0 success, 2 validation, 3 resource limits, 4 numerical
contract violations.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    FitError, NumericalContractError, ResourceLimitError, ValidationError,
    require_memory)
from .majorana import OperatorVector, sample_syk
from .lindblad import lindbladian_apply
from .krylov import diagonal_slope_fit, hessenberg_error, lanczos
from .largen import (
    DiagramSpace,
    check_q,
    lanczos_large_n,
    make_dissipative_apply,
    size_distribution,
)
from .moments import large_q_moment_sequence, moments_from_g, moments_to_tridiagonal
from .analytic import (
    MeixnerParams,
    k_complexity_exact,
    k_saturation,
    meixner_tridiagonal,
    variance_exact,
    variance_saturation,
)
from .dynamics import evolve_chain, k_complexity_numeric, meixner_n_trunc

# the Hessenberg (Arnoldi) mode of the one Krylov driver; bench/spans.py
# traces the finite-N and dissipative large-N runs under this name
arnoldi = functools.partial(lanczos, hermitian=False)


def _out_dir(args):
    d = Path(args.out or os.environ.get("DSYK_OUT_DIR", "."))
    d.mkdir(parents=True, exist_ok=True)
    return d


def write_csv(path, manifest, header, rows):
    with open(path, "w") as f:
        f.write("# " + json.dumps(manifest, sort_keys=True, allow_nan=False) + "\n")
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                             else str(v) for v in row) + "\n")


def _write_hessenberg_csv(path, manifest, hm):
    """Nonzero band of the Hessenberg matrix as (m, n, re, im) rows."""
    rows = [(m_, n_, hm.h[m_, n_].real, hm.h[m_, n_].imag)
            for n_ in range(hm.basis_dim) for m_ in range(min(n_ + 2, hm.basis_dim))]
    write_csv(path, manifest, ["m", "n", "re", "im"], rows)


def _manifest(args, **extra):
    m = {"tool": "dsyk", "version": __version__, "subcommand": args.command}
    m.update(extra)
    return m


# ---------------------------------------------------------------------------
# finite-n-arnoldi


def _run_finite_n(args, seed, out_dir):
    n, q, mu = args.n, args.q, args.mu
    h = sample_syk(n, q, args.coupling, seed)
    o0 = OperatorVector.basis_string(n, 1 << 0)
    hm, _ = arnoldi(lambda v: lindbladian_apply(h, mu, v), o0, args.nmax)
    eps = hessenberg_error(hm)
    manifest = _manifest(args, n=n, q=q, coupling=args.coupling, mu=mu, seed=seed,
                         n_max=args.nmax, reorth=True, rng="numpy PCG64",
                         basis_dim=hm.basis_dim)
    tag = f"N{n}_q{q}_mu{mu}_seed{seed}"
    _write_hessenberg_csv(out_dir / f"hessenberg_{tag}.csv", manifest, hm)
    diag_rows = []
    for k in range(hm.basis_dim):
        e = eps[k - 1] if 1 <= k <= eps.size else 0.0
        diag_rows.append((k, hm.h[k, k].real, hm.h[k, k].imag,
                          hm.h[k + 1, k].real if k + 1 < hm.basis_dim else 0.0, e))
    manifest2 = dict(manifest)
    if mu > 0:
        # [1, 2] is where the law holds at desk sizes; [1, N/q] shows the size
        # saturation bend (decisions ledger, criterion 9)
        try:
            manifest2["diagonal_fit"] = _diagonal_fit(hm, mu, 2)
            manifest2["diagonal_fit_n_over_q"] = _diagonal_fit(hm, mu, max(2, n // q))
        except FitError as e:
            manifest2["diagonal_fit_error"] = str(e)
    write_csv(out_dir / f"diagnostics_{tag}.csv", manifest2,
              ["n", "re_hnn", "im_hnn", "subdiag", "eps"], diag_rows)
    return tag


def _diagonal_fit(hm, mu, window_hi):
    slope, r2 = diagonal_slope_fit(hm, window_hi)
    return {"slope": slope, "r2": r2, "chi": slope / mu, "window": [1, window_hi]}


def finite_n_bytes(n, n_max):
    """Estimated peak memory of one finite-N Arnoldi run.

    The n_max + 1 basis operators, H's two blocks and the temporaries of
    one step (the commutator, the dissipator with a^dag and their sum, or
    the Arnoldi update) are each a block of 2^(N-2) complex entries.  Whole
    runs peaked (tracemalloc, --mu 0.02, n_max 10 and 20) at n_max + 6.6,
    + 7.3 and + 8.7 blocks at N = 20, 18 and 16: the 1 MiB covers what does
    not grow with the blocks (the couplings, numpy's ufunc buffers,
    argparse, the CSVs), most of the peak at N = 12.  Building H peaks
    lower: its transform holds at most (D/2) x D entries, two blocks.
    """
    return (n_max + 7) * 4 * 2 ** n + 2 ** 20


def evolve_bytes(n_sites, points):
    """Estimated peak memory of one evolve run.

    The amplitudes at the points output times take 8 bytes a site each.
    The peak falls while the stepper factorizes its stage matrices: with
    the chain coefficients and the stepper's work arrays it took 443 bytes
    a site more, measured with tracemalloc at 80,000 sites and 2-50 points,
    and 451 at 20,000.  The 1 MiB covers what does not grow with the chain
    (argparse, the CSVs' header and numpy's buffers).
    """
    return n_sites * (8 * points + 448) + 2 ** 20


def _require_counts(*flags):
    """Raise ValidationError for any (flag, value) count below 1."""
    for flag, value in flags:
        if value < 1:
            raise ValidationError(f"{flag} must be at least 1, got {value}")


def _require_positive(*flags):
    """Raise ValidationError for any (flag, value) not above 0 (NaN included)."""
    for flag, value in flags:
        if not value > 0:
            raise ValidationError(f"{flag} must be positive, got {value}")


def _check_floats(args):
    """Raise ValidationError for any parsed float argument that is nan or
    infinite, and for a negative --mu, before a subcommand does any work."""
    for name, value in vars(args).items():
        for v in value if isinstance(value, list) else [value]:
            if isinstance(v, float) and not math.isfinite(v):
                raise ValidationError(f"--{name.replace('_', '-')} must be finite, got {v}")
    if getattr(args, "mu", 0.0) < 0:
        raise ValidationError(f"--mu must be at least 0, got {args.mu}")


def cmd_finite_n_arnoldi(args):
    _require_counts(("--nmax", args.nmax))
    require_memory(finite_n_bytes(args.n, args.nmax),
                   f"N={args.n} with --nmax {args.nmax}",
                   f"{args.nmax + 7} blocks of 2^(N-2) complex entries, "
                   "plus 1 MiB")
    out_dir = _out_dir(args)
    for seed in args.seed or [1]:
        tag = _run_finite_n(args, seed, out_dir)
        print(f"wrote hessenberg_{tag}.csv, diagnostics_{tag}.csv")


# ---------------------------------------------------------------------------
# large-n


def cmd_large_n(args):
    _require_counts(("--nmax", args.nmax))
    check_q(args.q)   # with --q-inf too, where --q labels the sizes
    out_dir = _out_dir(args)
    q = None if args.q_inf else args.q
    if args.mu > 0:
        if q is None:
            raise ValidationError("dissipative large-N Arnoldi needs a finite --q")
        space = DiagramSpace(q=q)
        space.trees.successors(args.nmax)   # the run reaches generation nmax + 1
        apply = make_dissipative_apply(space, args.mu)
        hm, _ = arnoldi(apply, space.vacuum_state(), args.nmax)
        eps = hessenberg_error(hm)
        manifest = _manifest(args, q=q, mu=args.mu, n_max=args.nmax,
                             j_sq=float(space.j_sq), reorth=True,
                             basis_dim=hm.basis_dim)
        _write_hessenberg_csv(out_dir / f"largen_hessenberg_q{q}_mu{args.mu}.csv",
                             manifest, hm)
        erows = [(k + 1, eps[k]) for k in range(eps.size)]
        write_csv(out_dir / f"largen_eps_q{q}_mu{args.mu}.csv", manifest,
                  ["n", "eps"], erows)
        print(f"wrote largen_hessenberg_q{q}_mu{args.mu}.csv")
        return
    coeffs, basis = lanczos_large_n(q, args.nmax)
    qlabel = "inf" if q is None else q
    manifest = _manifest(args, q=qlabel, n_max=args.nmax, mu=0.0,
                         exact=q is None, reorth=True)
    rows = [(n, float(np.real(complex(coeffs.a[n]))),
             float(np.imag(complex(coeffs.a[n]))),
             float(coeffs.b_sq[n - 1]) if n >= 1 else 0.0)
            for n in range(len(coeffs.a))]
    write_csv(out_dir / f"largen_lanczos_q{qlabel}.csv", manifest,
              ["n", "re_a", "im_a", "b_sq"], rows)
    srows = []
    for n, state in enumerate(basis):
        probs, mean, std = size_distribution(state, q=q or args.q)
        for s, p in sorted(probs.items()):
            if float(p) < 1e-30:   # numerical dust from float orthogonalization
                continue
            srows.append((n, s, float(p), mean, std))
    write_csv(out_dir / f"largen_sizes_q{qlabel}.csv", manifest,
              ["n", "s", "P", "mean", "std"], srows)
    print(f"wrote largen_lanczos_q{qlabel}.csv, largen_sizes_q{qlabel}.csv")


# ---------------------------------------------------------------------------
# moments


def cmd_moments(args):
    _require_counts(("--nmax", args.nmax), ("--q", args.q))
    out_dir = _out_dir(args)
    n_tri = max(1, (args.nmax - 1) // 2)
    polys = moments_from_g(max(args.nmax, 2 * n_tri + 1))
    manifest = _manifest(args, n_max=args.nmax, mu_tilde=args.mu_tilde)
    rows = [(n, len(polys[n]) - 1, ";".join(str(c) for c in polys[n]))
            for n in range(1, args.nmax + 1)]
    write_csv(out_dir / "moment_polynomials.csv", manifest,
              ["n", "degree", "coeffs_ascending_u"], rows)
    m = large_q_moment_sequence(args.q, args.mu_tilde, 2 * n_tri + 1, polys)
    tri = moments_to_tridiagonal(m, n_tri)
    trows = [(n, complex(tri.a[n]).real, complex(tri.a[n]).imag,
              complex(tri.b_sq[n - 1]).real if n >= 1 else 0.0,
              complex(tri.b_sq[n - 1]).imag if n >= 1 else 0.0)
             for n in range(len(tri.a))]
    write_csv(out_dir / "moment_tridiagonal.csv", manifest,
              ["n", "re_a", "im_a", "re_b_sq", "im_b_sq"], trows)
    print("wrote moment_polynomials.csv, moment_tridiagonal.csv")


# ---------------------------------------------------------------------------
# meixner / evolve


def cmd_meixner(args):
    _require_counts(("--points", args.points))
    _require_positive(("--tmax", args.tmax))
    out_dir = _out_dir(args)
    ts = np.linspace(0.0, args.tmax, args.points)
    for u in args.u:
        p = MeixnerParams(u=u, eta=args.eta)
        ks = k_complexity_exact(ts, p)
        vs = variance_exact(ts, p)
        k_sat, var_sat = (x if math.isfinite(x) else None   # u = 0: no plateau
                          for x in (k_saturation(p), variance_saturation(p)))
        manifest = _manifest(args, u=u, eta=args.eta, tmax=args.tmax,
                             k_saturation=k_sat, variance_saturation=var_sat)
        rows = [(float(t), float(k), float(v)) for t, k, v in zip(ts, ks, vs)]
        write_csv(out_dir / f"meixner_u{u}.csv", manifest, ["t", "K", "var"], rows)
        print(f"wrote meixner_u{u}.csv")


def cmd_evolve(args):
    _require_counts(("--points", args.points))
    _require_positive(("--tmax", args.tmax), ("--dt-tol", args.dt_tol))
    p = MeixnerParams(u=args.u, eta=args.eta)
    n_trunc = meixner_n_trunc(p, args.tmax)
    require_memory(evolve_bytes(n_trunc + 1, args.points),
                   f"the chain at --tmax {args.tmax}",
                   f"{n_trunc + 1} sites, {args.points} amplitudes each")
    out_dir = _out_dir(args)
    coeffs = meixner_tridiagonal(p, n_trunc)
    ts = np.linspace(0.0, args.tmax, args.points)
    phi = evolve_chain(coeffs, ts, rtol=args.dt_tol)
    manifest = _manifest(args, u=args.u, eta=args.eta, tmax=args.tmax,
                         n_trunc=n_trunc, rtol=args.dt_tol)
    rows = [(float(t), *k_complexity_numeric(phi[:, i])) for i, t in enumerate(ts)]
    write_csv(out_dir / f"evolve_u{args.u}.csv", manifest,
              ["t", "K", "var", "Z"], rows)
    # the amplitudes are real; the im_phi column is kept for the file's layout
    snap = [(n, x, 0.0) for n, x in enumerate(phi[:, -1])]
    write_csv(out_dir / f"evolve_snapshot_u{args.u}.csv", manifest,
              ["n", "re_phi", "im_phi"], snap)
    print(f"wrote evolve_u{args.u}.csv, evolve_snapshot_u{args.u}.csv")


# ---------------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="dsyk",
        description="Operator growth and Krylov complexity in the dissipative "
                    "SYK model")
    ap.add_argument("--out", default=None,
                    help="output directory (default: $DSYK_OUT_DIR or .)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("finite-n-arnoldi",
                       help="Arnoldi iteration of the exact finite-N Lindbladian")
    p.add_argument("--n", type=int, required=True, help="number of Majoranas N")
    p.add_argument("--q", type=int, default=4, help="interaction order q")
    p.add_argument("--coupling", type=float, default=1.0, help="SYK coupling J")
    p.add_argument("--mu", type=float, default=0.0, help="dissipation strength mu")
    p.add_argument("--seed", type=int, action="append",
                   help="disorder seed (repeatable; default 1)")
    p.add_argument("--nmax", type=int, default=40, help="Krylov steps")
    p.set_defaults(func=cmd_finite_n_arnoldi)

    p = sub.add_parser("large-n", help="large-N diagrammatic Lanczos/Arnoldi")
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--q-inf", action="store_true",
                   help="strict large-q engine (exact rational arithmetic)")
    p.add_argument("--mu", type=float, default=0.0,
                   help="dissipation strength (enables Arnoldi mode)")
    p.add_argument("--nmax", type=int, default=12)
    p.set_defaults(func=cmd_large_n)

    p = sub.add_parser("moments", help="exact large-q moment polynomials and "
                                       "moment-method tridiagonal")
    p.add_argument("--nmax", type=int, default=8)
    p.add_argument("--q", type=int, default=4)
    p.add_argument("--mu-tilde", type=float, default=0.0)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("meixner", help="closed-form K-complexity curves")
    p.add_argument("--u", type=float, action="append", required=True,
                   help="dissipation parameter (repeatable)")
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--tmax", type=float, default=8.0)
    p.add_argument("--points", type=int, default=200)
    p.set_defaults(func=cmd_meixner)

    p = sub.add_parser("evolve", help="numerical Krylov-chain evolution")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--tmax", type=float, default=8.0)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--dt-tol", type=float, default=1e-11,
                   help="relative integration tolerance")
    p.set_defaults(func=cmd_evolve)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _check_floats(args)
        args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3
    except NumericalContractError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
