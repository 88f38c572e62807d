"""Acceptance gate: twelve end-to-end criteria, one verdict line each.

Each test prints "ACCEPTANCE n: PASS/FAIL - ..." through the conftest
recorder and the terminal summary repeats all lines.  Tolerances are
stated inline next to each check.
"""

import math
from fractions import Fraction

import numpy as np
import sympy as sp

from conftest import record_acceptance
from dsyk.analytic import (
    MeixnerParams,
    k_complexity_exact,
    k_saturation,
    meixner_tridiagonal,
    meixner_wavefunction,
    variance_exact,
    variance_saturation,
)
from dsyk.dynamics import evolve_chain, k_complexity_numeric, meixner_n_trunc
from dsyk.cli import arnoldi
from dsyk.krylov import TridiagonalCoeffs, diagonal_slope_fit, hessenberg_error
from dsyk.largen import (
    DiagramSpace,
    l_minus_apply,
    l_plus_apply,
    lanczos_large_n,
    size_distribution,
)
from dsyk.lindblad import DissipativeModel, dissipator_apply, lindbladian_apply
from dsyk.majorana import OperatorVector, sample_syk, liouvillian_apply
from dsyk.moments import MomentPolynomial, moments_from_g, moments_to_tridiagonal
from oracles import (
    StringOperator,
    dagger,
    dissipator_oracle,
    has_parity_of,
    jacobi_moments,
    string_multiply,
    tridiagonal_to_series,
)

F = Fraction


def test_criterion_01_dissipator_eigenvalue_law():
    """Random strings at N in {6, 8, 10}: L_D = i mu s, oracle agrees to 1e-12."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for n in (6, 8, 10):
        model = DissipativeModel(hamiltonian=sample_syk(n, 4, 1.0, 1), mu=0.37)
        for _ in range(25):
            mask = int(rng.integers(1, 1 << n))
            s = bin(mask).count("1")
            fast = dissipator_apply(model, OperatorVector.basis_string(n, mask))
            expected = OperatorVector.basis_string(n, mask, 1j * model.mu * s)
            oracle = dissipator_oracle(model, StringOperator.basis_string(n, mask))
            worst = max(worst, (fast - expected).norm(),
                        (fast - OperatorVector.from_terms(n, oracle.terms)).norm())
    record_acceptance(1, "dissipator acts as i*mu*size on strings, oracle agrees",
                      worst < 1e-12, f"worst deviation {worst:.2e}")


def test_criterion_02_exact_contraction_identity():
    """L_- L_+^(n+1) psi_1 = n(n+1)/2 L_+^n psi_1 in integers, n = 1..12."""
    sp_ = DiagramSpace(q=None)
    state = sp_.vacuum_state()
    ok = True
    for n in range(1, 13):
        state = l_plus_apply(state)  # L_+^n psi_1
        lhs = l_minus_apply(l_plus_apply(state))
        rhs = F(n * (n + 1), 2) * state
        if (lhs - rhs).terms:
            ok = False
            break
    record_acceptance(2, "exact contraction identity on growth diagrams, n <= 12",
                      ok, "integer arithmetic")


def test_criterion_03_large_q_lanczos_exact():
    """b_n^2 = n(n-1)/2 as exact rationals for n = 2..15 (J_script = 1/sqrt 2)."""
    coeffs, _ = lanczos_large_n(None, 15)
    expect = [F(0)] + [F(n * (n - 1), 2) for n in range(2, 16)]
    ok = coeffs.b_sq == expect and all(x == 0 for x in coeffs.a)
    record_acceptance(3, "large-q Lanczos b_n = sqrt(n(n-1)/2) exactly, n <= 15", ok)


def test_criterion_04_moment_polynomial_table():
    """Published mt_2..mt_6, mt_8 exactly; mt_7 resolved to the parity form."""
    polys = moments_from_g(8)
    table = {2: (1,), 3: (0, 1), 4: (2, 0, 1), 5: (0, 8, 0, 1),
             6: (16, 0, 22, 0, 1), 8: (272, 0, 720, 0, 114, 0, 1)}
    ok = all(polys[n] == MomentPolynomial(tuple(F(c) for c in cs))
             for n, cs in table.items())
    # the printed mt_7 = u^5 + 52 u^2 + 136 violates moment parity; the
    # recomputed polynomial keeps the printed coefficients on odd powers
    printed_badly = MomentPolynomial((F(136), F(0), F(52), F(0), F(0), F(1)))
    resolved = MomentPolynomial((F(0), F(136), F(0), F(52), F(0), F(1)))
    ok = ok and not has_parity_of(printed_badly, 7)
    ok = ok and polys[7] == resolved and has_parity_of(polys[7], 7)
    record_acceptance(4, "large-q moment polynomial table exact, "
                         "odd-power form of mt_7 recovered", ok)


def test_criterion_05_continued_fraction_identity():
    """sum mt_(n+2) z^n equals the CF with a~_k = (k+1)u, b~_k^2 = k(k+1), to z^10."""
    u = sp.symbols("u")
    n_max = 10
    polys = moments_from_g(n_max + 2)
    a = [(k + 1) * u for k in range(n_max // 2 + 1)]
    b_sq = [sp.Integer(k * (k + 1)) for k in range(1, n_max // 2 + 1)]
    cf = tridiagonal_to_series(
        TridiagonalCoeffs(a=a, b_sq=b_sq), n_max)
    ok = all(sp.expand(cf[n] - polys[n + 2](u)) == 0 for n in range(n_max + 1))
    record_acceptance(5, "continued-fraction identity for the moment series to z^10",
                      ok, "coefficient-exact in u")


def test_criterion_06_moment_method_roundtrip():
    """Meixner moments return a_n = iu(2n+eta), b_n^2 = (1-u^2)n(n-1+eta), n <= 10."""
    u, eta = sp.Rational(1, 3), sp.Rational(3, 2)
    n_max = 10
    a = [sp.I * u * (2 * n + eta) for n in range(n_max + 2)]
    b_sq = [(1 - u ** 2) * n * (n - 1 + eta) for n in range(1, n_max + 2)]
    c = TridiagonalCoeffs(a=a, b_sq=b_sq)
    moments = jacobi_moments(c, 2 * n_max + 2)
    back = moments_to_tridiagonal(moments, n_max)
    ok = all(sp.simplify(back.a[n] - a[n]) == 0 for n in range(n_max + 1))
    ok = ok and all(sp.simplify(back.b_sq[n] - b_sq[n]) == 0 for n in range(n_max))
    record_acceptance(6, "moment-method round trip on the solvable chain, n <= 10",
                      ok, "exact arithmetic")


def test_criterion_07_exact_solution_checks():
    """Saturation values and the closed-system limit of the exact solution."""
    p = MeixnerParams(u=1e-4, eta=0.5)
    k_inf = p.eta / (2 * p.u) - p.eta / 2
    ok1 = abs(k_complexity_exact(30.0, p) / k_inf - 1) < 1e-9
    # variance saturation eta/(4u^2): the exact value carries (1-u^2), which
    # at u = 1e-4 sits inside the 1e-6 relative tolerance
    ok2 = abs(variance_exact(30.0, p) / (p.eta / (4 * p.u ** 2)) - 1) < 1e-6
    ok2 = ok2 and abs(variance_exact(30.0, p) / variance_saturation(p) - 1) < 1e-9
    free = MeixnerParams(u=0.0, eta=0.5)
    ok3 = all(abs(k_complexity_exact(t, free) / (0.5 * math.sinh(t) ** 2) - 1) < 1e-10
              for t in (0.5, 1.5, 3.0))
    record_acceptance(7, "exact K and variance saturation, closed-system limit",
                      ok1 and ok2 and ok3,
                      "K(30)/K_inf, var/(eta/4u^2), K = eta sinh^2 t")


def test_criterion_08_ode_matches_closed_form():
    """Chain ODE reproduces the closed-form amplitudes to 1e-6.

    u in {0.01, 0.1} over t <= 8; the closed system u = 0 over t <= 3
    (its support grows as e^(2t), see the decisions ledger).
    """
    worst = 0.0
    for u, t_max in ((0.0, 3.0), (0.01, 8.0), (0.1, 8.0)):
        p = MeixnerParams(u=u, eta=0.5)
        n_trunc = meixner_n_trunc(p, t_max)
        c = meixner_tridiagonal(p, n_trunc + 1)
        grid = np.linspace(0.0, t_max, 9)
        states = evolve_chain(c, grid, n_trunc=n_trunc)
        for st in states:
            ref = meixner_wavefunction(np.arange(n_trunc + 1), st.t, p)
            worst = max(worst, float(np.max(np.abs(st.phi - ref))))
    record_acceptance(8, "chain ODE matches exact wavefunction to 1e-6",
                      worst < 1e-6, f"max amplitude error {worst:.2e}")


def test_criterion_09_finite_n_arnoldi_structure():
    """N = 14, q = 4: tridiagonality at mu = 0 and the i*mu*(2n+1) diagonal law.

    The slope is fitted over n in [1, 2]: at desk-scale N the operator size
    saturates near N/2 so the spec window [1, N/q] reaches into the bend
    (measured and documented in the decisions ledger).  Pointwise checks at
    n = 0, 1 are exact consequences of size concentration at q = 4.
    """
    n, q = 14, 4
    h0 = sample_syk(n, q, 1.0, seed=1)
    o0 = OperatorVector.basis_string(n, 1)
    hm0, _ = arnoldi(lambda v: liouvillian_apply(h0, v), o0, 12)
    eps0 = float(np.max(hessenberg_error(hm0)))
    ok = eps0 < 1e-9
    detail = [f"mu=0 eps_max {eps0:.1e}"]
    for seed in (1, 2, 3):
        h = sample_syk(n, q, 1.0, seed=seed)
        for mu in (0.01, 0.02):
            model = DissipativeModel(hamiltonian=h, mu=mu)
            hm, _ = arnoldi(lambda v: lindbladian_apply(model, v), o0, 5)
            diag = np.imag(np.diagonal(hm.h))[:4] / mu
            ok = ok and abs(diag[0] - 1.0) < 1e-9 and abs(diag[1] - 3.0) < 1e-6
            ok = ok and abs(diag[2] / 5.0 - 1.0) < 0.05
            slope, _ = diagonal_slope_fit(hm, 1, 2)
            ok = ok and abs(slope / (2 * mu) - 1.0) < 0.10
        detail.append(f"seed {seed} diag/mu {diag[0]:.2f},{diag[1]:.2f},{diag[2]:.2f}")
    record_acceptance(9, "finite-N Arnoldi: tridiagonal at mu=0, "
                         "diagonal law i*mu*(2n+1)", ok, "; ".join(detail))


def test_criterion_10_size_concentration():
    """q = 4 diagram engine: exact concentration for n <= 4, breakdown at
    n = 5, std/mean <= 0.016 for n <= 17 (strict), limit 0.015 +- 20%.

    The faithful disorder-averaged diagram weights give a std/mean curve
    peaking at 0.0183 around n = 13 before decaying, so the strict 0.016
    bound fails for 8 <= n <= 17 while the limiting-value clause holds;
    the decisions ledger analyzes the discrepancy against the published
    bound (this test is intentionally left red rather than loosened).
    """
    coeffs, basis = lanczos_large_n(4, 17)
    ratios = {}
    ok = True
    for n in range(1, 18):
        probs, mean, std = size_distribution(basis[n])
        dominant = 2 * n + 1
        sub = sum(p for s, p in probs.items() if s != dominant)
        if n <= 4:
            ok = ok and sub < 1e-12          # exact concentration (float dust)
        if n == 5:
            ok = ok and sub > 1e-4           # genuine breakdown weight
        ratios[n] = std / mean
    c_max = max(ratios.values())
    c_17 = ratios[17]
    strict_ok = c_max <= 0.016
    limit_ok = 0.015 * 0.8 <= c_17 <= 0.015 * 1.2
    record_acceptance(10, "size concentration: exact n <= 4, breakdown at 5, "
                          "std/mean <= 0.016 up to n = 17",
                      ok and strict_ok and limit_ok,
                      f"max std/mean {c_max:.4f} (strict bound 0.016), "
                      f"n=17 value {c_17:.4f} (limit clause 0.015 +- 20%)")


def test_criterion_11_saturation_scaling():
    """Measured K plateau ~ 1/u within 10%, crossover within 1 of ln(2/u)/2."""
    eta = 0.5
    plateaus = {}
    ok = True
    detail = []
    for u, t_max in ((0.1, 8.0), (0.01, 8.0), (0.001, 6.0)):
        p = MeixnerParams(u=u, eta=eta)
        n_trunc = meixner_n_trunc(p, t_max)
        c = meixner_tridiagonal(p, n_trunc + 1)
        grid = np.linspace(0.0, t_max, 61)
        states = evolve_chain(c, grid, n_trunc=n_trunc, rtol=1e-9, atol=1e-11)
        ks = np.array([k_complexity_numeric(s)[0] for s in states])
        plateau = float(ks[-1])
        plateaus[u] = plateau
        ok = ok and abs(plateau / k_saturation(p) - 1.0) < 0.10
        t_half = float(grid[int(np.argmax(ks >= plateau / 2.0))])
        pred = math.log(2.0 / u) / 2.0
        ok = ok and abs(t_half - pred) <= 1.0
        detail.append(f"u={u}: K*u={plateau * u:.4f}, t_half={t_half:.2f} vs {pred:.2f}")
    # power-law check across the decade span: slope of log K vs log(1/u)
    us = sorted(plateaus)
    slope = (math.log(plateaus[us[0]] / plateaus[us[-1]])
             / math.log(us[-1] / us[0]))
    ok = ok and abs(slope - 1.0) < 0.10
    record_acceptance(11, "K plateau scales as 1/u, crossover at ln(2/u)/2",
                      ok, "; ".join(detail))


def test_criterion_12_property_suites():
    """Representative algebra laws at their stated tolerances in one sweep."""
    rng = np.random.default_rng(7)
    ok = True
    # anticommutation / associativity of string products
    for _ in range(200):
        a, b, c = (int(x) for x in rng.integers(0, 1 << 16, size=3))
        p1, ab = string_multiply(a, b)
        p2, abc1 = string_multiply(ab, c)
        q1, bc = string_multiply(b, c)
        q2, abc2 = string_multiply(a, bc)
        ok = ok and abc1 == abc2 and p1 * p2 == q1 * q2
    # Hermiticity of H and of the commutator map under the trace inner product
    h = sample_syk(8, 4, 1.0, seed=11)
    ho = OperatorVector(h.n, h.matrix)
    ok = ok and (ho - dagger(ho)).norm() < 1e-12
    for _ in range(10):
        x = OperatorVector.from_terms(
            8, {int(m): complex(*rng.normal(size=2))
                for m in rng.integers(0, 1 << 8, size=5)})
        y = OperatorVector.from_terms(
            8, {int(m): complex(*rng.normal(size=2))
                for m in rng.integers(0, 1 << 8, size=5)})
        lhs = x.inner(liouvillian_apply(h, y))
        rhs = liouvillian_apply(h, x).inner(y)
        ok = ok and abs(lhs - rhs) < 1e-10
    # adjointness of the growth/contraction pair in exact arithmetic
    sp_ = DiagramSpace(q=4, exact=True)
    xs = sp_.state({i: F(k + 1) for k, i in enumerate(sp_.trees.ids(4)[:4])})
    ys = l_plus_apply(xs)
    ok = ok and l_plus_apply(xs).inner(ys) == xs.inner(l_minus_apply(ys))
    # orthonormality defect of a Krylov basis under the weighted inner product
    _, basis = lanczos_large_n(4, 8)
    defect = max(abs(complex(u.inner(v)) - (1.0 if i == j else 0.0))
                 for i, u in enumerate(basis) for j, v in enumerate(basis))
    ok = ok and defect < 1e-10
    record_acceptance(12, "algebra law property sweep", ok,
                      f"orthonormality defect {defect:.1e}")
