"""Lindbladian superoperator for the dissipative SYK model.

With jump operators L_k = sqrt(mu) psi_k the dissipator is diagonal on
Majorana strings, scaling a size-s string by i*mu*s.  On the block of
`dsyk.majorana` (an odd operator i^k A, A Hermitian, held as A's block
from odd to even states, those states ordered by r = x >> 1) it is applied
in closed form, one pass per qubit; the literal jump-operator sum, whose
sign depends on the parity of the operator, is the test oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .majorana import OperatorVector, SykHamiltonian, liouvillian_apply, parities


def dissipator_apply(mu: float, o: OperatorVector) -> OperatorVector:
    """L_D (i^k A) = i^(k+1) (mu/2)(N A - P (sum_k gamma_k A gamma_k) P), P the fermion parity.

    gamma_k gamma_S gamma_k is -gamma_S for k outside an odd string S and
    +gamma_S inside it, and P gamma_S P = -gamma_S; so the bracket is
    (N - 2 s) gamma_S on every size-s string, and the dissipator scales it
    by i mu s, keeping A Hermitian.

    The two gammas on qubit j (Z..Z X and Z..Z Y) flip its bit on both
    sides; their Z strings cancel against P except on the qubits after j,
    and the X and Y terms cancel unless x and y agree on qubit j:
    P (gamma_2j A gamma_2j + gamma_2j+1 A gamma_2j+1) P [x, y]
    = 2 [x_j = y_j] p_j(x) p_j(y) A[x ^ bit_j, y ^ bit_j], with p_j(x) the
    parity of the qubits after j.  Every flip changes the parity of both
    states, so the block from odd to even states reads A's other block,
    a^dag.  On a qubit j below N/2 - 1 the flip is bit N/2 - 2 - j of r,
    and p_j(x) p_j(y) is minus the parity of the qubits before j in r and
    in r'.  The last qubit is the low bit of x, which r drops: x and y
    agree on it when parity(r) ^ parity(r') = 1, and p_j = 1 there.

    Allocates the result, a^dag, a buffer of a quarter block and the
    qubits' signs, a quarter block of floats.  A negative mu raises
    ValidationError.
    """
    if mu < 0:
        raise ValidationError(f"dissipation strength mu={mu} must be >= 0")
    half = 1 << (o.n // 2 - 1)
    pr = 1.0 - 2.0 * parities(half)   # (-1)^parity(r); its prefixes serve the qubits before j
    signs = 2.0 * np.outer(pr[: half // 2], pr[: half // 2])
    ad = np.conjugate(o.a.T, order="C")
    buf = np.empty(half * half // 4, dtype=complex)
    res = np.multiply(o.a, o.n, order="C")   # the passes write through reshaped views
    for j in reversed(range(o.n // 2 - 1)):
        before, after = 1 << j, half >> (j + 1)
        shape = (before, 2, after) * 2   # (qubits before j, qubit j, after) x 2
        ad6, res6 = ad.reshape(shape), res.reshape(shape)
        tmp = buf.reshape(before, after, before, after)
        sign = signs[:before, None, :before, None]
        for bit in (0, 1):
            np.multiply(ad6[:, 1 - bit, :, :, 1 - bit, :], sign, out=tmp)
            res6[:, bit, :, :, bit, :] += tmp
    # the last qubit: 2 [parity(r) ^ parity(r') = 1] = 1 - pr pr'
    res -= ad
    ad *= pr[:, None]
    ad *= pr
    res += ad
    res *= 0.5 * mu
    return OperatorVector(o.n, res, o.k + 1)


def lindbladian_apply(h: SykHamiltonian, mu: float, o: OperatorVector) -> OperatorVector:
    """L O = [H, O] + L_D O."""
    return liouvillian_apply(h, o) + dissipator_apply(mu, o)
