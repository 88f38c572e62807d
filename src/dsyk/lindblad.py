"""Lindbladian superoperator for the dissipative SYK model.

With jump operators L_k = sqrt(mu) psi_k the dissipator is diagonal on
Majorana strings, scaling a size-s string by i*mu*s.  On the parity-sector
blocks of `dsyk.majorana` (states ordered by (p, r), p the parity of x and
r = x >> 1) it is applied in closed form, one pass per qubit; the literal
jump-operator sum, whose sign depends on the parity of the operator, is
the test oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .majorana import OperatorVector, SykHamiltonian, liouvillian_apply, parities


def dissipator_apply(mu: float, o: OperatorVector) -> OperatorVector:
    """L_D O = (i mu / 2)(N O - P (sum_k gamma_k O gamma_k) P), P the fermion parity.

    gamma_k gamma_S gamma_k is -gamma_S for k outside an odd string S and
    +gamma_S inside it, the reverse for an even S, and P gamma_S P carries
    the parity of S; so the bracket is 2 s gamma_S on every size-s string
    and the dissipator scales it by i mu s, whatever the parity of O.

    The two gammas on qubit j (Z..Z X and Z..Z Y) flip its bit on both
    sides; their Z strings cancel against P except on the qubits after j,
    and the X and Y terms cancel unless x and y agree on qubit j:
    P (gamma_2j O gamma_2j + gamma_2j+1 O gamma_2j+1) P [x, y]
    = 2 [x_j = y_j] p_j(x) p_j(y) O[x ^ bit_j, y ^ bit_j], with p_j(x) the
    parity of the qubits after j.  Every flip changes the parity of both
    states, so block p of a sector s reads block p ^ 1.  On a qubit j below
    N/2 - 1 the flip is bit N/2 - 2 - j of r, and p_j(x) p_j(y) is (-1)^s
    times the parity of the qubits before j in r and in r'.  The last qubit
    is the low bit of x, which r drops: x and y agree on it when
    parity(r) ^ parity(r') = s, and p_j = 1 there.

    Allocates the result and one buffer of half a sector.  A negative mu
    raises ValidationError.
    """
    if mu < 0:
        raise ValidationError(f"dissipation strength mu={mu} must be >= 0")
    half = 1 << (o.n // 2 - 1)
    pr = 1.0 - 2.0 * parities(half)   # (-1)^parity(r); its prefixes serve the qubits before j
    buf = np.empty(half * half, dtype=complex)
    blk = buf.reshape(half, half)
    out = {}
    for s, m in o.sectors.items():
        res = o.n * m
        # the last qubit: 2 [parity(r) ^ parity(r') = s] = 1 + (-1)^s pr pr'
        for p in (0, 1):
            np.multiply(m[p ^ 1], (1 - 2 * s) * pr[:, None], out=blk)
            blk *= pr
            blk += m[p ^ 1]
            res[p] -= blk
        for j in reversed(range(o.n // 2 - 1)):
            before, after = 1 << j, half >> (j + 1)
            shape = (2,) + (before, 2, after) * 2   # (p, qubits before j, qubit j, after) x 2
            m7, res7 = m[::-1].reshape(shape), res.reshape(shape)
            tmp = buf[: 2 * (before * after) ** 2].reshape(2, before, after, before, after)
            sign = (2.0 - 4.0 * s) * pr[:before, None, None, None] * pr[:before, None]
            for bit in (0, 1):
                np.multiply(m7[:, :, 1 - bit, :, :, 1 - bit, :], sign, out=tmp)
                res7[:, :, bit, :, :, bit, :] -= tmp
        res *= 0.5j * mu
        out[s] = res
    return OperatorVector(o.n, out)


def lindbladian_apply(h: SykHamiltonian, mu: float, o: OperatorVector) -> OperatorVector:
    """L O = [H, O] + L_D O."""
    return liouvillian_apply(h, o) + dissipator_apply(mu, o)
