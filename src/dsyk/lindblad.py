"""Lindbladian superoperator for the dissipative SYK model.

With jump operators L_k = sqrt(mu) psi_k the dissipator is diagonal on
Majorana strings, scaling a size-s string by i*mu*s.  On Jordan-Wigner
matrices it is applied in closed form, one pass per qubit; the literal
jump-operator sum, whose sign depends on the parity of the operator, is
the test oracle.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .majorana import OperatorVector, SykHamiltonian, liouvillian_apply


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
    parity of the qubits after j.  A negative mu raises ValidationError.
    """
    if mu < 0:
        raise ValidationError(f"dissipation strength mu={mu} must be >= 0")
    m = o.matrix
    out = o.n * m
    p = np.ones(1)   # p_j over the states of the qubits after j
    for j in reversed(range(o.n // 2)):
        shape = (1 << j, 2, p.size) * 2   # (qubits before j, qubit j, after j) per side
        m6, out6 = m.reshape(shape), out.reshape(shape)
        sign = 2.0 * np.outer(p, p)[:, None, :]
        out6[:, 0, :, :, 0, :] -= sign * m6[:, 1, :, :, 1, :]
        out6[:, 1, :, :, 1, :] -= sign * m6[:, 0, :, :, 0, :]
        p = np.concatenate([p, -p])
    out *= 0.5j * mu
    return OperatorVector(o.n, out)


def lindbladian_apply(h: SykHamiltonian, mu: float, o: OperatorVector) -> OperatorVector:
    """L O = [H, O] + L_D O."""
    return liouvillian_apply(h, o) + dissipator_apply(mu, o)
