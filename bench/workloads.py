"""The benchmark's workloads: generated CLI arguments and their output check.

A solve is a list of dsyk CLI argument lists run in order in one fresh
interpreter.  ``solves(seed)`` yields solves forever; the same seed gives
the same sequence.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, NamedTuple

import checks


class Workload(NamedTuple):
    name: str
    why: str
    solves: Callable[[int], Iterator[list]]
    check: Callable[[str, list], list]


def _finite_n(seed):
    """The workload seed draws the disorder seed of each solve."""
    rng = random.Random(seed)
    while True:
        yield [["finite-n-arnoldi", "--n", "14", "--q", "4", "--mu", "0.02",
                "--nmax", "12", "--seed", str(rng.randrange(1, 2 ** 31))]]


def _fixed(*argvs):
    """A deterministic workload: the seed is recorded but changes no input."""
    def solves(seed):
        while True:
            yield [list(a) for a in argvs]
    return solves


WORKLOADS = {w.name: w for w in [
    Workload("finite_n",
             "finite-N Lindbladian Arnoldi at N=14, q=4: majorana/lindblad/krylov, "
             "no trees, largen or dynamics; seed draws the disorder",
             _finite_n, checks.check_finite_n),
    Workload("large_n_q4",
             "q=4 diagram Lanczos to n=15 (80,920 trees) with size distributions: "
             "tree graph, L+/L-, float inner products",
             _fixed(["large-n", "--q", "4", "--nmax", "15"]), checks.check_large_n_q4),
    Workload("large_q_exact",
             "exact large-q Lanczos to n=13 plus the moments table to 28: trees and "
             "largen in Fraction arithmetic, no child cap",
             _fixed(["large-n", "--q-inf", "--nmax", "13"],
                    ["moments", "--nmax", "28", "--q", "4", "--mu-tilde", "0.1"]),
             checks.check_large_q_exact),
    Workload("chain",
             "Meixner chain ODE at u=0.01 over 1,857 sites: dynamics and analytic, "
             "bypassing the finite-N and diagram engines",
             _fixed(["evolve", "--u", "0.01", "--eta", "0.5", "--tmax", "8",
                     "--points", "61", "--dt-tol", "1e-9"]), checks.check_chain),
]}
