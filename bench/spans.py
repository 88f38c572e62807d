"""In-memory span recorder and the wrappers that trace dsyk's layers.

A span is one call into a layer: a name, a start and end time, and the
span that was open when it started (its parent).  Spans live in flat
arrays while the solve runs and are written out once it ends.  A span's
self time is its duration minus the durations of its direct children;
spans of one process nest properly, so that is exactly the part of its
interval no child covers.

``install`` replaces each traced function under the name its caller looks
it up by (``dsyk.cli.arnoldi``, ``TreeSpace.successors``, ...).  A target
that no longer exists is reported as missing, and every metric that needs
it is left out of the result instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from array import array

ROOT_SPAN = "cli.main"


class SpanRecorder:
    """Flat arrays of spans plus named counters, filled by ``wrap``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters = {}

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(self.clock())
        return i

    def close(self, i):
        self.end[i] = self.clock()
        self._stack.pop()

    def add(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, value), value)

    def wrap(self, fn, name, hook=None):
        """fn recorded as a span called name; hook(recorder, args, result) after it."""
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(i)
            if hook is not None:
                hook(self, args, out)
            return out

        return traced

    def dump(self, path):
        """Write the spans as JSON: names plus parallel span columns."""
        with open(path, "w") as f:
            json.dump({"names": self.names, "name_id": self.name_id.tolist(),
                       "parent": self.parent.tolist(), "start": self.start.tolist(),
                       "end": self.end.tolist()}, f)


def self_times(parent, start, end):
    """Per-span duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def self_by_name(rec):
    """Summed self time per span name."""
    total = dict.fromkeys(rec.names, 0.0)
    for nid, t in zip(rec.name_id, self_times(rec.parent, rec.start, rec.end)):
        total[rec.names[nid]] += t
    return total


# ---------------------------------------------------------------------------
# hooks: counts taken at the same boundaries as the spans


def _csv_bytes(rec, args, _):
    rec.add("cli.csv_bytes", os.path.getsize(args[0]))


def _support(rec, args, _):
    o = args[1]
    rec.add("majorana.apply_calls")
    rec.add("majorana.support_sum", o.n_terms / 2 ** (o.n - 1))


def _arnoldi_steps(rec, _, out):
    rec.add("krylov.steps", out[0].basis_dim)


def _lanczos_steps(rec, _, out):
    coeffs = out[0] if isinstance(out, tuple) else out
    rec.add("krylov.steps", len(coeffs.a))


def _state_terms(rec, _, out):
    rec.maximum("largen.state_terms_max", len(out.terms))


def _trees(rec, _, out):
    rec.maximum("trees.tree_count", len(out[1][-1].space.trees))


def _ivp(rec, args, out):
    rec.add("dynamics.rhs_evals", out.nfev)
    n_sites = len(args[2]) // 2   # real and imaginary parts of each site
    rec.maximum("dynamics.n_sites", n_sites)
    rec.add("dynamics.site_evals", out.nfev * n_sites)


# (where the caller looks the function up, span name, hook)
TARGETS = [
    ("dsyk.cli.write_csv", "cli.write_csv", _csv_bytes),
    ("dsyk.cli.sample_syk", "majorana.sample_syk", None),
    ("dsyk.cli.lindbladian_apply", "lindblad.lindbladian_apply", None),
    ("dsyk.lindblad.liouvillian_apply", "majorana.liouvillian_apply", _support),
    ("dsyk.lindblad.dissipator_apply", "lindblad.dissipator_apply", None),
    ("dsyk.majorana.OperatorVector.inner", "majorana.inner", None),
    ("dsyk.majorana.OperatorVector.__add__", "majorana.vector_ops", None),
    ("dsyk.majorana.OperatorVector.__mul__", "majorana.vector_ops", None),
    ("dsyk.majorana.OperatorVector.__rmul__", "majorana.vector_ops", None),
    ("dsyk.cli.arnoldi", "krylov.arnoldi", _arnoldi_steps),
    ("dsyk.largen.lanczos", "krylov.lanczos", _lanczos_steps),
    ("dsyk.cli.lanczos_large_n", "largen.lanczos_large_n", _trees),
    ("dsyk.trees.TreeSpace.successors", "trees.successors", None),
    ("dsyk.trees.TreeSpace.predecessors", "trees.predecessors", None),
    ("dsyk.largen.hamiltonian_apply", "largen.hamiltonian_apply", _state_terms),
    ("dsyk.largen.l_plus_apply", "largen.l_plus", _state_terms),
    ("dsyk.largen.l_minus_apply", "largen.l_minus", _state_terms),
    ("dsyk.largen.DiagramState.inner", "largen.inner", None),
    ("dsyk.largen.DiagramState.norm_sq", "largen.inner", None),
    ("dsyk.largen.DiagramState.iaxpy", "largen.axpy", None),
    ("dsyk.largen.DiagramState.__add__", "largen.axpy", None),
    ("dsyk.largen.DiagramState.__sub__", "largen.axpy", None),
    ("dsyk.largen.DiagramState.__mul__", "largen.axpy", None),
    ("dsyk.largen.DiagramState.__rmul__", "largen.axpy", None),
    ("dsyk.cli.size_distribution", "largen.size_distribution", None),
    ("dsyk.cli.moments_from_g", "moments.moments_from_g", None),
    ("dsyk.moments.moments_from_g", "moments.moments_from_g", None),
    ("dsyk.cli.large_q_moment_sequence", "moments.large_q_moment_sequence", None),
    ("dsyk.cli.moments_to_tridiagonal", "moments.moments_to_tridiagonal", None),
    ("dsyk.cli.meixner_n_trunc", "dynamics.meixner_n_trunc", None),
    ("dsyk.cli.meixner_tridiagonal", "analytic.meixner_tridiagonal", None),
    ("dsyk.cli.evolve_chain", "dynamics.evolve_chain", None),
    ("dsyk.dynamics.solve_ivp", "dynamics.solve_ivp", _ivp),
    ("dsyk.cli.k_complexity_numeric", "dynamics.k_complexity_numeric", None),
]

# the lru_caches whose public cache_info() gives trees.cache_hit_ratio
CACHES = ["dsyk.trees.attachments", "dsyk.trees.leaf_removals"]


def _resolve(path):
    """(owner, attribute) for a dotted path module[.Class].attr, or None."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name, None)
        if owner is not None and parts[-1] in vars(owner):
            return owner, parts[-1]
        return None
    return None


def install(rec):
    """Wrap every target; returns the set of targets that could not be found."""
    missing = set()
    for path, name, hook in TARGETS:
        found = _resolve(path)
        if found is None:
            missing.add(path)
            continue
        owner, attr = found
        setattr(owner, attr, rec.wrap(getattr(owner, attr), name, hook))
    for path in CACHES:
        found = _resolve(path)
        if found is None or not hasattr(getattr(*found), "cache_info"):
            missing.add(path)
    return missing


# ---------------------------------------------------------------------------
# per-layer metrics of one traced solve

LAYERS = ["cli", "majorana", "lindblad", "krylov", "trees", "largen", "moments",
          "dynamics", "analytic"]

# stands for CACHES among the span names a metric needs
CACHE_SPAN = "trees.lru_caches"


def _self(*names):
    """Metric summing the self times of the named spans."""
    return "s", list(names), lambda rec, own: sum(own.get(n, 0.0) for n in names)


def _count(*needs, unit="count"):
    """Metric reading the counter of the same name, fed by hooks on the needed spans."""
    return unit, list(needs), None


def _layer(layer):
    return "s", [], lambda rec, own: sum(t for n, t in own.items()
                                         if n.split(".")[0] == layer)


def _support_fill(rec, own):
    n = rec.counters.get("majorana.apply_calls", 0)
    return rec.counters.get("majorana.support_sum", 0.0) / n if n else 0.0


def _inner_calls_from_krylov(rec, own):
    """Inner products whose parent span is a Krylov driver."""
    names = rec.names
    drivers = {i for i, n in enumerate(names) if n.startswith("krylov.")}
    inners = {i for i, n in enumerate(names) if n in ("majorana.inner", "largen.inner")}
    return sum(1 for nid, p in zip(rec.name_id, rec.parent)
               if nid in inners and p >= 0 and rec.name_id[p] in drivers)


def _cache_hit_ratio(rec, own):
    hits = misses = 0
    for path in CACHES:
        info = getattr(*_resolve(path)).cache_info()
        hits += info.hits
        misses += info.misses
    return hits / (hits + misses) if hits + misses else 0.0


# metric -> (unit, span names it needs, value from (recorder, self time per span
# name)); a value of None reads the counter of the same name
METRICS = {
    "cli.write_csv_s": _self("cli.write_csv"),
    "cli.csv_bytes": _count("cli.write_csv", unit="bytes"),
    "majorana.sample_syk_s": _self("majorana.sample_syk"),
    "majorana.liouvillian_apply_s": _self("majorana.liouvillian_apply"),
    "majorana.vector_ops_s": _self("majorana.inner", "majorana.vector_ops"),
    "majorana.apply_calls": _count("majorana.liouvillian_apply"),
    "majorana.support_fill": ("ratio", ["majorana.liouvillian_apply"], _support_fill),
    "lindblad.dissipator_apply_s": _self("lindblad.dissipator_apply"),
    "lindblad.lindbladian_apply_self_s": _self("lindblad.lindbladian_apply"),
    "krylov.arnoldi_self_s": _self("krylov.arnoldi"),
    "krylov.lanczos_self_s": _self("krylov.lanczos"),
    "krylov.steps": _count("krylov.arnoldi", "krylov.lanczos"),
    "krylov.inner_calls": ("count", ["krylov.arnoldi", "krylov.lanczos", "majorana.inner",
                                     "largen.inner"], _inner_calls_from_krylov),
    "trees.successors_s": _self("trees.successors"),
    "trees.predecessors_s": _self("trees.predecessors"),
    "trees.tree_count": _count("largen.lanczos_large_n"),
    "trees.cache_hit_ratio": ("ratio", [CACHE_SPAN], _cache_hit_ratio),
    "largen.l_plus_self_s": _self("largen.l_plus"),
    "largen.l_minus_self_s": _self("largen.l_minus"),
    "largen.inner_s": _self("largen.inner"),
    "largen.axpy_s": _self("largen.axpy"),
    "largen.size_distribution_s": _self("largen.size_distribution"),
    "largen.state_terms_max": _count("largen.l_plus", "largen.l_minus"),
    "moments.moments_from_g_s": _self("moments.moments_from_g"),
    "moments.moments_to_tridiagonal_s": _self("moments.moments_to_tridiagonal"),
    "dynamics.meixner_n_trunc_s": _self("dynamics.meixner_n_trunc"),
    "dynamics.evolve_chain_self_s": _self("dynamics.evolve_chain"),
    "dynamics.solve_ivp_s": _self("dynamics.solve_ivp"),
    "dynamics.rhs_evals": _count("dynamics.solve_ivp"),
    "dynamics.n_sites": _count("dynamics.solve_ivp"),
    "dynamics.site_evals": _count("dynamics.solve_ivp"),
    "dynamics.k_complexity_numeric_s": _self("dynamics.k_complexity_numeric"),
    "analytic.meixner_tridiagonal_s": _self("analytic.meixner_tridiagonal"),
    **{f"{layer}.self_s": _layer(layer) for layer in LAYERS},
}

# measured by the generator from the solves' own timings
PROC_METRICS = {"proc.cpu_s": "s", "proc.solve_s": "s", "proc.traced_solve_s": "s",
                "proc.trace_overhead_s": "s", "proc.reference_s": "s"}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {k: v[0] for k, v in METRICS.items()}
    units.update(PROC_METRICS)
    return units


def solve_metrics(rec, missing_targets):
    """Per-layer metrics of one traced solve; metrics whose targets are gone are left out."""
    gone = {name for path, name, _ in TARGETS if path in missing_targets}
    if any(path in missing_targets for path in CACHES):
        gone.add(CACHE_SPAN)
    own = self_by_name(rec)
    return {metric: (rec.counters.get(metric, 0) if value is None else value(rec, own))
            for metric, (_, needs, value) in METRICS.items() if not gone.intersection(needs)}


def median_metrics(per_solve):
    """Median of each metric over the solves that report it."""
    keys = {k for m in per_solve for k in m}
    return {k: statistics.median(m[k] for m in per_solve if k in m) for k in keys}
