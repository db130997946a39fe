"""Per-layer spans recorded from outside the program.

``Tracer.install()`` replaces each traced function with a timing wrapper on
every module attribute that holds it: ``from .x import f`` binds ``f`` again
in each importing module and in the package, and a call through any binding
must land in the same span.  ``uninstall()`` puts the originals back.

Spans are kept in memory as (name, start, end, parent index) and reduced by
``layer_totals``: a span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path) of every traced function; names are "module.path"
TARGETS = (
    ("cli", "main"),
    ("cli", "build_parser"),
    ("graphs", "build_family"),
    ("graphs", "adjacency_matrix"),
    ("graphs", "from_edge_list_text"),
    ("eigensolver", "symmetric_eigenvalues"),
    ("spectra", "closed_spectrum"),
    ("spectra", "numeric_spectrum"),
    ("spectra", "spectrum_deviation"),
    ("distance", "distance_report"),
    ("distance", "expected_pattern_codes"),
    ("distance", "DistanceReport.to_json"),
    ("distance", "check_additivity"),
    ("distance", "sigma_closed"),
    ("limits", "sequence_scan"),
    ("limits", "LimitEstimate.to_csv"),
)
KERNEL = "eigensolver.jacobi_sweeps"
PACKAGE = "specdist"

# 6 flops and 48 bytes (2 loads, 4 stores of float64) per rotation and row
FLOPS_PER_ROTATION_ROW = 6
BYTES_PER_ROTATION_ROW = 48


def cos_terms(pair, n):
    """Cosine evaluations implied by the closed sums at order n (computed):
    pz and wz take two per k = 1..n/2, pw both of those, cz one per k < n/2."""
    per_pair = 2 * (n // 2)
    return {"pz": per_pair, "wz": per_pair, "pw": 2 * per_pair, "cz": n // 2 - 1}[pair]


def layer_totals(spans):
    """busy seconds, self seconds and call counts per span name."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    busy, self_, calls = defaultdict(float), defaultdict(float), Counter()
    for (name, t0, t1, _), covered in zip(spans, child):
        busy[name] += t1 - t0
        self_[name] += t1 - t0 - covered
        calls[name] += 1
    return busy, self_, calls


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._patches = None  # (owner, attribute, original, wrapper)
        self.aliases = Counter()  # bindings per traced name

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _wrap(self, name, fn, on_return=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _bindings(self, fn):
        """Every (module, attribute) of the package that holds fn."""
        return [(module, attr) for module in self._modules()
                for attr, value in list(vars(module).items()) if value is fn]

    def _plan(self):
        hooks = {
            "graphs.build_family": self._count_edges,
            "graphs.from_edge_list_text": self._count_edges,
            "distance.sigma_closed": self._count_cos_terms,
            "limits.sequence_scan": self._count_samples,
        }
        functions = []  # (name, function, its bindings)
        for module_name, path in TARGETS:
            name = f"{module_name}.{path}"
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                functions.append((name, cls.__dict__[meth], [(cls, meth)]))
            else:
                fn = getattr(module, path)
                functions.append((name, fn, self._bindings(fn)))
        # the kernel: whichever jacobi_sweeps the eigensolver binds, read
        # through that binding so its (converged, sweeps) return is counted
        solver = sys.modules[f"{PACKAGE}.eigensolver"]
        kernels = {id(v): v for v in vars(solver).values()
                   if callable(v) and getattr(v, "__name__", "") == "jacobi_sweeps"}
        hooks[KERNEL] = self._count_sweeps
        functions += [(KERNEL, fn, self._bindings(fn)) for fn in kernels.values()]
        if not kernels:
            functions.append((KERNEL, None, []))

        missing = [name for name, _, bindings in functions if not bindings]
        if missing:
            raise LookupError(f"traced functions not found: {', '.join(missing)}")
        plan = []
        for name, fn, bindings in functions:
            wrapper = self._wrap(name, fn, hooks.get(name))
            plan += [(owner, attr, fn, wrapper) for owner, attr in bindings]
            self.aliases[name] += len(bindings)
        return plan

    def install(self):
        """Put the wrappers in place; the bindings are found on first use."""
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches or ():
            setattr(owner, attr, original)

    def _count_sweeps(self, args, result):
        n = args[0].shape[0]
        _, sweeps = result
        rotations = sweeps * n * (n - 1) // 2
        c = self.counters
        c["eigensolver.sweeps"] += sweeps
        c["eigensolver.sweeps_max"] = max(c["eigensolver.sweeps_max"], sweeps)
        c["eigensolver.rotations_bound"] += rotations
        c["eigensolver.flops_computed"] += rotations * n * FLOPS_PER_ROTATION_ROW
        c["eigensolver.bytes_computed"] += rotations * n * BYTES_PER_ROTATION_ROW

    def _count_edges(self, args, graph):
        self.counters["graphs.edges"] += len(graph.edges)

    def _count_cos_terms(self, args, result):
        self.counters["distance.cos_terms"] += cos_terms(args[0], args[1])

    def _count_samples(self, args, estimate):
        self.counters["limits.samples"] += len(estimate.samples)
