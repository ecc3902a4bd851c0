"""Span tracing of isocat's layers from outside the package.

`Tracer.install()` wraps public functions and methods of the isocat modules
and rebinds each wrapped name in every loaded `isocat` module that imported
it (so `reptype.decompose` and `checks.euler_form` are traced too).  Modules
imported after `install()` pick up the wrapped names by themselves.

A span is (name, start, end, parent, op id, outermost-of-its-name); spans
live in flat arrays while the workload runs and are written out at the end.
Self time is a span's duration minus the durations of its direct children.
Counters are taken at the same boundaries: RatMatrix constructions, cells
and peak entry bit length handed to elimination, hom-cache reach and hits.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from fractions import Fraction
from functools import wraps
from time import perf_counter

# (span name, module, attribute); "Class.method" patches the class itself
TARGETS = [
    *[("exactalg.elim", "isocat.exactalg", f"RatMatrix.{m}")
      for m in ("rank", "kernel_basis", "rref", "solve", "inverse", "det", "column_space_pivots")],
    ("exactalg.elim", "isocat.exactalg", "kernel_basis"),
    ("exactalg.elim", "isocat.exactalg", "quotient_space"),
    ("exactalg.matmul", "isocat.exactalg", "RatMatrix.__mul__"),
    ("exactalg.matmul", "isocat.exactalg", "RatMatrix.kron"),
    ("exactalg.minpoly", "isocat.exactalg", "min_poly"),
    ("exactalg.minpoly", "isocat.exactalg", "min_poly_matrix"),
    ("exactalg.factor", "isocat.exactalg", "factor_rational"),
    ("exactalg.factor", "isocat.exactalg", "is_irreducible"),
    ("exactalg.factor", "isocat.exactalg", "squarefree_decomposition"),
    ("exactalg.radical", "isocat.exactalg", "radical"),
    ("extcat.hom_basis", "isocat.extcat", "equivariant_hom_basis"),
    ("extcat.hom", "isocat.extcat", "hom"),
    ("extcat.ext1", "isocat.extcat", "ext1"),
    ("extcat.euler_form", "isocat.extcat", "euler_form"),
    ("extcat.hom_space_dims", "isocat.extcat", "hom_space_dims"),
    ("extcat.decompose", "isocat.extcat", "decompose"),
    ("extcat.end_algebra", "isocat.extcat", "end_algebra"),
    ("extcat.resolution", "isocat.extcat", "projective_resolution"),
    ("extcat.resolution", "isocat.extcat", "Resolution.verify"),
    *[("extcat.abelian", "isocat.extcat", f) for f in
      ("abelian_ops", "torsion_pair", "verify_short_exact", "direct_sum", "direct_sum_many")],
    *[("extcat.universal", "isocat.extcat", f) for f in
      ("is_universal", "universal_extension", "universal_extension_of")],
    ("reptype.construct", "isocat.reptype", "construct_indecomposable"),
    ("species.catalog", "isocat.catalog", "catalog_scenario"),
    ("species.roots", "isocat.species", "positive_roots"),
    ("species.ring_center", "isocat.species", "ring_center"),
    ("samples.random_object", "isocat.samples", "random_object"),
    ("samples.random_object", "isocat.samples", "random_object_with"),
]


def _entry_bits(x) -> int:
    """Largest numerator/denominator bit length among the matrix entries in x.

    Plain ints outside a matrix are ranks, dimensions or pivot indices, not
    entries, and are ignored.
    """
    from isocat.exactalg import RatMatrix
    if isinstance(x, RatMatrix):
        top = max((abs(v).bit_length() for row in x.num for v in row), default=0)
        return max(top, x.den.bit_length())
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    if isinstance(x, (list, tuple)):
        return max((_entry_bits(v) for v in x), default=0)
    return 0


def _cells(args) -> int:
    from isocat.exactalg import RatMatrix
    if args and isinstance(args[0], int):  # quotient_space(ambient_dim, vectors)
        return args[0] * len(args[1])
    return sum(a.rows * a.cols for a in args if isinstance(a, RatMatrix))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_id = array("l")
        self.outer = array("b")
        self.stack: list[int] = []
        self.depth: list[int] = []
        self.op = -1
        self.counters = {"exactalg.ratmatrix.new": 0, "exactalg.elim.cells": 0,
                         "exactalg.elim.peak_bits": 0, "extcat.hom_cache.reach": 0,
                         "extcat.hom_cache.hits": 0}
        self.t0 = perf_counter()

    # -- recording --------------------------------------------------------

    def _nid(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return self.name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._nid(name)
        names, starts, ends, parents, ops, outer = (
            self.name, self.start, self.end, self.parent, self.op_id, self.outer)
        stack, depth = self.stack, self.depth

        @wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            outer.append(depth[nid] == 0)
            ends.append(0.0)
            stack.append(i)
            depth[nid] += 1
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
                depth[nid] -= 1

        return traced

    def _wrap_elim(self, fn):
        inner = self.wrap("exactalg.elim", fn)
        elim = self._nid("exactalg.elim")
        counters = self.counters

        def measure(args, out):
            counters["exactalg.elim.peak_bits"] = max(
                counters["exactalg.elim.peak_bits"], _entry_bits(args), _entry_bits(out))
            counters["exactalg.elim.cells"] += _cells(args)

        hook = self.wrap("trace.hook", measure)

        @wraps(fn)
        def traced(*args, **kwargs):
            outermost = self.depth[elim] == 0
            out = inner(*args, **kwargs)
            if outermost:
                hook(args, out)
            return out

        return traced

    def _wrap_hom_basis(self, fn, cache: dict):
        inner = self.wrap("extcat.hom_basis", fn)
        counters = self.counters

        @wraps(fn)
        def traced(alg, src, dst):
            before = len(cache)
            out = inner(alg, src, dst)
            # the cache is consulted only past the zero-space and Q shortcuts
            if src.dim and dst.dim and alg.dim != 1:
                counters["extcat.hom_cache.reach"] += 1
                counters["extcat.hom_cache.hits"] += len(cache) == before
            return out

        return traced

    def _wrap_new(self, fn):
        counters = self.counters

        @wraps(fn)
        def counted(*args, **kwargs):
            counters["exactalg.ratmatrix.new"] += 1
            fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        from isocat import checks, exactalg, extcat
        self.hom_cache = extcat._HOM_CACHE
        targets = list(TARGETS)
        targets += [(f"checks.{name}", "isocat.checks", suite.__name__)
                    for name, suite, _ in checks.SUITES]
        for name, modname, attr in targets:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            orig = getattr(owner, attr)
            if name == "exactalg.elim":
                new = self._wrap_elim(orig)
            elif name == "extcat.hom_basis":
                new = self._wrap_hom_basis(orig, self.hom_cache)
            else:
                new = self.wrap(name, orig)
            self._rebind(owner, attr, orig, new)
        exactalg.RatMatrix.__init__ = self._wrap_new(exactalg.RatMatrix.__init__)

    @staticmethod
    def _rebind(owner, attr, orig, new) -> None:
        setattr(owner, attr, new)
        if isinstance(owner, type):
            return
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("isocat"):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, new)

    # -- results ----------------------------------------------------------

    def write(self, path: str) -> None:
        """All spans, columnar, times in seconds from tracer creation."""
        t0 = self.t0
        doc = {"names": self.names, "counters": self.counters,
               "columns": ["name", "start", "end", "parent", "op", "outermost"],
               "spans": {"name": list(self.name),
                         "start": [round(t - t0, 7) for t in self.start],
                         "end": [round(t - t0, 7) for t in self.end],
                         "parent": list(self.parent), "op": list(self.op_id),
                         "outermost": list(self.outer)}}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics computed from the spans and counters."""
        n = len(self.start)
        names, parent, outer = self.name, self.parent, self.outer
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += dur[i]
        k = len(self.names)
        calls, self_s, total_s = [0] * k, [0.0] * k, [0.0] * k
        for i in range(n):
            nid = names[i]
            self_s[nid] += dur[i] - child[i]
            if outer[i]:
                calls[nid] += 1
                total_s[nid] += dur[i]
        ids = self.name_ids

        def get(table, name):
            return table[ids[name]] if name in ids else 0

        # hom calls nested under top-level decomposes, construct attempts
        dec, hom, con = ids.get("extcat.decompose"), ids.get("extcat.hom"), ids.get("reptype.construct")
        nested_hom = attempts = 0
        for i in range(n):
            if names[i] == hom:
                p = parent[i]
                while p >= 0 and names[p] != dec:
                    p = parent[p]
                nested_hom += p >= 0
            elif names[i] == dec and parent[i] >= 0 and names[parent[i]] == con:
                attempts += 1

        c = self.counters
        out = {
            "exactalg.elim.calls": (get(calls, "exactalg.elim"), "count"),
            "exactalg.elim.self_s": (get(self_s, "exactalg.elim"), "s"),
            "exactalg.elim.cells": (c["exactalg.elim.cells"], "count"),
            "exactalg.elim.peak_bits": (c["exactalg.elim.peak_bits"], "bits"),
            "exactalg.ratmatrix.new": (c["exactalg.ratmatrix.new"], "count"),
            "exactalg.matmul.calls": (get(calls, "exactalg.matmul"), "count"),
            "exactalg.matmul.self_s": (get(self_s, "exactalg.matmul"), "s"),
            "exactalg.minpoly.calls": (get(calls, "exactalg.minpoly"), "count"),
            "exactalg.minpoly.self_s": (get(self_s, "exactalg.minpoly"), "s"),
            "exactalg.factor.calls": (get(calls, "exactalg.factor"), "count"),
            "exactalg.factor.self_s": (get(self_s, "exactalg.factor"), "s"),
            "exactalg.radical.self_s": (get(self_s, "exactalg.radical"), "s"),
            "extcat.hom_basis.calls": (get(calls, "extcat.hom_basis"), "count"),
            "extcat.hom_basis.self_s": (get(self_s, "extcat.hom_basis"), "s"),
            "extcat.hom_cache.hit_ratio": (
                c["extcat.hom_cache.hits"] / max(1, c["extcat.hom_cache.reach"]), "ratio"),
            "extcat.hom_cache.entries": (len(self.hom_cache), "count"),
        }
        for layer in ("hom", "ext1"):
            out[f"extcat.{layer}.calls"] = (get(calls, f"extcat.{layer}"), "count")
            out[f"extcat.{layer}.self_s"] = (get(self_s, f"extcat.{layer}"), "s")
        top_decompose = get(calls, "extcat.decompose")
        constructs = get(calls, "reptype.construct")
        out.update({
            "extcat.euler_form.self_s": (get(self_s, "extcat.euler_form"), "s"),
            "extcat.hom_space_dims.self_s": (get(self_s, "extcat.hom_space_dims"), "s"),
            "extcat.decompose.calls": (top_decompose, "count"),
            "extcat.decompose.self_s": (get(self_s, "extcat.decompose"), "s"),
            "extcat.decompose.hom_per_call": (nested_hom / max(1, top_decompose), "count"),
            "extcat.end_algebra.self_s": (get(self_s, "extcat.end_algebra"), "s"),
            "reptype.root_table.total_s": (get(total_s, "reptype.construct"), "s"),
            "reptype.construct.success_ratio": (constructs / max(1, attempts), "ratio"),
            "extcat.resolution.self_s": (get(self_s, "extcat.resolution"), "s"),
            "extcat.abelian.self_s": (get(self_s, "extcat.abelian"), "s"),
            "extcat.universal.self_s": (get(self_s, "extcat.universal"), "s"),
            "species.ring_center.total_s": (get(total_s, "species.ring_center"), "s"),
            "species.catalog.total_s": (get(total_s, "species.catalog"), "s"),
            "species.roots.total_s": (get(total_s, "species.roots"), "s"),
            "samples.random_object.total_s": (get(total_s, "samples.random_object"), "s"),
            "trace.hook.self_s": (get(self_s, "trace.hook"), "s"),
            "trace.spans": (n, "count"),
        })
        from isocat import checks
        for name, _, _ in checks.SUITES:
            out[f"checks.{name}.total_s"] = (get(total_s, f"checks.{name}"), "s")
        return out
