"""Per-layer spans and counters, attached from outside the library.

``Tracer.install()`` replaces the public functions of each layer with
timing wrappers.  Modules bind each other's functions with
``from .x import f``, so every ``openwdvv`` module namespace (and class)
that holds the original object gets the wrapper.  ``MPoly.__rmul__`` and
``__radd__`` are class attributes of their own, so they are found and
wrapped alongside ``__mul__`` and ``__add__``.  The ``lru_cache`` functions
are never wrapped inside their cache; hits and misses come from
``cache_info()``.

Attribution rules:

* a span's self time is its duration minus that of its wrapped children;
* a name's inclusive time counts only its outermost active span, so a name
  that nests inside itself is not counted twice;
* kernel spans (``exactalg.*``) pass their term products up to the
  innermost non-kernel span, which "owns" them: every product is counted
  once, under the layer that asked for it.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

KERNEL = "exactalg."

# span name -> (module, attribute path) of each function it covers.
SPANS = {
    "exactalg.mul": [("exactalg", "MPoly.__mul__")],
    "exactalg.add": [("exactalg", "MPoly.__add__")],
    "exactalg.diff": [("exactalg", "MPoly.diff")],
    "exactalg.substitute": [("exactalg", "MPoly.substitute")],
    "exactalg.render": [("exactalg", "MPoly.text"), ("exactalg", "MPoly.to_json")],
    "exactalg.parse": [("exactalg", "parse")],
    "milnor.algebra": [
        ("milnor", "build_closed_algebra"),
        ("milnor", "build_extended_algebra"),
    ],
    "milnor.structure_constants": [("milnor", "structure_constants")],
    "milnor.normal_form": [("milnor", "QuotientAlgebra.normal_form")],
    "saito.flat_coords": [("saito", "flat_coords_A"), ("saito", "flat_coords_D")],
    "saito.invert_coords": [("saito", "invert_coords")],
    "saito.metric_and_potential": [("saito", "metric_and_potential")],
    "saito.verify_wdvv": [("saito", "verify_wdvv")],
    "openext.open_potential": [
        ("openext", "open_potential_A"),
        ("openext", "open_potential_D"),
    ],
    "openext.verify_open_wdvv": [("openext", "verify_open_wdvv")],
    "openext.verify_vector_potential": [("openext", "verify_vector_potential")],
    "openext.verify_extension_theorems": [("openext", "verify_extension_theorems")],
    "openext.omega": [
        ("openext", "omega_sequence"),
        ("openext", "check_coefw_lemma"),
        ("openext", "check_dn_second_derivative_identity"),
    ],
    "coxeter.potential_coxeter": [("coxeter", "potential_coxeter")],
    "coxeter.classify_I2": [("coxeter", "classify_I2")],
    "coxeter.correlator_recursion_A": [("coxeter", "correlator_recursion_A")],
    "coxeter.obstruction_check": [("coxeter", "obstruction_check")],
    "coxeter.lambda_rescale": [("coxeter", "lambda_rescale")],
    "cli": [("cli", "main")],
}

# The three verifiers whose owned term products make openext.verify.term_products.
VERIFIERS = (
    "openext.verify_open_wdvv",
    "openext.verify_vector_potential",
    "openext.verify_extension_theorems",
)

# Exact counters kept by the measure hooks below.
COUNTERS = (
    "exactalg.mul.term_products",
    "exactalg.mul.out_terms",
    "exactalg.render.bytes",
    "saito.verify_wdvv.checked",
)

# lru_cache functions whose (hits, misses) are read after the run.
CACHES = {
    "saito.frobenius_structure": ("saito", "frobenius_structure"),
    "coxeter.coxeter_structure": ("coxeter", "coxeter_structure"),
}


def _resolve(obj, path: str):
    owner = obj
    for part in path.split(".")[:-1]:
        owner = getattr(owner, part)
    return owner, path.split(".")[-1]


class Tracer:
    """Spans and counters for one request stream in one interpreter."""

    def __init__(self):
        self.stack = []  # open frames: [name, seconds covered by children]
        self.owners = []  # open non-kernel frames: [term products, span id]
        self.depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.owned = defaultdict(int)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.spans = []  # non-kernel spans: [request, id, parent id, name, t0, t1]
        self.request = -1  # index of the request being served
        self._cache_fns = {}

    # ---------- wrapping ----------

    def _wrap(self, name: str, fn, measure=None):
        stack, owners, depth = self.stack, self.owners, self.depth
        calls, self_s, incl_s, edges = self.calls, self.self_s, self.incl_s, self.edges
        owned, spans = self.owned, self.spans
        kernel = name.startswith(KERNEL)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            if not kernel:
                parent_id = owners[-1][1] if owners else None
                record = [tracer.request, len(spans), parent_id, name, 0.0, 0.0]
                spans.append(record)
                owner = [0, record[1]]
                owners.append(owner)
            depth[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                depth[name] -= 1
                if not depth[name]:
                    incl_s[name] += dt
                own = dt - frame[1]
                self_s[name] += own
                calls[name] += 1
                edge = edges[(parent, name)]
                edge[0] += 1
                edge[1] += dt
                edge[2] += own
                if stack:
                    stack[-1][1] += dt
                if not kernel:
                    owners.pop()
                    owned[name] += owner[0]
                    record[4], record[5] = t0, t1
            if measure is not None:
                measure(args, out)
            return out

        return wrapper

    def _measure_mul(self, args, out):
        a, b = args
        if type(b) is type(a):
            n = len(a.terms) * len(b.terms)
            self.counts["exactalg.mul.term_products"] += n
            self.counts["exactalg.mul.out_terms"] += len(out.terms)
            if self.owners:
                self.owners[-1][0] += n

    def _measure_render(self, args, out):
        self.counts["exactalg.render.bytes"] += len(out)

    def _measure_checked(self, args, out):
        self.counts["saito.verify_wdvv.checked"] += out.checked

    def install(self):
        """Wrap every function in SPANS wherever openwdvv binds it."""
        import openwdvv.cli  # noqa: F401  (loads every layer)

        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "openwdvv" or name.startswith("openwdvv.")
        }
        measures = {
            "exactalg.mul": self._measure_mul,
            "exactalg.render": self._measure_render,
            "saito.verify_wdvv": self._measure_checked,
        }
        for name, targets in SPANS.items():
            for modname, path in targets:
                owner, attr = _resolve(mods[f"openwdvv.{modname}"], path)
                orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                wrapped = self._wrap(name, orig, measures.get(name))
                # Rebind every alias: module globals imported by name, and
                # class attributes such as __rmul__ = __mul__.
                holders = list(mods.values())
                if isinstance(owner, type):
                    holders = [owner]
                for holder in holders:
                    for key, val in list(vars(holder).items()):
                        if val is orig:
                            setattr(holder, key, wrapped)
        for name, (modname, attr) in CACHES.items():
            self._cache_fns[name] = getattr(mods[f"openwdvv.{modname}"], attr)
        return self

    # ---------- results ----------

    def finish(self) -> dict:
        """Every layer value by metric name, plus the span tree, as JSON data.

        Span names give "<span>.calls", ".self_s", ".incl_s" and, for
        non-kernel spans, ".term_products" (the products it owns)."""
        values = {}
        for name in SPANS:
            values[f"{name}.calls"] = self.calls[name]
            values[f"{name}.self_s"] = self.self_s[name]
            values[f"{name}.incl_s"] = self.incl_s[name]
            if not name.startswith(KERNEL):
                values[f"{name}.term_products"] = self.owned[name]
        values["openext.verify.term_products"] = sum(self.owned[n] for n in VERIFIERS)
        values.update(self.counts)
        for name, fn in self._cache_fns.items():
            info = fn.cache_info()
            values[f"{name}.hits"] = info.hits
            values[f"{name}.misses"] = info.misses
        return {
            "values": values,
            "edges": [
                {"parent": p, "name": n, "calls": c, "incl_s": i, "self_s": s}
                for (p, n), (c, i, s) in sorted(
                    self.edges.items(), key=lambda kv: -kv[1][1]
                )
            ],
            "spans": self.spans,
        }
