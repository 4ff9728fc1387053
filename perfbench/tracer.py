"""Spans around the public functions of each mipverify module.

``install()`` replaces each target below with a wrapper that records one
span per call: layer name, start and end (``perf_counter_ns``), the index of
the enclosing span, and the call's counters.  A function is replaced where
it is defined and at every other module binding of the same object (the
``from ... import`` copies), and a method on its class, so calls made
through any name are seen.  Spans stay in memory until ``Tracer.dump``.

Nothing here is wrapped that runs more than about 10^5 times in one
invocation: the scalar ``AmbientDescriptor.mul`` runs 1.5 million times in
``family --n 6 --m 5 --k 4`` and is left alone (``groups.closure.elements``
stands in for its work).  ``layer_metrics`` turns one invocation's spans
into the per-layer metrics that ``run.py`` reports.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from typing import Any, Callable, Optional


def _closure_counts(args, before, result):
    return {"groups.closure.elements": result.order}


def _table_before(args):
    return args[0]._table is None


def _table_counts(args, built, result):
    return {"groups.cayley_table.builds": int(built),
            "groups.cayley_table.bytes": int(result.nbytes) if built else 0}


def _rows_counts(args, before, result):
    return {"ambient.rows_mul.rows": int(result.shape[0])}


def _mul_counts(args, before, result):
    a, b = args
    return {"algebra.mul.terms": min(a.support_size(), b.support_size())}


def _fpmatrix_layer(args) -> str:
    return "algebra.fpmatrix_p2" if args[0].p == 2 else "algebra.fpmatrix_odd"


def _add_row_counts(args, before, result):
    layer = _fpmatrix_layer(args)
    return {layer + ".rows": 1, layer + ".pivots": int(bool(result))}


def _unit_closure_counts(args, before, result):
    return {"witness.unit_closure.elements": result.order}


def _json_counts(args, before, result):
    return {"report.bytes": len(result)}


def _export_counts(args, before, result):
    outdir = args[1]
    return {"export.bytes": sum(os.path.getsize(os.path.join(outdir, name))
                                for name in result)}


# (module, function or Class.method, layer, counters, before).  The layer is
# a name, or a function of the call's arguments for FpMatrix, whose layer
# depends on the prime.  ``counters(args, before, result)`` gives the call's
# counters, where ``before`` is ``before(args)`` taken just ahead of the call.
TARGETS: list[tuple[str, str, Any, Optional[Callable], Optional[Callable]]] = [
    ("groups", "closure", "groups.closure", _closure_counts, None),
    ("groups", "FiniteGroup.cayley_table", "groups.cayley_table",
     _table_counts, _table_before),
    ("groups", "FiniteGroup.element_orders", "groups.element_orders", None, None),
    ("groups", "maximal_subgroups", "groups.maximal_subgroups", None, None),
    ("groups", "frattini", "groups.frattini", None, None),
    ("groups", "derived_subgroup", "groups.derived_subgroup", None, None),
    ("groups", "subgroup_from_elements", "groups.subgroup_from_elements",
     None, None),
    ("groups", "centralizer_mod", "groups.centralizer_mod", None, None),
    ("groups", "conjugacy_classes", "groups.conjugacy_classes", None, None),
    ("groups", "jennings_series", "groups.jennings_series", None, None),
    ("ambient", "AmbientDescriptor.mul_rows", "ambient.rows_mul",
     _rows_counts, None),
    ("ambient", "AmbientDescriptor.mul_cols", "ambient.rows_mul",
     _rows_counts, None),
    ("isomorphism", "isomorphic_bruteforce",
     "isomorphism.isomorphic_bruteforce", None, None),
    ("isomorphism", "find_presentation_witness",
     "isomorphism.find_presentation_witness", None, None),
    ("family", "build_family", "family.build_family", None, None),
    ("family", "verify_structure", "family.verify_structure", None, None),
    ("family", "compare_variants", "family.compare_variants", None, None),
    ("algebra", "AlgebraElement.__mul__", "algebra.mul", _mul_counts, None),
    ("algebra", "FpMatrix.add_row", _fpmatrix_layer, _add_row_counts, None),
    ("algebra", "FpMatrix.membership", _fpmatrix_layer, None, None),
    ("algebra", "GroupAlgebra.aug_ideal_power_basis",
     "algebra.aug_ideal_power_basis", None, None),
    ("algebra", "GroupAlgebra.class_sums", "algebra.class_sums", None, None),
    ("algebra", "unit_order", "algebra.unit_order", None, None),
    ("witness", "unit_closure", "witness.unit_closure",
     _unit_closure_counts, None),
    ("witness", "verify_witness", "witness.verify_witness", None, None),
    ("invariants", "ideal_subring_dim", "invariants.ideal_subring_dim",
     None, None),
    ("invariants", "compute_N", "invariants.compute_N", None, None),
    ("invariants", "invariant_report", "invariants.invariant_report",
     None, None),
    ("report", "canonical_json", "report.canonical_json", _json_counts, None),
    ("export", "write_exports", "export.write_exports", _export_counts, None),
    ("cli", "main", "cli.main", None, None),
]

# Every per-layer metric, with its unit.  ``<layer>.s`` is self time and
# ``<layer>.calls`` the number of spans; the rest are counters above.
LAYER_METRICS: dict[str, str] = {}
for _name in ("groups.closure.s", "groups.closure.calls",
              "groups.closure.elements",
              "groups.cayley_table.s", "groups.cayley_table.builds",
              "groups.cayley_table.bytes",
              "groups.element_orders.s", "groups.maximal_subgroups.s",
              "groups.frattini.s", "groups.derived_subgroup.s",
              "groups.subgroup_from_elements.s", "groups.centralizer_mod.s",
              "groups.conjugacy_classes.s", "groups.jennings_series.s",
              "ambient.rows_mul.s", "ambient.rows_mul.calls",
              "ambient.rows_mul.rows",
              "isomorphism.isomorphic_bruteforce.s",
              "isomorphism.isomorphic_bruteforce.calls",
              "isomorphism.find_presentation_witness.s",
              "family.build_family.s", "family.verify_structure.s",
              "family.compare_variants.s",
              "algebra.mul.s", "algebra.mul.calls", "algebra.mul.terms",
              "algebra.fpmatrix_p2.s", "algebra.fpmatrix_p2.rows",
              "algebra.fpmatrix_p2.pivots",
              "algebra.fpmatrix_odd.s", "algebra.fpmatrix_odd.rows",
              "algebra.fpmatrix_odd.pivots",
              "algebra.aug_ideal_power_basis.s", "algebra.class_sums.s",
              "algebra.unit_order.s",
              "witness.unit_closure.s", "witness.unit_closure.elements",
              "witness.verify_witness.s",
              "invariants.ideal_subring_dim.s", "invariants.compute_N.s",
              "invariants.invariant_report.s",
              "report.canonical_json.s", "report.bytes",
              "export.write_exports.s", "export.bytes", "cli.main.s"):
    if _name.endswith(".s"):
        LAYER_METRICS[_name] = "s"
    elif _name.endswith("bytes"):
        LAYER_METRICS[_name] = "B"
    else:
        LAYER_METRICS[_name] = "count"


class Tracer:
    """Process-local span recorder; one instance per traced invocation."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        # each span: [layer, start_ns, end_ns, parent index or -1, counters]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn: Callable, layer, counters: Optional[Callable],
             before: Optional[Callable]) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer if isinstance(layer, str) else layer(args)
            state = before(args) if before is not None else None
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counters is not None:
                span[4] = counters(args, state, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at its definition and at every binding of it."""
        modules = {name: importlib.import_module("mipverify." + name)
                   for name in {t[0] for t in TARGETS}}
        package = [m for name, m in sys.modules.items()
                   if name == "mipverify" or name.startswith("mipverify.")]
        for modname, attr, layer, counters, before in TARGETS:
            owner_name, _, fname = attr.rpartition(".")
            owner = (getattr(modules[modname], owner_name) if owner_name
                     else modules[modname])
            original = owner.__dict__[fname]
            wrapped = self.wrap(original, layer, counters, before)
            setattr(owner, fname, wrapped)
            if owner_name:
                continue
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"trace_id": self.trace_id, "spans": self.spans}, fh)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Self time, span count and counter sums per layer for one invocation.

    Self time is a span's duration minus the durations of its direct child
    spans, which lie inside it and do not overlap, so it is never negative.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    self_ns: dict[str, int] = {}
    out: dict[str, float] = {name: 0 for name in LAYER_METRICS}
    for i, (name, start, end, parent, counters) in enumerate(spans):
        self_ns[name] = self_ns.get(name, 0) + end - start - child_ns[i]
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        for key, value in (counters or {}).items():
            out[key] = out.get(key, 0) + value
    for name, ns in self_ns.items():
        out[name + ".s"] = ns / 1e9
    return {name: out[name] for name in LAYER_METRICS}
