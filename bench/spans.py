"""Spans and counters recorded by wrappers around the library's entry points.

:class:`Tracer` patches each traced name where its callers look it up (the
defining module, every ``qcproduct`` module that imported it by name, and
the package itself), records one span per call, and restores every original
on :meth:`Tracer.uninstall`.  Nothing under ``src/`` changes.

Spans live in parallel arrays (name, start, end, parent, operation id,
largest polynomial operand degree seen inside) so that a reduction with
hundreds of thousands of ``Poly`` calls stays small in memory.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter

import qcproduct  # registers every submodule in sys.modules

# (module, attribute, span name).  "Class.method" patches the class.
SPANNED = (
    ("qcproduct.field", "Field.__init__", "field.build"),
    ("qcproduct.polyring", "Poly.__mul__", "polyring.mul"),
    ("qcproduct.polyring", "Poly.__rmul__", "polyring.mul"),
    ("qcproduct.polyring", "Poly.__divmod__", "polyring.divmod"),
    ("qcproduct.polyring", "poly_egcd", "polyring.egcd"),
    ("qcproduct.polyring", "poly_gcd", "polyring.gcd"),
    ("qcproduct.cyclic", "minimal_polynomial", "cyclic.minpoly"),
    ("qcproduct.qcmodule", "rgb_pot_reduce", "qcmodule.reduce"),
    ("qcproduct.qcmodule", "reduce_vector", "qcmodule.reduce_vector"),
    ("qcproduct.product", "unreduced_product_basis", "product.direct"),
    ("qcproduct.product", "one_level_product_rgb", "product.closed"),
    ("qcproduct.oracle", "expand_to_linear", "oracle.expand"),
    ("qcproduct.oracle", "min_distance", "oracle.mindist"),
) + tuple(
    ("qcproduct.serialize", fn, "serialize")
    for fn in ("basis_to_doc", "basis_from_doc", "generating_matrix_to_doc",
               "generating_matrix_from_doc", "canonical_json")
)
COUNTED = (("qcproduct.field", "Field.mul", "field.mul_calls"),
           ("qcproduct.field", "Field.inv", "field.inv_calls"))


def _owner(module_name: str, attr: str):
    module = sys.modules[module_name]
    if "." in attr:
        cls, attr = attr.split(".")
        return getattr(module, cls), attr
    return module, attr


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.degree = array("i")
        self.counts: dict[str, int] = {}
        self.mindist: list[tuple[int, int, float]] = []  # (q, k, seconds)
        self._stack: list[int] = []
        self._op = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.degree.append(-1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def leave(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        parent = self.parent[idx]
        if parent >= 0 and self.degree[idx] > self.degree[parent]:
            self.degree[parent] = self.degree[idx]

    def root(self, name: str, op_id: int, fn, *args):
        """Run fn(*args) as the root span of one operation."""
        self._op = op_id
        idx = self.enter(self._id(name))
        try:
            return fn(*args)
        finally:
            self.leave(idx)
            self._op = -1

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        name_id = self._id(name)
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = enter(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(idx)
        return wrapper

    def _poly_wrapper(self, fn, name: str):
        name_id = self._id(name)
        enter, leave, degree = self.enter, self.leave, self.degree
        poly = qcproduct.polyring.Poly

        @functools.wraps(fn)
        def wrapper(u, v, *args, **kwargs):
            idx = enter(name_id)
            d = len(u.coeffs) - 1
            if type(v) is poly and len(v.coeffs) - 1 > d:
                d = len(v.coeffs) - 1
            degree[idx] = d
            try:
                return fn(u, v, *args, **kwargs)
            finally:
                leave(idx)
        return wrapper

    def _mindist_wrapper(self, fn, name: str):
        span = self._span_wrapper(fn, name)
        record = self.mindist

        @functools.wraps(fn)
        def wrapper(view, *args, **kwargs):
            t0 = perf_counter()
            out = span(view, *args, **kwargs)
            record.append((view.field.q, view.k, perf_counter() - t0))
            return out
        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        plan = [(m, a, n, self._count_wrapper) for m, a, n in COUNTED]
        for module_name, attr, name in SPANNED:
            if name.startswith("polyring."):
                make = self._poly_wrapper
            elif name == "oracle.mindist":
                make = self._mindist_wrapper
            else:
                make = self._span_wrapper
            plan.append((module_name, attr, name, make))
        for module_name, attr, name, make in plan:
            owner, short = _owner(module_name, attr)
            original = getattr(owner, short)
            wrapped = make(original, name)
            if isinstance(owner, type):
                targets = [owner]
            else:
                targets = [mod for key, mod in sys.modules.items()
                           if (key == "qcproduct" or key.startswith("qcproduct."))
                           and getattr(mod, short, None) is original]
            for target in targets:
                self._patched.append((target, short, original))
                setattr(target, short, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            target, short, original = self._patched.pop()
            setattr(target, short, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its child spans cover."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for idx, parent in enumerate(self.parent):
            if parent >= 0:
                out[parent] -= self.end[idx] - self.start[idx]
        return out

    def write(self, path) -> None:
        doc = {"names": self.names,
               "columns": ["name", "start", "end", "parent", "op", "degree"],
               "spans": [self.name.tolist(), self.start.tolist(),
                         self.end.tolist(), self.parent.tolist(),
                         self.op.tolist(), self.degree.tolist()],
               "counts": self.counts}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))
