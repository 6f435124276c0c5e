"""Traced passes over one round of a workload and the per-layer metrics
read from their spans.

In a traced pass every operation runs under a root span ``op`` (operation
id i), then its output check runs under a root span ``check`` (operation id
n + i).  Layer times are per operation: the time spent in a layer's spans
over the n operations, divided by n.  ``qcmodule.reduce_vector`` runs only
inside output checks, so its time is read from the ``check`` spans.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

from spans import Tracer
from workloads import run_op


class TracedRun:
    def __init__(self, tracer: Tracer, n_ops: int, op_counts: dict, wall: float):
        self.tracer = tracer
        self.n_ops = n_ops
        self.op_counts = op_counts
        self.wall = wall

    def self_time_residual(self) -> float:
        """Largest gap, over the operations, between the sum of the self
        times of an operation's spans and its root span's duration."""
        tr = self.tracer
        total = defaultdict(float)
        root = {}
        for idx, own in enumerate(tr.self_times()):
            op = tr.op[idx]
            total[op] += own
            if tr.parent[idx] < 0:
                root[op] = tr.end[idx] - tr.start[idx]
        return max(abs(total[op] - root[op]) for op in root)

    def metrics(self) -> dict:
        """Per-layer values; None where the layer never ran, so that the
        caller can take the value from another workload."""
        tr, n = self.tracer, self.n_ops
        count = defaultdict(int)
        incl = defaultdict(float)
        own = defaultdict(float)
        degree = defaultdict(lambda: -1)
        for idx, self_time in enumerate(tr.self_times()):
            name_id = tr.name[idx]
            key = (tr.names[name_id], tr.op[idx] >= n)
            count[key] += 1
            own[key] += self_time
            parent = tr.parent[idx]
            if parent < 0 or tr.name[parent] != name_id:
                incl[key] += tr.end[idx] - tr.start[idx]
            degree[key] = max(degree[key], tr.degree[idx])

        def per_op_ms(name, table=incl, in_check=False):
            key = (name, in_check)
            return table[key] / n * 1e3 if count[key] else None

        polyring = [k for k in list(count) if k[0].startswith("polyring.") and not k[1]]
        out = {
            "field.mul_calls": self.op_counts.get("field.mul_calls", 0),
            "polyring.mul_calls": count[("polyring.mul", False)],
            "polyring.egcd_calls": count[("polyring.egcd", False)],
            "polyring.max_degree": max((degree[k] for k in polyring), default=None),
            "polyring.self_ms": sum(own[k] for k in polyring) / n * 1e3 if polyring else None,
            "cyclic.minpoly_ms": per_op_ms("cyclic.minpoly"),
            "cyclic.minpoly_calls": count[("cyclic.minpoly", False)],
            "qcmodule.reduce_ms": per_op_ms("qcmodule.reduce"),
            "qcmodule.reduce_self_ms": per_op_ms("qcmodule.reduce", own),
            "qcmodule.reduce_calls": count[("qcmodule.reduce", False)],
            "qcmodule.reduce_max_degree": (degree[("qcmodule.reduce", False)]
                                           if count[("qcmodule.reduce", False)] else None),
            "qcmodule.reduce_vector_ms": per_op_ms("qcmodule.reduce_vector", in_check=True),
            "product.direct_ms": per_op_ms("product.direct"),
            "product.closed_ms": per_op_ms("product.closed"),
            "oracle.expand_ms": per_op_ms("oracle.expand"),
            "oracle.mindist_ms": per_op_ms("oracle.mindist"),
            "serialize.ms": per_op_ms("serialize"),
        }
        codewords, seconds = defaultdict(int), defaultdict(float)
        for q, k, elapsed in tr.mindist:
            codewords[q] += q ** k - 1
            seconds[q] += elapsed
        for q in (2, 3, 4, 9):
            out[f"oracle.codewords_per_s.gf{q}"] = (
                codewords[q] / seconds[q] if seconds[q] else None)
        return out


def traced_pass(wl, inputs, failures=None) -> TracedRun:
    """Run the inputs once under the tracer; with a failures tally, also
    run and count the output checks (traced, under ``check`` roots)."""
    tracer = Tracer()
    try:
        tracer.install()
        outputs = []
        t0 = perf_counter()
        for i, x in enumerate(inputs):
            try:
                outputs.append(tracer.root("op", i, wl.op, x))
            except Exception as exc:  # counted below; the pass goes on
                outputs.append(exc)
        wall = perf_counter() - t0
        op_counts = dict(tracer.counts)
        if failures is not None:
            for i, (x, out) in enumerate(zip(inputs, outputs)):
                if isinstance(out, Exception):
                    failures.record(False, f"{wl.name} traced op", out)
                    continue
                try:
                    ok = bool(tracer.root("check", len(inputs) + i, wl.check, x, out))
                    failures.record(ok, f"{wl.name} traced check")
                except Exception as exc:
                    failures.record(False, f"{wl.name} traced check", exc)
    finally:
        tracer.uninstall()
    return TracedRun(tracer, len(inputs), op_counts, wall)


def _untraced_pass(wl, inputs, failures) -> float:
    t0 = perf_counter()
    for x in inputs:
        try:
            wl.op(x)
        except Exception as exc:
            failures.record(False, f"{wl.name} untraced op", exc)
    return perf_counter() - t0


def traced_and_untraced(wl, inputs, seconds: float, failures):
    """Alternate untraced and traced passes over the same inputs until the
    time is up (one pair at least), after one checked warm-up pass.
    Returns the first traced run, the tracing overhead (median traced over
    median untraced wall time, minus 1) and the number of pairs."""
    for x in inputs:
        run_op(wl, x, failures)
    untraced, traced, first = [], [], None
    deadline = perf_counter() + seconds
    while first is None or perf_counter() < deadline:
        untraced.append(_untraced_pass(wl, inputs, failures))
        run = traced_pass(wl, inputs, failures if first is None else None)
        traced.append(run.wall)
        first = first or run
    return first, statistics.median(traced) / statistics.median(untraced) - 1, len(traced)
