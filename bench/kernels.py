"""Layer pass sections that do not depend on the workload: field and
polynomial kernels on seeded operands, field construction, and the import
profile of a fresh interpreter.

Each kernel result is checked against an identity, (a*b)*b^-1 = a for
fields, q*d + r = u for division and s*u + t*v = g for the extended gcd, and
a failed identity counts as a failed operation in the ``failures`` tally
(any object with ``record(ok)``).
"""

from __future__ import annotations

import os
import random
import re
import statistics
import subprocess
import sys
from time import perf_counter

import qcproduct as qc

KERNEL_FIELDS = {"gf2": 2, "gf3": 3, "gf4": 4, "gf9": 9, "gf81": 81, "gf256": 256}
POLY_CASES = {"d255.gf2": (255, 2), "d1023.gf2": (1023, 2), "d255.gf256": (255, 256)}
BUILD_FIELDS = {"gf2": 2, "gf3": 3, "gf4": 4, "gf9": 9}
FIELD_OPERANDS = 2000
FIELD_REPEATS = 5
POLY_REPEATS = 3
BUILD_REPEATS = 200
IMPORT_RUNS = 5


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def field_kernels(rng: random.Random, failures) -> dict:
    out = {}
    for label, q in KERNEL_FIELDS.items():
        f = qc.field_of_order(q)
        pairs = [(rng.randrange(q), rng.randrange(1, q)) for _ in range(FIELD_OPERANDS)]
        products = [f.mul(a, b) for a, b in pairs]
        inverses = [f.inv(b) for _, b in pairs]
        failures.record(all(f.mul(ab, b_inv) == a for (a, _), ab, b_inv
                            in zip(pairs, products, inverses)))

        def mul_loop():
            for a, b in pairs:
                f.mul(a, b)

        def inv_loop():
            for _, b in pairs:
                f.inv(b)

        out[f"field.mul_ns.{label}"] = _median_time(mul_loop, FIELD_REPEATS) / len(pairs) * 1e9
        out[f"field.inv_ns.{label}"] = _median_time(inv_loop, FIELD_REPEATS) / len(pairs) * 1e9
    return out


def poly_kernels(rng: random.Random, failures) -> dict:
    out = {}
    for label, (degree, q) in POLY_CASES.items():
        f = qc.field_of_order(q)

        def rand(deg):
            return qc.Poly(f, [rng.randrange(q) for _ in range(deg)]
                           + [rng.randrange(1, q)])

        u, v, w = rand(degree), rand(degree), rand(2 * degree)
        results = {}

        def mul():
            results["mul"] = u * v

        def div():
            results["divmod"] = divmod(w, v)

        def egcd():
            results["egcd"] = qc.poly_egcd(u, v)

        for name, fn in (("mul", mul), ("divmod", div), ("egcd", egcd)):
            out[f"polyring.{name}_ms.{label}"] = _median_time(fn, POLY_REPEATS) * 1e3
        quot, rem = results["divmod"]
        g, s, t = results["egcd"]
        failures.record(results["mul"].degree == 2 * degree
                        and results["mul"] // v == u)
        failures.record(quot * v + rem == w and rem.degree < v.degree)
        failures.record(s * u + t * v == g and g.is_monic
                        and (u % g).is_zero and (v % g).is_zero)
    return out


def _clear_field_caches() -> None:
    """Empty every lru_cache in the field and cyclic modules, so that the
    next field_of_order builds the field from scratch."""
    for module in (qc.field, qc.cyclic):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def field_builds(failures) -> dict:
    out = {}
    for label, q in BUILD_FIELDS.items():
        def build():
            _clear_field_caches()
            return qc.field_of_order(q)

        failures.record(build().q == q)
        out[f"field.build_ms.{label}"] = _median_time(build, BUILD_REPEATS) * 1e3
    _clear_field_caches()
    return out


_IMPORT_LINE = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|\s*(\S+)\s*$")


def import_profile(src: str, failures) -> dict:
    """Cumulative import time of qcproduct and of numpy, from
    ``python -X importtime`` in fresh interpreters launched one at a time."""
    env = dict(os.environ, PYTHONPATH=src)
    totals = {"qcproduct": [], "numpy": []}
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qcproduct"],
                              env=env, capture_output=True, text=True, timeout=60)
        seen = {}
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m and m.group(2) in totals:
                seen[m.group(2)] = int(m.group(1))
        failures.record(proc.returncode == 0 and "qcproduct" in seen)
        for name, micros in seen.items():
            totals[name].append(micros / 1e3)
    # numpy may leave the import path one day; its share is then zero
    return {"setup.import_ms": statistics.median(totals["qcproduct"] or [0.0]),
            "setup.numpy_import_ms": statistics.median(totals["numpy"] or [0.0])}
