"""The three benchmark workloads: seeded input generators, the timed
operation, and the output check of each.

A workload is a list of cells read from ``spec.json``.  One round draws
every cell's inputs once and runs them in an order the seed shuffles; the
seed also draws each cell's random content.  Only ``op`` is timed.
``make`` builds a cell's inputs (one or more operations) before the clock
starts and ``check`` judges each output after it stops, so the library
receives nothing but generated inputs and the checks cost no measured
time.

Every library call goes through the ``qcproduct`` package attribute, so the
wrappers that the traced pass installs there are seen.  ``run_op`` times
one operation and checks it; an exception or a failed check is counted in
``Failures`` and never stops the run.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import random
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import qcproduct as qc

SPEC = json.loads((Path(__file__).with_name("spec.json")).read_text())


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple
    fields: tuple
    tail_percentile_max: float
    make: Callable[[Any, random.Random], Any]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]


# ---------------------------------------------------------------------------
# shared generators
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _cosets(q: int, m: int) -> tuple:
    """(representative, size) of every cyclotomic coset of q modulo m."""
    seen, out = set(), []
    for i in range(m):
        if i not in seen:
            coset = qc.cyclotomic_coset(q, m, i)
            seen.update(coset)
            out.append((i, len(coset)))
    return tuple(out)


def _proper_subset(q: int, m: int, rng: random.Random) -> tuple:
    """Coset representatives whose minimal polynomials multiply to a
    divisor of X^m-1 of degree strictly between 0 and m."""
    cosets = _cosets(q, m)
    while True:
        picked = [(i, s) for i, s in cosets if rng.random() < 0.5]
        if 0 < sum(s for _, s in picked) < m:
            return tuple(i for i, _ in picked)


def _subset_of_degree(q: int, m: int, degree: int, rng: random.Random) -> tuple:
    """A uniformly drawn set of coset representatives whose sizes sum to
    the given degree."""
    cosets = _cosets(q, m)
    choices = [combo for r in range(len(cosets) + 1)
               for combo in itertools.combinations(cosets, r)
               if sum(s for _, s in combo) == degree]
    if not choices:
        raise ValueError(f"no divisor of X^{m}-1 over GF({q}) has degree {degree}")
    return tuple(i for i, _ in rng.choice(choices))


def _divisor(q: int, m: int, reps) -> "qc.Poly":
    g = qc.Poly.one(qc.field_of_order(q))
    for i in reps:
        g = g * qc.minimal_polynomial(q, m, i)
    return g


def _random_poly(field, below: int, rng: random.Random) -> "qc.Poly":
    return qc.Poly(field, [rng.randrange(field.q) for _ in range(below)])


# ---------------------------------------------------------------------------
# product: the 1-level product built by both routes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductInput:
    q: int
    ell_a: int
    m_a: int
    m_b: int
    reps_a: tuple
    reps_b: tuple
    multipliers: tuple


def make_product(cell, rng: random.Random) -> list:
    q, ell_a, m_a, m_b = cell
    return [ProductInput(
        q, ell_a, m_a, m_b,
        _proper_subset(q, m_a, rng), _proper_subset(q, m_b, rng),
        tuple(tuple(rng.randrange(q) for _ in range(m_a)) for _ in range(ell_a - 1)))]


def op_product(x: ProductInput):
    field = qc.field_of_order(x.q)
    row_code = qc.OneLevelCode(_divisor(x.q, x.m_a, x.reps_a),
                               [qc.Poly(field, f) for f in x.multipliers],
                               x.ell_a, x.m_a)
    column_code = qc.cyclic_code_new(x.m_b, _divisor(x.q, x.m_b, x.reps_b))
    params = qc.bezout_pair(x.ell_a, x.m_a, x.m_b)
    closed = qc.one_level_product_rgb(row_code, column_code, params).basis()
    direct = qc.rgb_pot_reduce(
        qc.unreduced_product_basis(row_code.basis(), column_code, params))
    text = qc.canonical_json(qc.basis_to_doc(direct))
    parsed = qc.basis_from_doc(json.loads(text))
    return closed, direct, parsed, text


def check_product(x: ProductInput, out) -> bool:
    closed, direct, parsed, text = out
    return (closed.matrix == direct.matrix
            and qc.is_rgb_pot(direct)[0]
            and parsed == direct
            and qc.canonical_json(qc.basis_to_doc(closed)) == text)


# ---------------------------------------------------------------------------
# reduce: canonical reduction of one generating matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReduceInput:
    """One of two twin operations drawn together: the drawn matrix and a
    row-scrambled copy of it generate the same module, so both must reduce
    to the same canonical basis.  Each twin is timed as its own operation;
    ``first`` is shared by the twins and holds the first output that passed
    its own checks, which is the reference for the other twin's check."""
    gen: "qc.GeneratingMatrix"
    rows: tuple  # the drawn matrix's rows, which must reduce to zero
    first: list = dataclasses.field(compare=False)


def _scramble(rows, m: int, rng: random.Random) -> list:
    """Apply random unimodular row operations (row_i += c*row_j with
    deg c <= 2, then a permutation) and fold every entry mod X^m-1; the
    module together with (X^m-1)e_j does not change."""
    field = rows[0][0].field
    xm1 = qc.x_pow_minus_one(field, m)
    rows = [list(r) for r in rows]
    for _ in range(2 * len(rows)):
        i, j = rng.sample(range(len(rows)), 2)
        c = _random_poly(field, 3, rng)
        rows[i] = [(a + c * b) % xm1 for a, b in zip(rows[i], rows[j])]
    rng.shuffle(rows)
    return rows


def make_reduce(cell, rng: random.Random) -> list:
    q, ell, m, kind = cell
    field = qc.field_of_order(q)
    zero = qc.Poly.zero(field)
    if kind == "full":
        rows = [[_random_poly(field, m, rng) for _ in range(ell)]
                for _ in range(ell)]
    else:
        pivots = sorted(rng.sample(range(ell), rng.randrange(2, ell)))
        rows = [[zero] * col + [_divisor(q, m, _proper_subset(q, m, rng))]
                + [_random_poly(field, m, rng) for _ in range(ell - col - 1)]
                for col in pivots]
        rows = _scramble(rows, m, rng)
    rows = tuple(tuple(r) for r in rows)
    first = []
    return [ReduceInput(qc.GeneratingMatrix(field, ell, m, matrix), rows, first)
            for matrix in (rows, _scramble(rows, m, rng))]


def op_reduce(x: ReduceInput):
    return qc.rgb_pot_reduce(x.gen)


def check_reduce(x: ReduceInput, out) -> bool:
    m = x.gen.m
    ok = (qc.is_rgb_pot(out)[0]
          and all(qc.reduce_vector(out, qc.PolyVector(row, m)).is_zero
                  for row in x.rows))
    if not ok:
        return False
    if not x.first:
        x.first.append(out)
    return x.first[0].matrix == out.matrix


# ---------------------------------------------------------------------------
# mindist: exhaustive distances of A, B and their product
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MindistInput:
    bases: tuple  # row code A, column code B, product


def make_mindist(cell, rng: random.Random) -> list:
    q, ell_a, m_a, m_b, k_a, k_b = cell
    field = qc.field_of_order(q)
    g_a = _divisor(q, m_a, _subset_of_degree(q, m_a, m_a - k_a, rng))
    g_b = _divisor(q, m_b, _subset_of_degree(q, m_b, m_b - k_b, rng))
    row_code = qc.OneLevelCode(
        g_a, [_random_poly(field, m_a, rng) for _ in range(ell_a - 1)],
        ell_a, m_a)
    column_code = qc.cyclic_code_new(m_b, g_b)
    params = qc.bezout_pair(ell_a, m_a, m_b)
    product = qc.one_level_product_rgb(row_code, column_code, params)
    return [MindistInput((row_code.basis(),
                          qc.RgbPotBasis(field, 1, m_b, [[g_b]]),
                          product.basis()))]


def op_mindist(x: MindistInput):
    return tuple(qc.min_distance(qc.expand_to_linear(b), workers=1)
                 for b in x.bases)


def check_mindist(x: MindistInput, out) -> bool:
    d_a, d_b, d_product = out
    return d_product == d_a * d_b


# ---------------------------------------------------------------------------

def _workload(name, make, op, check) -> Workload:
    spec = SPEC["workloads"][name]
    return Workload(name, tuple(tuple(c) for c in spec["cells"]),
                    tuple(spec["fields"]), spec["tail_percentile_max"],
                    make, op, check)


WORKLOADS = {
    "product": _workload("product", make_product, op_product, check_product),
    "reduce": _workload("reduce", make_reduce, op_reduce, check_reduce),
    "mindist": _workload("mindist", make_mindist, op_mindist, check_mindist),
}


def round_inputs(wl: Workload, rng: random.Random) -> list:
    """One round: the operations drawn for every cell, shuffled, as
    (cell, input) pairs."""
    pairs = [(cell, x) for cell in wl.cells for x in wl.make(cell, rng)]
    rng.shuffle(pairs)
    return pairs


class Failures:
    """Operations attempted and failed; prints the first few tracebacks."""

    SHOWN = 3

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str = "", exc: BaseException | None = None):
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if self.failed <= self.SHOWN:
            print(f"bench: failed {what}", file=sys.stderr)
            if exc is not None:
                traceback.print_exception(exc, file=sys.stderr)


def run_op(wl, x, failures: Failures):
    """Time one operation, then check it.  Returns the seconds spent in
    the operation, or None when it raised."""
    t0 = perf_counter()
    try:
        out = wl.op(x)
    except Exception as exc:  # counted in fail_ratio; the loop goes on
        failures.record(False, f"{wl.name} op on {x!r:.200}", exc)
        return None
    elapsed = perf_counter() - t0
    try:
        ok, exc = bool(wl.check(x, out)), None
    except Exception as caught:
        ok, exc = False, caught
    failures.record(ok, "" if ok else f"{wl.name} check on {x!r:.200}", exc)
    return elapsed
