"""Canonical reduction against the egcd-at-every-fold reference.

`rgb_pot_reduce` packs each row once and folds a row into a column's
pivot by the kernel's `euclid`, which runs Euclid's algorithm on the two
entries at the column and carries every quotient term along the whole
row; when the pivot divides the entry it stops after one step.  Entries
above a diagonal are reduced by the kernel's `divide` on whole rows, and
every tail is folded modulo X^m - 1 on the whole row.
`reduceref.rgb_pot_reduce` takes an egcd (`egcdref`), two cofactor
divisions and four products per entry at every fold.  Both must return
the same canonical basis over GF(2), GF(3), GF(4), GF(5) and GF(9), on
random matrices (entries up to degree 3m before the first fold, m = 1,
ell = 1, all-zero and repeated rows) and on matrices with divisors of
X^m - 1 on the diagonal scrambled by unimodular row operations, where the
pivot mostly divides the entry, some with X^m - 1 or a product of its
factors of degree m as the pivot and tails of degree m - 1 with every
coefficient nonzero.  The fixed examples reduce entries above the
diagonal by a pivot of degree 1 and then by a unit pivot with tails of
degree m - 1, which would take an entry past degree 2m if the tails were
not folded in between.  On a fixed divisor matrix the library must run
`euclid`, take fewer kernel products than the reference and no fold of a
single entry, so that the folds cannot fall back to entries unnoticed.
Neither reduction nor `reduce_vector` may fold a row at the last column,
where no entry lies right of it.
`rgb_pot_reduce` builds its result without the checks of the
`RgbPotBasis` constructor, so its matrix must be a tuple of tuples of
`Poly` that the constructor takes to an equal basis.
"""

import dataclasses
import functools
import json
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reduceref
from qcproduct import (
    GeneratingMatrix,
    Poly,
    PolyVector,
    RgbPotBasis,
    factor_xm_minus_1,
    field_of_order,
    fold_mod_xm1,
    generating_matrix_from_doc,
    polyring,
    qcmodule,
    reduce_vector,
    rgb_pot_reduce,
    x_pow_minus_one,
)

ORDERS = (2, 3, 4, 5, 9)
GOLDEN = Path(__file__).parent / "golden"


def polys(field, below):
    return st.lists(st.integers(0, field.q - 1), max_size=below).map(
        lambda codes: Poly(field, codes))


@st.composite
def random_matrices(draw):
    """Rows of entries up to degree 2m or 3m, then maybe an all-zero row
    and a repeated row."""
    field = field_of_order(draw(st.sampled_from(ORDERS)))
    ell = draw(st.integers(1, 4))
    m = draw(st.integers(1, 12))
    longest = draw(st.sampled_from((2 * m, 3 * m + 1)))
    row = st.lists(polys(field, longest), min_size=ell, max_size=ell)
    rows = draw(st.lists(row, max_size=ell + 2))
    if draw(st.booleans()):
        rows.append([Poly.zero(field)] * ell)
    if rows and draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    return GeneratingMatrix(field, ell, m, rows)


@functools.lru_cache(maxsize=None)
def _factors(q: int, m: int) -> tuple:
    return tuple(g for _, g in factor_xm_minus_1(q, m))


@st.composite
def divisor_matrices(draw):
    """Rows with a product of factors of X^m - 1 at a column and random
    entries right of it, at distinct columns, then unimodular row
    operations (adding a multiple of another row, scaling by a unit,
    swapping) with every entry folded modulo X^m - 1.  With full, each
    pivot is X^m - 1 or a product of its factors of degree m, not folded,
    and each tail entry has degree m - 1 and every coefficient nonzero."""
    q = draw(st.sampled_from(ORDERS))
    field = field_of_order(q)
    ell = draw(st.integers(1, 5))
    m = draw(st.sampled_from([m for m in range(1, 22) if m % field.p]))
    full = draw(st.booleans())
    zero, x_minus_1 = Poly.zero(field), Poly(field, [field.p - 1, 1])
    entry = st.lists(st.integers(1, q - 1), min_size=m, max_size=m).map(
        lambda codes: Poly(field, codes)) if full else polys(field, m)
    rows = []
    for col in sorted(draw(st.sets(st.integers(0, ell - 1), min_size=1))):
        d = Poly.one(field)
        for g in draw(st.lists(st.sampled_from(_factors(q, m)), max_size=4)):
            if not full or d.degree + g.degree <= m:
                d = d * g
        if full:
            d = x_pow_minus_one(field, m) if draw(st.booleans()) else \
                d * x_minus_1 ** (m - d.degree)
        tail = draw(st.lists(entry, min_size=ell - col - 1, max_size=ell - col - 1))
        rows.append([zero] * col + [d if full else fold_mod_xm1(d, m)] + tail)
    n = len(rows)
    for _ in range(draw(st.integers(0, 3 * n)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(polys(field, 3))
        unit = draw(st.integers(1, q - 1))
        rows[i] = [fold_mod_xm1((a + c * b).scale(unit), m) for a, b in zip(rows[i], rows[j])]
        rows[i], rows[j] = rows[j], rows[i]
    return GeneratingMatrix(field, ell, m, rows)


def unit_pivot_after_a_linear_one(q: int, m: int = 9) -> GeneratingMatrix:
    """Upper-triangular rows with diagonal 1, X - 1, 1 and every other
    entry of degree m - 1, ell 4: reducing row 0 by row 1 takes its entries
    at columns 2 and 3 to degree 2m - 3, and reducing it by row 2 would
    then take its entry at column 3 to degree 3m - 4, past the 2m + 1
    coefficients of a packed entry, unless the entries right of column 1
    were folded modulo X^m - 1 first."""
    f = field_of_order(q)
    one, x_minus_1, zero = Poly.one(f), Poly(f, [f.p - 1, 1]), Poly.zero(f)

    def entry(seed):
        return Poly(f, [(seed * i * i + i + 1) % q for i in range(m - 1)] + [1])

    return GeneratingMatrix(f, 4, m, [
        [one, entry(1), entry(2), entry(3)],
        [zero, x_minus_1, entry(4), entry(5)],
        [zero, zero, one, entry(6)]])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_matrices())
@example(GeneratingMatrix(field_of_order(3), 1, 1, [[Poly(field_of_order(3), [2, 0, 1])]] * 2))
@example(GeneratingMatrix(field_of_order(4), 1, 1, [[Poly.zero(field_of_order(4))]]))
def test_random_matrices_reduce_as_the_reference_does(gen):
    assert rgb_pot_reduce(gen) == reduceref.rgb_pot_reduce(gen)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(divisor_matrices())
@example(unit_pivot_after_a_linear_one(2))
@example(unit_pivot_after_a_linear_one(3))
@example(unit_pivot_after_a_linear_one(4))
def test_scrambled_divisor_matrices_reduce_as_the_reference_does(gen):
    assert rgb_pot_reduce(gen) == reduceref.rgb_pot_reduce(gen)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(random_matrices(), divisor_matrices()))
def test_reduction_builds_the_basis_its_constructor_builds(gen):
    out = rgb_pot_reduce(gen)
    assert type(out.matrix) is tuple
    assert all(type(row) is tuple and all(type(p) is Poly for p in row) for row in out.matrix)
    assert out == RgbPotBasis(gen.field, gen.ell, gen.m, out.matrix)


def test_divisor_matrix_takes_fewer_products_than_the_reference(monkeypatch):
    gen = generating_matrix_from_doc(
        json.loads((GOLDEN / "matrix_divisors_gf2.json").read_text()))
    calls = {"mul": 0, "euclid": 0, "fold": 0}

    def counted(name):
        op = getattr(polyring._GF2, name)

        def call(*args):
            calls[name] += 1
            return op(*args)
        return call

    monkeypatch.setattr(polyring, "_GF2", dataclasses.replace(
        polyring._GF2, **{name: counted(name) for name in calls}))
    want = reduceref.rgb_pot_reduce(gen)
    by_reference = calls["mul"]
    assert by_reference == 216
    calls.update(mul=0, euclid=0, fold=0)
    assert rgb_pot_reduce(gen) == want
    assert calls["euclid"] >= 1
    assert calls["mul"] < by_reference
    assert calls["fold"] == 0  # every entry of the document is below degree m


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(random_matrices(), divisor_matrices()))
def test_no_fold_of_an_empty_tail(gen):
    tails = []

    def kernel(f):
        k = polyring._kernel(f)

        def fold_row(f, a, n, m, w):
            tails.append(n)
            return k.fold_row(f, a, n, m, w)
        return dataclasses.replace(k, fold_row=fold_row)

    with mock.patch.object(qcmodule, "_kernel", kernel):
        out = rgb_pot_reduce(gen)
        for row in gen.rows:
            reduce_vector(out, PolyVector([fold_mod_xm1(e, gen.m) for e in row], gen.m))
    assert out == reduceref.rgb_pot_reduce(gen)
    assert 0 not in tails
