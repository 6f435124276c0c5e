"""Canonical reduction against the egcd-at-every-fold reference.

`rgb_pot_reduce` folds a row into a column's pivot by the kernel's
`euclid`, which runs Euclid's algorithm on the two entries at the column
and carries every quotient term along the whole row; when the pivot
divides the entry it stops after one step.  `reduceref.rgb_pot_reduce`
takes an egcd (`egcdref`), two cofactor divisions and four products per
entry at every fold.  Both must return the same canonical basis over
GF(2), GF(3), GF(4), GF(5) and GF(9), on random matrices and on matrices
with divisors of X^m - 1 on the diagonal scrambled by unimodular row
operations, where the pivot mostly divides the entry.  On a fixed divisor
matrix the library must run `euclid` and take fewer kernel products than
the reference, so that the folds cannot fall back to products unnoticed.
"""

import dataclasses
import functools
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import reduceref
from qcproduct import (
    GeneratingMatrix,
    Poly,
    factor_xm_minus_1,
    field_of_order,
    fold_mod_xm1,
    generating_matrix_from_doc,
    polyring,
    rgb_pot_reduce,
)

ORDERS = (2, 3, 4, 5, 9)
GOLDEN = Path(__file__).parent / "golden"


def polys(field, below):
    return st.lists(st.integers(0, field.q - 1), max_size=below).map(
        lambda codes: Poly(field, codes))


@st.composite
def random_matrices(draw):
    field = field_of_order(draw(st.sampled_from(ORDERS)))
    ell = draw(st.integers(1, 4))
    m = draw(st.integers(1, 12))
    row = st.lists(polys(field, 2 * m), min_size=ell, max_size=ell)
    return GeneratingMatrix(field, ell, m, draw(st.lists(row, max_size=ell + 2)))


@functools.lru_cache(maxsize=None)
def _factors(q: int, m: int) -> tuple:
    return tuple(g for _, g in factor_xm_minus_1(q, m))


@st.composite
def divisor_matrices(draw):
    """Rows with a product of factors of X^m - 1 at a column and random
    entries right of it, at distinct columns, then unimodular row
    operations (adding a multiple of another row, scaling by a unit,
    swapping) with every entry folded modulo X^m - 1."""
    q = draw(st.sampled_from(ORDERS))
    field = field_of_order(q)
    ell = draw(st.integers(1, 5))
    m = draw(st.sampled_from([m for m in range(1, 22) if m % field.p]))
    zero = Poly.zero(field)
    rows = []
    for col in sorted(draw(st.sets(st.integers(0, ell - 1), min_size=1))):
        d = Poly.one(field)
        for g in draw(st.lists(st.sampled_from(_factors(q, m)), max_size=4)):
            d = d * g
        tail = draw(st.lists(polys(field, m), min_size=ell - col - 1, max_size=ell - col - 1))
        rows.append([zero] * col + [fold_mod_xm1(d, m)] + tail)
    n = len(rows)
    for _ in range(draw(st.integers(0, 3 * n)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(polys(field, 3))
        unit = draw(st.integers(1, q - 1))
        rows[i] = [fold_mod_xm1((a + c * b).scale(unit), m) for a, b in zip(rows[i], rows[j])]
        rows[i], rows[j] = rows[j], rows[i]
    return GeneratingMatrix(field, ell, m, rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_matrices())
def test_random_matrices_reduce_as_the_reference_does(gen):
    assert rgb_pot_reduce(gen) == reduceref.rgb_pot_reduce(gen)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(divisor_matrices())
def test_scrambled_divisor_matrices_reduce_as_the_reference_does(gen):
    assert rgb_pot_reduce(gen) == reduceref.rgb_pot_reduce(gen)


def test_divisor_matrix_takes_fewer_products_than_the_reference(monkeypatch):
    gen = generating_matrix_from_doc(
        json.loads((GOLDEN / "matrix_divisors_gf2.json").read_text()))
    calls = {"mul": 0, "euclid": 0}

    def counted(name):
        op = getattr(polyring._GF2, name)

        def call(*args):
            calls[name] += 1
            return op(*args)
        return call

    monkeypatch.setattr(polyring, "_GF2", dataclasses.replace(
        polyring._GF2, mul=counted("mul"), euclid=counted("euclid")))
    want = reduceref.rgb_pot_reduce(gen)
    by_reference = calls["mul"]
    calls.update(mul=0, euclid=0)
    assert rgb_pot_reduce(gen) == want
    assert calls["euclid"] >= 1
    assert calls["mul"] < by_reference
