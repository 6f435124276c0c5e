"""Canonical reduction checked against plain linear algebra.

The code generated by a matrix G is spanned over GF(q) by the serialized
shifts X^t * row mod X^m - 1 of its explicit rows (the (X^m-1)e_j rows
serialize to zero).  The RREF of those shifts is unique per code, so it must
equal the RREF of the expanded canonical basis, whatever the input rows look
like: unreduced entries, dependent rows, or a unimodular scramble of them.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcproduct import (
    GeneratingMatrix,
    Poly,
    PolyVector,
    expand_to_linear,
    field_new,
    fold_mod_xm1,
    is_rgb_pot,
    reduce_vector,
    rgb_pot_reduce,
)
from paper_maps import span_rref
from rref import _rref

FIELDS = {2: field_new(2), 3: field_new(3), 4: field_new(2, 2), 5: field_new(5)}


def polys(field, max_degree):
    return st.lists(st.integers(0, field.q - 1), max_size=max_degree + 1).map(
        lambda codes: Poly(field, codes))


@st.composite
def generating_matrices(draw):
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    ell = draw(st.integers(1, 4))
    m = draw(st.integers(1, 12))
    row = st.lists(polys(field, 2 * m), min_size=ell, max_size=ell)
    return GeneratingMatrix(field, ell, m, draw(st.lists(row, max_size=ell + 1)))


def canonical_rref(gen):
    return _rref(gen.field, expand_to_linear(rgb_pot_reduce(gen)).matrix)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(generating_matrices())
def test_canonical_basis_spans_the_generated_code(gen):
    assert canonical_rref(gen) == span_rref(gen.field, gen.m, gen.rows)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(generating_matrices(), st.data())
def test_unimodular_scramble_reduces_to_the_same_basis(gen, data):
    f, ell, m = gen.field, gen.ell, gen.m
    rows = [list(r) for r in gen.rows]
    n = len(rows)
    # elementary row operations (swap, unit scaling, adding a polynomial
    # multiple of another row) and adding multiples of (X^m-1)e_k keep
    # the generated submodule
    for _ in range(data.draw(st.integers(0, 2 * n + 2)) if n else 0):
        kind = data.draw(st.sampled_from(("swap", "scale", "add", "kernel")))
        i = data.draw(st.integers(0, n - 1))
        if kind == "swap":
            j = data.draw(st.integers(0, n - 1))
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "scale":
            c = data.draw(st.integers(1, f.q - 1))
            rows[i] = [p.scale(c) for p in rows[i]]
        elif kind == "add" and n > 1:
            j = data.draw(st.integers(0, n - 2))
            j += j >= i
            mult = data.draw(polys(f, m))
            rows[i] = [a + mult * b for a, b in zip(rows[i], rows[j])]
        elif kind == "kernel":
            k = data.draw(st.integers(0, ell - 1))
            mult = data.draw(polys(f, m))
            rows[i][k] = rows[i][k] + mult * Poly(f, (0,) * m + (1,)) - mult
    scrambled = GeneratingMatrix(f, ell, m, rows)
    assert rgb_pot_reduce(scrambled) == rgb_pot_reduce(gen)


# ---------------------------------------------------------------------------
# GF(2), GF(3) and GF(4) at the benchmark's sizes, too large for the RREF
# oracle
# ---------------------------------------------------------------------------

def dense_polys(field, below):
    """Polynomials of degree < below, drawn as one integer whose base-q
    digits are the codes."""
    q = field.q

    def digits(x):
        codes = []
        while x:
            x, c = divmod(x, q)
            codes.append(c)
        return Poly(field, codes)

    return st.integers(0, q ** below - 1).map(digits)


@st.composite
def wide_matrices(draw, field):
    """ell from 3 to 6 and m up to 63 (m = 1 included), entries of degree
    < 2m.  Columns drawn as empty, and fewer than ell rows, leave diagonals
    that are the whole of X^m - 1."""
    ell = draw(st.integers(3, 6))
    m = draw(st.sampled_from((1, 63)) | st.integers(2, 62))
    empty = draw(st.sets(st.integers(0, ell - 1), max_size=2))
    zero = Poly.zero(field)
    rows = [[zero if j in empty else draw(dense_polys(field, 2 * m)) for j in range(ell)]
            for _ in range(draw(st.integers(1, ell + 1)))]
    return GeneratingMatrix(field, ell, m, rows)


@pytest.mark.parametrize("q", (2, 3, 4))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_wide_reduction_is_canonical(q, data):
    f = FIELDS[q]
    gen = data.draw(wide_matrices(f))
    m = gen.m
    basis = rgb_pot_reduce(gen)
    assert is_rgb_pot(basis)[0]
    for row in gen.rows:
        vec = PolyVector([fold_mod_xm1(p, m) for p in row], m)
        assert reduce_vector(basis, vec).is_zero
    # row_i += c * row_j (i != j), then a swap: a unimodular transform
    rows = [list(r) for r in gen.rows]
    n = len(rows)
    for _ in range(data.draw(st.integers(0, 2 * n)) if n > 1 else 0):
        i, j = data.draw(st.permutations(range(n)))[:2]
        c = data.draw(dense_polys(f, 3))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        rows[i], rows[j] = rows[j], rows[i]
    scrambled = GeneratingMatrix(f, gen.ell, m, rows)
    assert rgb_pot_reduce(scrambled).matrix == basis.matrix
