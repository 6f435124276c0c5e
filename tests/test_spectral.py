"""Canonical reduction at large m against the spectral oracle (`spectralref`).

The RREF oracle of `test_reduce_oracle.py` expands the code and stops at
m 12.  Here gcd(m, p) = 1 and the basis is judged by its values at one root
of unity per cyclotomic coset, computed with `Field` codes only: over GF(2)
up to m 1023, over GF(3), GF(4), GF(5) and GF(9) at smaller m.  Inputs are
full random matrices, scrambled upper-triangular matrices whose diagonals
are built from divisors of X^m - 1, and the product's closed-form basis
against its unreduced generators.  Each accepted basis must be rejected
once one coefficient of an entry above a proper diagonal is changed: a
basis in canonical shape that spans another module.  A basis in canonical
shape whose rows span more than its diagonal claims is rejected too.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcproduct import (
    GeneratingMatrix,
    OneLevelCode,
    Poly,
    RgbPotBasis,
    bezout_pair,
    cyclic_code_new,
    factor_xm_minus_1,
    field_new,
    fold_mod_xm1,
    is_rgb_pot,
    one_level_product_rgb,
    rgb_pot_reduce,
    unreduced_product_basis,
    x_pow_minus_one,
)
from spectralref import is_canonical_basis_of

FIELDS = {2: field_new(2), 3: field_new(3), 4: field_new(2, 2), 5: field_new(5),
          9: field_new(3, 2)}
# lengths coprime to q whose roots of unity lie in fields of at most 2^8 elements
LENGTHS = {2: (7, 15, 17, 31, 51, 63, 85, 127, 255), 3: (8, 10, 13, 16, 20, 26, 40),
           4: (5, 9, 15, 21, 63), 5: (6, 8, 12, 24, 31), 9: (5, 8, 10, 16, 20, 40)}


def _poly(draw, f, below: int) -> Poly:
    n = draw(st.integers(0, below))
    return Poly(f, draw(st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n)))


def _divisor(draw, f, m: int) -> Poly:
    """A nonzero constant times a product of irreducible factors of X^m - 1."""
    factors = [g for _, g in factor_xm_minus_1(f.q, m)]
    d = Poly(f, [draw(st.integers(1, f.q - 1))])
    for g in draw(st.lists(st.sampled_from(factors), max_size=4)):
        d = d * g
    return d


@st.composite
def generators(draw):
    """(rows, field, ell, m): full random rows, or divisor-led
    upper-triangular rows scrambled by unimodular row operations and
    folded modulo X^m - 1."""
    q = draw(st.sampled_from(sorted(FIELDS)))
    f, m = FIELDS[q], draw(st.sampled_from(LENGTHS[q]))
    ell = draw(st.integers(2, 4 if m < 64 else 3))
    if draw(st.booleans()):
        rows = [[_poly(draw, f, m) for _ in range(ell)] for _ in range(draw(st.integers(1, ell)))]
    else:
        rows = [[Poly.zero(f)] * i + [_divisor(draw, f, m)] + [_poly(draw, f, m)
                                                              for _ in range(ell - 1 - i)]
                for i in range(ell)]
        for _ in range(draw(st.integers(0, 6))):
            i, j = draw(st.permutations(range(ell)))[:2]
            c = _poly(draw, f, 3)
            rows[i] = [fold_mod_xm1(a + c * b, m) for a, b in zip(rows[i], rows[j])]
    return rows, f, ell, m


def _mutated(basis: RgbPotBasis):
    """The basis with one coefficient above a proper diagonal changed, kept
    below the degree of its column's diagonal; None where there is none."""
    f, xm1 = basis.field, x_pow_minus_one(basis.field, basis.m)
    for i in range(basis.ell):
        for j in range(i + 1, basis.ell):
            if basis.matrix[i][i] != xm1 and basis.matrix[j][j].degree >= 1:
                matrix = [list(r) for r in basis.matrix]
                matrix[i][j] = matrix[i][j] + Poly(f, [1])
                return RgbPotBasis(f, basis.ell, basis.m, matrix)
    return None


def _check(rows, basis):
    assert is_canonical_basis_of(rows, basis)
    wrong = _mutated(basis)
    if wrong is not None:
        assert not is_canonical_basis_of(rows, wrong)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(generators())
def test_reduction_is_canonical_by_spectra(case):
    rows, f, ell, m = case
    _check(rows, rgb_pot_reduce(GeneratingMatrix(f, ell, m, rows)))


@pytest.mark.parametrize("m, ell", ((511, 3), (1023, 2)))
def test_wide_gf2_reduction_is_canonical_by_spectra(m, ell):
    # rows of every degree below m over GF(2), the first led by a divisor
    f = FIELDS[2]
    g = factor_xm_minus_1(2, m)[1][1]
    rows = [[g * Poly(f, [1, 1])] + [Poly(f, [(k * k + i + j) % 3 % 2 for k in range(m)])
                                     for j in range(ell - 1)] for i in range(ell)]
    _check(rows, rgb_pot_reduce(GeneratingMatrix(f, ell, m, rows)))


@pytest.mark.parametrize("q, ell_a, m_a, m_b", ((2, 2, 15, 17), (3, 3, 8, 5), (4, 2, 7, 9),
                                                 (9, 3, 5, 8)))
def test_closed_form_product_is_canonical_by_spectra(q, ell_a, m_a, m_b):
    # the closed form's basis against the unreduced product's generators
    f = FIELDS[q]
    factors_a, factors_b = factor_xm_minus_1(q, m_a), factor_xm_minus_1(q, m_b)
    g_a, g_b = factors_a[1][1] * factors_a[0][1], factors_b[-1][1]
    fs = [Poly(f, [(3 * k + j + 1) % q for k in range(m_a)]) for j in range(ell_a - 1)]
    row_code = OneLevelCode(g_a, fs, ell_a, m_a)
    column_code = cyclic_code_new(m_b, g_b)
    params = bezout_pair(ell_a, m_a, m_b)
    closed = one_level_product_rgb(row_code, column_code, params).basis()
    _check(unreduced_product_basis(row_code.basis(), column_code, params).rows, closed)


def test_a_canonical_shape_that_spans_more_than_it_claims_is_rejected():
    # (X^2 + X + 1)*(X + 1, 1) = (0, X^2 + X + 1) mod X^3 - 1 lies in the
    # module but not in the span of the row (0, X + 1) below it: the rows
    # pass is_rgb_pot and span their own module, which has dimension 5, not 4
    f = FIELDS[2]
    basis = RgbPotBasis(f, 2, 3, [[Poly(f, [1, 1]), Poly(f, [1])], [Poly.zero(f), Poly(f, [1, 1])]])
    assert is_rgb_pot(basis)[0]
    assert not is_canonical_basis_of(basis.matrix, basis)
