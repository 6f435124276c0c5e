"""Tests for the product construction: Bezout parameters, index maps,
codeword matrices (through `paper_maps`), and the two routes to the
product basis."""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcproduct import (
    FieldMismatch,
    GeneratingMatrix,
    IndexOutOfRange,
    NotADivisor,
    NotCoprime,
    NotOneLevel,
    OneLevelCode,
    ParamMismatch,
    Poly,
    PolyVector,
    ProductParams,
    RgbPotBasis,
    ShapeMismatch,
    bezout_pair,
    cyclic_code_new,
    dimension,
    expand_to_linear,
    factor_xm_minus_1,
    field_new,
    field_of_order,
    fold_mod_xm1,
    is_quasi_cyclic,
    level,
    map_f,
    map_g,
    minimal_polynomial,
    one_level_product_rgb,
    poly_from_text,
    reduce_vector,
    rgb_pot_reduce,
    unreduced_product_basis,
    x_pow_minus_one,
)
from paper_maps import components, interleave, matrix, serialize
from rref import _rref
from test_cyclic import _within

F2 = field_new(2)
F3 = field_new(3)


def section_iv_instance():
    """The worked [102, 18] binary example: a [34, 9] 1-level row code times
    the [3, 2] parity-check column code."""
    m0 = minimal_polynomial(2, 17, 0)
    m1 = minimal_polynomial(2, 17, 1)
    f1 = m0 ** 3 * Poly(F2, (1, 0, 1, 1))
    A = OneLevelCode(m1, [f1], 2, 17)
    B = cyclic_code_new(3, poly_from_text(F2, "X+1"))
    return A, B, bezout_pair(2, 17, 3)


def exponents(p):
    return tuple(k for k, c in enumerate(p.coeffs) if c)


# ---------------------------------------------------------------------------
# Bezout parameters
# ---------------------------------------------------------------------------

def test_bezout_pair_worked_example():
    p = bezout_pair(2, 17, 3)
    assert (p.a, p.b) == (1, -11)
    assert p.a * 34 + p.b * 3 == 1
    assert p.n == 102
    assert p.big_m == 51


def test_bezout_pair_trivial_column_length():
    p = bezout_pair(2, 3, 1)
    assert (p.a, p.b) == (1, -5)
    assert p.n == 6


def test_bezout_pair_a_is_least_positive_inverse():
    p = bezout_pair(2, 3, 5)
    assert (p.a, p.b) == (1, -1)
    q = bezout_pair(3, 3, 7)
    assert 1 <= q.a < 7
    assert (q.a * 9) % 7 == 1


def test_bezout_pair_rejections():
    with pytest.raises(NotCoprime):
        bezout_pair(2, 3, 2)      # gcd(6, 2) = 2
    with pytest.raises(ParamMismatch):
        bezout_pair(0, 3, 5)


@pytest.mark.parametrize("shape", ((2.5, 3, 7), ("2", 3, 7), (2, True, 7), (2, 3, 7.0)))
def test_product_shapes_are_read_as_integers(shape):
    with pytest.raises(ParamMismatch, match="not a positive integer"):
        bezout_pair(*shape)
    with pytest.raises(ParamMismatch, match="not a positive integer"):
        ProductParams(*shape, 1, -1)


class Index:
    """An integer type that is not an int, read through __index__."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_product_params_store_the_integers_they_read():
    for a, b in ((6.0, -5), (6, "-5"), (True, -5)):
        with pytest.raises(ParamMismatch, match="not an integer"):
            ProductParams(2, 3, 7, a, b)
    p = ProductParams(Index(2), Index(3), 7, Index(6), -5)
    assert p == bezout_pair(2, 3, 7) == bezout_pair(Index(2), 3, Index(7))
    assert all(type(v) is int for v in (p.ell_a, p.m_a, p.m_b, p.a, p.b))
    assert OneLevelCode(Poly(F2, (1, 1)), [], Index(1), Index(7)).m == 7


def test_product_params_validation():
    p = ProductParams(2, 17, 3, 1, -11)
    assert p == bezout_pair(2, 17, 3)
    assert hash(p) == hash(bezout_pair(2, 17, 3))
    with pytest.raises(ParamMismatch):
        ProductParams(2, 17, 3, 1, -10)   # 34 - 30 != 1
    with pytest.raises(NotCoprime):
        ProductParams(2, 3, 4, 1, -1)
    with pytest.raises(AttributeError):
        p.a = 2


# ---------------------------------------------------------------------------
# index maps
# ---------------------------------------------------------------------------

def test_map_f_frozen_values():
    p = bezout_pair(2, 17, 3)
    assert map_f(0, 0, p) == 0
    assert map_f(0, 1, p) == 69
    assert map_f(1, 0, p) == 68
    assert map_g(0, 0, p) == 0
    assert map_g(0, 1, p) == 18
    assert map_g(1, 0, p) == 34


def test_map_f_is_a_bijection():
    for ell_a, m_a, m_b in ((2, 17, 3), (3, 4, 5), (1, 6, 7)):
        p = bezout_pair(ell_a, m_a, m_b)
        hits = {map_f(i, j, p)
                for i in range(m_b) for j in range(ell_a * m_a)}
        assert hits == set(range(p.n))
        comp = {map_g(i, j, p) for i in range(m_b) for j in range(m_a)}
        assert comp == set(range(p.big_m))


def test_map_f_shift_identity():
    # advancing one row and ell_a columns advances the serialized index by
    # ell_a: this is why the product is quasi-cyclic of index ell_a
    for ell_a, m_a, m_b in ((2, 17, 3), (3, 4, 5), (2, 5, 9)):
        p = bezout_pair(ell_a, m_a, m_b)
        for i in range(m_b):
            for j in range(ell_a * m_a):
                expected = (map_f(i, j, p) + ell_a) % p.n
                assert map_f((i + 1) % m_b, (j + ell_a) % (ell_a * m_a), p) \
                    == expected


def test_map_index_bounds():
    p = bezout_pair(2, 17, 3)
    with pytest.raises(IndexOutOfRange):
        map_f(3, 0, p)
    with pytest.raises(IndexOutOfRange):
        map_f(0, 34, p)
    with pytest.raises(IndexOutOfRange):
        map_g(0, 17, p)
    with pytest.raises(IndexOutOfRange):
        map_g(-1, 0, p)


@pytest.mark.parametrize("i, j", ((0.5, 0), (1, 0.5), ("1", 0), (0, True)))
def test_map_indices_are_read_as_integers(i, j):
    # a float index used to give a float position (map_f(0.5, 0, p) == 36.0)
    p = bezout_pair(2, 17, 3)
    with pytest.raises(IndexOutOfRange, match="not an integer"):
        map_f(i, j, p)
    with pytest.raises(IndexOutOfRange, match="not an integer"):
        map_g(i, j, p)


# ---------------------------------------------------------------------------
# codeword matrices and serialization
# ---------------------------------------------------------------------------

def test_matrix_serialization_round_trip():
    rng = random.Random(1309)
    for _ in range(30):
        field = rng.choice((F2, F3))
        while True:
            ell_a = rng.randrange(1, 4)
            m_a = rng.randrange(1, 7)
            m_b = rng.randrange(1, 8)
            if math.gcd(ell_a * m_a, m_b) == 1:
                break
        p = bezout_pair(ell_a, m_a, m_b)
        M = [[rng.randrange(field.q) for _ in range(ell_a * m_a)]
             for _ in range(m_b)]
        c = serialize(M, p)
        assert len(c) == p.n
        assert sorted(c) == sorted(x for row in M for x in row)
        assert matrix(c, p) == M


def test_components_agree_with_serialization():
    # splitting the matrix into ell_a component polynomials and interleaving
    # them reproduces the direct serialization
    rng = random.Random(2025)
    for _ in range(30):
        field = rng.choice((F2, F3))
        while True:
            ell_a = rng.randrange(1, 4)
            m_a = rng.randrange(1, 7)
            m_b = rng.randrange(1, 8)
            if math.gcd(ell_a * m_a, m_b) == 1:
                break
        p = bezout_pair(ell_a, m_a, m_b)
        M = [[rng.randrange(field.q) for _ in range(ell_a * m_a)]
             for _ in range(m_b)]
        comps = components(M, p)
        assert len(comps) == ell_a and {len(c) for c in comps} == {p.big_m}
        assert interleave(comps, p.big_m) == serialize(M, p)


# ---------------------------------------------------------------------------
# 1-level codes
# ---------------------------------------------------------------------------

def test_one_level_code_basics():
    A = OneLevelCode(Poly(F2, (1, 1)), [Poly(F2, (0, 1))], 2, 3)
    assert A.k == 2
    assert A.row()[0].coeffs == (1, 1)
    assert A.row()[1].coeffs == (0, 1, 1)      # (X+1) * X
    b = A.basis()
    assert b.matrix[1][1] == x_pow_minus_one(F2, 3)
    assert dimension(b) == 2


def test_one_level_code_canonicalizes_multipliers():
    # f and f + (X^m-1)/g generate the same row span; both normalize to the
    # same stored multiplier
    g = Poly(F2, (1, 1))
    cof = x_pow_minus_one(F2, 3) // g          # X^2 + X + 1
    a1 = OneLevelCode(g, [Poly(F2, (0, 1))], 2, 3)
    a2 = OneLevelCode(g, [Poly(F2, (0, 1)) + cof], 2, 3)
    assert a1 == a2
    assert a1.fs[0].degree < cof.degree


def test_one_level_code_monic_normalization():
    g = Poly(F3, (2, 2))                      # 2(X + 1)
    a = OneLevelCode(g, [], 1, 4)
    assert a.g.coeffs == (1, 1)


def test_one_level_code_rejections():
    with pytest.raises(ShapeMismatch):
        OneLevelCode(Poly(F2, (1, 1)), [], 2, 3)          # missing multiplier
    with pytest.raises(NotADivisor):
        OneLevelCode(Poly.zero(F2), [], 1, 3)
    with pytest.raises(NotADivisor):
        OneLevelCode(Poly(F2, (1, 0, 1, 1)), [], 1, 5)    # not a divisor
    with pytest.raises(FieldMismatch):
        OneLevelCode(Poly(F2, (1, 1)), [Poly.one(F3)], 2, 3)


@pytest.mark.parametrize("p", (2, 3))
def test_one_level_code_of_index_1_at_the_length_bound_is_built_within_seconds(p):
    # with ell = 1 there is no multiplier to reduce modulo (X^m - 1)/g, so
    # X^m - 1 is no longer divided by g: that division is quadratic in m
    # for a low-degree g (0.64 s at m = 2^17 + 1 over GF(2), 2 vCPUs)
    m, field = 2 ** 20 - 1, field_new(p)
    code = _within(5, lambda: OneLevelCode(Poly(field, (p - 1, 1)), [], 1, m))
    assert (code.m, code.k, code.g.coeffs) == (m, m - 1, (p - 1, 1))


def test_one_level_code_refuses_a_non_divisor_with_one_text():
    # X^3 + X + 1 divides neither X^5 - 1 nor X^(2^20 - 1) - 1; ell = 1
    # tests divisibility without the cofactor, under the same message
    g = poly_from_text(F2, "X^3+X+1")
    for ell, m in ((1, 5), (2, 5), (1, 2 ** 20 - 1)):
        message = re.escape(f"Poly[X^3+X+1 over GF(2)] does not divide X^{m}-1")
        with pytest.raises(NotADivisor, match=f"^{message}$"):
            _within(5, lambda: OneLevelCode(g, [Poly.one(F2)] * (ell - 1), ell, m))


@pytest.mark.parametrize("g, fs", [
    (Poly(F2, (1, 1)), [1]),                  # a multiplier that is a code
    (Poly(F2, (1, 1)), [[1, 0]]),             # a multiplier that is a code list
    ((1, 1), [Poly(F2, (0, 1))]),             # a divisor that is a code tuple
], ids=["int multiplier", "list multiplier", "tuple divisor"])
def test_one_level_code_refuses_non_polynomials(g, fs):
    # a QcError, raised before anything is converted into the kernel
    with pytest.raises(ShapeMismatch, match="must be polynomials"):
        OneLevelCode(g, fs, 2, 3)


@pytest.mark.parametrize("ell, m", ((1.0, 7), (1, 7.0), ("1", 7), (1, "7"), (True, 7), (1, 0)))
def test_one_level_code_reads_ell_and_m_as_integers(ell, m):
    # ell and m used to pass through int(), which truncates a float
    with pytest.raises(ShapeMismatch, match="not a positive integer"):
        OneLevelCode(Poly(F2, (1, 1)), [], ell, m)


def test_one_level_round_trip_through_basis():
    A = OneLevelCode(Poly(F2, (1, 1)), [Poly(F2, (0, 1))], 2, 3)
    assert OneLevelCode.from_basis(A.basis()) == A


def test_from_basis_rejects_other_levels():
    xm1 = x_pow_minus_one(F2, 3)
    zero = Poly.zero(F2)
    level0 = RgbPotBasis(F2, 2, 3, [[xm1, zero], [zero, xm1]])
    with pytest.raises(NotOneLevel):
        OneLevelCode.from_basis(level0)
    one = Poly.one(F2)
    level2 = RgbPotBasis(F2, 2, 3, [[one, zero], [zero, one]])
    with pytest.raises(NotOneLevel):
        OneLevelCode.from_basis(level2)


# ---------------------------------------------------------------------------
# the worked [102, 18] product
# ---------------------------------------------------------------------------

def test_row_code_worked_example():
    A, _, _ = section_iv_instance()
    assert A.k == 9
    assert exponents(A.row()[0]) == (0, 1, 2, 4, 6, 7, 8)
    assert exponents(A.row()[1]) == (0, 8, 11, 12, 13, 14)


def test_unreduced_product_frozen_entries():
    A, B, p = section_iv_instance()
    raw = unreduced_product_basis(A.basis(), B, p)
    assert exponents(raw.rows[0][0]) == (
        0, 1, 4, 6, 7, 18, 19, 21, 24, 25, 34, 36, 40, 42)
    assert exponents(raw.rows[0][1]) == (
        8, 11, 13, 14, 17, 25, 28, 29, 31, 34, 46, 47)
    # the second generating row of the row-code basis collapses: X^17-1
    # substituted and multiplied out folds to zero mod X^51-1
    assert raw.rows[1][0].is_zero
    assert raw.rows[1][1].is_zero


def test_closed_form_product_frozen():
    A, B, p = section_iv_instance()
    prod = one_level_product_rgb(A, B, p)
    assert prod.k == 18
    assert exponents(prod.g) == (
        0, 1, 3, 6, 8, 10, 13, 15, 16, 17, 18, 20, 23, 25, 27, 30, 32, 33)
    assert exponents(prod.row()[1]) == (
        0, 1, 2, 4, 5, 6, 8, 9, 10, 12, 15, 17, 19, 22, 24, 26, 28, 31,
        33, 35, 38, 40, 41, 42, 44, 45, 46, 48, 49, 50)
    assert (x_pow_minus_one(F2, 51) % prod.g).is_zero


def test_both_routes_agree_on_worked_example():
    A, B, p = section_iv_instance()
    direct = rgb_pot_reduce(unreduced_product_basis(A.basis(), B, p))
    assert direct == one_level_product_rgb(A, B, p).basis()


def test_both_routes_agree_on_random_instances():
    rng = random.Random(8128)
    cases = 0
    while cases < 20:
        q = rng.choice((2, 3))
        field = F2 if q == 2 else F3
        ell_a = rng.randrange(2, 4)
        m_a = rng.randrange(2, 9)
        m_b = rng.randrange(2, 7)
        if m_a % q == 0 or m_b % q == 0:
            continue
        if math.gcd(ell_a * m_a, m_b) != 1:
            continue
        # random 1-level row code: divisor g and multipliers
        factors = factor_xm_minus_1(q, m_a)
        g = Poly.one(field)
        for _, fac in factors:
            if rng.random() < 0.5:
                g = g * fac
        if g.degree == m_a:
            continue       # level would be 0
        fs = [Poly(field, [rng.randrange(q) for _ in range(m_a)])
              for _ in range(ell_a - 1)]
        A = OneLevelCode(g, fs, ell_a, m_a)
        gb = Poly.one(field)
        for _, fac in factor_xm_minus_1(q, m_b):
            if rng.random() < 0.5:
                gb = gb * fac
        if gb.degree == m_b:
            continue
        B = cyclic_code_new(m_b, gb)
        p = bezout_pair(ell_a, m_a, m_b)
        direct = rgb_pot_reduce(unreduced_product_basis(A.basis(), B, p))
        assert direct == one_level_product_rgb(A, B, p).basis()
        cases += 1


def test_both_routes_agree_with_seven_columns():
    # a [105, 11] row code times the [11, 10] parity-check code: the direct
    # route reduces a 7-column matrix modulo X^165 - 1
    rng = random.Random(7)
    g = poly_from_text(F2, "X^4+X+1")               # divides X^15 - 1
    fs = [Poly(F2, [rng.randrange(2) for _ in range(15)]) for _ in range(6)]
    A = OneLevelCode(g, fs, 7, 15)
    B = cyclic_code_new(11, poly_from_text(F2, "X+1"))
    p = bezout_pair(7, 15, 11)
    direct = rgb_pot_reduce(unreduced_product_basis(A.basis(), B, p))
    closed = one_level_product_rgb(A, B, p)
    assert direct == closed.basis()
    assert closed.k == A.k * B.k


def test_product_shape_mismatches_rejected():
    A, B, p = section_iv_instance()
    wrong = bezout_pair(2, 17, 5)
    B3 = cyclic_code_new(5, Poly.one(F3))
    A1 = OneLevelCode(Poly(F2, (1, 1)), [], 1, 17)
    for route, row_code in ((one_level_product_rgb, lambda a: a),
                            (unreduced_product_basis, OneLevelCode.basis)):
        with pytest.raises(ParamMismatch, match="column code length"):
            route(row_code(A), B, wrong)       # B has length 3, params say 5
        with pytest.raises(FieldMismatch, match="row and column codes"):
            route(row_code(A), B3, wrong)      # GF(3) column code, GF(2) rows
        with pytest.raises(ParamMismatch, match="row code shape"):
            route(row_code(A1), B, p)          # ell 1, params say 2


# ---------------------------------------------------------------------------
# the product code equals the span of outer-product codewords
# ---------------------------------------------------------------------------

def test_product_span_small_instance():
    # A = [6, 2] 1-level code, B = [5, 4] parity-check code, product [30, 8]
    A = OneLevelCode(Poly(F2, (1, 1)), [Poly(F2, (0, 1))], 2, 3)
    B = cyclic_code_new(5, poly_from_text(F2, "X+1"))
    p = bezout_pair(2, 3, 5)
    prod = one_level_product_rgb(A, B, p)
    assert prod.k == A.k * B.k == 8
    basis = prod.basis()

    # serialized basis codewords of the row code: X^t times its row
    a_words = [interleave([fold_mod_xm1(e * Poly(F2, (0,) * t + (1,)), 3).coeffs
                           for e in A.row()], 3) for t in range(A.k)]
    # basis codewords of the column code
    b_words = []
    for t in range(B.k):
        w = Poly(F2, (0,) * t + (1,)) * B.g
        b_words.append([w.coeff(s) for s in range(5)])

    # every outer product b (x) a must land in the product code
    for bw in b_words:
        for aw in a_words:
            M = [[F2.mul(bi, aj) for aj in aw] for bi in bw]
            comps = [Poly(F2, c) for c in components(M, p)]
            assert reduce_vector(basis, PolyVector(comps, p.big_m)).is_zero

    # a one-position perturbation leaves the code (minimum distance is > 1)
    M = [[F2.mul(b_words[0][i], a_words[0][j]) for j in range(6)]
         for i in range(5)]
    M[0][0] ^= 1
    bad = [Poly(F2, c) for c in components(M, p)]
    assert not reduce_vector(basis, PolyVector(bad, p.big_m)).is_zero


# ---------------------------------------------------------------------------
# the general theorem: row codes of every level r, not only 1-level ones
# ---------------------------------------------------------------------------

def _proper_divisor(draw, q, m):
    """A drawn monic divisor of X^m - 1 over GF(q) other than X^m - 1
    itself (1 allowed): a product of some, not all, irreducible factors."""
    factors = [f for _, f in factor_xm_minus_1(q, m)]
    keep = draw(st.lists(st.booleans(), min_size=len(factors),
                         max_size=len(factors)))
    keep[draw(st.integers(0, len(factors) - 1))] = False
    g = Poly.one(field_of_order(q))
    for factor, picked in zip(factors, keep):
        if picked:
            g = g * factor
    return g


@st.composite
def one_level_products(draw, q):
    """(A, B, params) over GF(q): a 1-level row code with a drawn proper
    divisor and multipliers, and a cyclic column code of coprime length."""
    field, ell = field_of_order(q), draw(st.integers(2, 3))
    lengths = [m for m in range(2, 8) if m % field.p]
    m_a = draw(st.sampled_from(lengths))
    m_b = draw(st.sampled_from([m for m in lengths
                                if math.gcd(m, ell * m_a) == 1]))
    fs = [Poly(field, draw(st.lists(st.integers(0, q - 1),
                                    min_size=m_a, max_size=m_a)))
          for _ in range(ell - 1)]
    A = OneLevelCode(_proper_divisor(draw, q, m_a), fs, ell, m_a)
    B = cyclic_code_new(m_b, _proper_divisor(draw, q, m_b))
    return A, B, bezout_pair(ell, m_a, m_b)


@pytest.mark.parametrize("q", (4, 9))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_both_routes_agree_over_extension_fields(q, data):
    A, B, p = data.draw(one_level_products(q))
    direct = rgb_pot_reduce(unreduced_product_basis(A.basis(), B, p))
    assert direct == one_level_product_rgb(A, B, p).basis()


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9))
@settings(derandomize=True, max_examples=20, deadline=None)
@given(data=st.data())
def test_library_built_matrices_are_what_their_constructors_build(q, data):
    # OneLevelCode.basis and unreduced_product_basis skip the constructors'
    # checks: their rows are tuples of tuples that the constructors accept
    A, B, p = data.draw(one_level_products(q))
    basis = A.basis()
    raw = unreduced_product_basis(basis, B, p)
    for built, rows, cls in ((basis, basis.matrix, RgbPotBasis),
                             (raw, raw.rows, GeneratingMatrix)):
        assert type(rows) is tuple and all(type(row) is tuple for row in rows)
        assert built == cls(built.field, built.ell, built.m, rows)


@st.composite
def general_products(draw, q):
    """(G_A, B, params, r) over GF(q): a row code of level exactly r given
    by its canonical basis, a cyclic column code, and their Bezout
    parameters.

    The r generating rows are [U | U C] for an upper-triangular r x r block
    U whose diagonal entries are proper divisors of X^m_a - 1 and a drawn
    r x (ell - r) block C, all mod X^m_a - 1.  Column j < r then has a
    diagonal dividing U_jj, so not X^m_a - 1, while a combination that
    vanishes on the first r columns is a syzygy a of U and so also vanishes
    on the tail a U C: the last ell - r diagonals are X^m_a - 1.
    """
    field, ell = field_of_order(q), draw(st.integers(2, 3))
    r = draw(st.integers(1, ell))
    lengths = [m for m in range(2, 8) if m % field.p]
    m_a = draw(st.sampled_from(lengths))
    m_b = draw(st.sampled_from([m for m in lengths
                                if math.gcd(m, ell * m_a) == 1]))

    def poly():
        return Poly(field, draw(st.lists(st.integers(0, q - 1),
                                         min_size=m_a, max_size=m_a)))

    U = [[_proper_divisor(draw, q, m_a) if i == j else
          poly() if i < j else Poly.zero(field) for j in range(r)]
         for i in range(r)]
    C = [[poly() for _ in range(ell - r)] for _ in range(r)]
    rows = [U[i] + [fold_mod_xm1(sum((U[i][s] * C[s][t] for s in range(r)),
                                     Poly.zero(field)), m_a)
                    for t in range(ell - r)]
            for i in range(r)]
    G_A = rgb_pot_reduce(GeneratingMatrix(field, ell, m_a, rows))
    B = cyclic_code_new(m_b, _proper_divisor(draw, q, m_b))
    return G_A, B, bezout_pair(ell, m_a, m_b), r


@pytest.mark.parametrize("q", (2, 3, 4, 9))
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_general_product_is_the_span_of_outer_products(q, data):
    G_A, B, p, r = data.draw(general_products(q))
    field = G_A.field
    assert level(G_A) == r
    view = expand_to_linear(rgb_pot_reduce(unreduced_product_basis(G_A, B, p)))
    a_words = expand_to_linear(G_A).matrix
    b_words = [[(Poly(field, (0,) * t + (1,)) * B.g).coeff(s)
                for s in range(p.m_b)] for t in range(B.k)]
    outer = []
    for b in b_words:
        for a in a_words:
            word = [0] * p.n
            for i, bi in enumerate(b):
                for j, aj in enumerate(a):
                    word[map_f(i, j, p)] = field.mul(bi, aj)
            outer.append(word)
    assert view.k == len(a_words) * B.k
    assert _rref(field, view.matrix) == _rref(field, outer)
    assert is_quasi_cyclic(view, p.ell_a)
