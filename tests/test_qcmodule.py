"""Tests for submodule bases, canonical reduction, and the interleaving maps."""

import random
import time

import pytest

from qcproduct import (
    DegreeMismatch,
    DegreeOverflow,
    FieldMismatch,
    GeneratingMatrix,
    MessageDegreeTooLarge,
    NonPrefixPattern,
    Poly,
    PolyVector,
    RgbPotBasis,
    ShapeMismatch,
    dimension,
    encode,
    field_new,
    is_rgb_pot,
    level,
    minimal_polynomial,
    reduce_vector,
    rgb_pot_reduce,
    univariate_to_vector,
    vector_to_univariate,
    x_pow_minus_one,
)

F2 = field_new(2)
F3 = field_new(3)


def small_basis():
    """Canonical basis for the module generated by (X^2+1, X+1) in F2[X]^2
    with m = 3."""
    gen = GeneratingMatrix(F2, 2, 3, [[Poly(F2, (1, 0, 1)), Poly(F2, (1, 1))]])
    return rgb_pot_reduce(gen)


def random_generating_matrix(rng, field, ell, m, nrows):
    rows = []
    for _ in range(nrows):
        rows.append([
            Poly(field, [rng.randrange(field.q) for _ in range(m)])
            for _ in range(ell)
        ])
    return GeneratingMatrix(field, ell, m, rows)


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------

def test_poly_vector_validation():
    v = PolyVector((Poly(F2, (1, 1)), Poly.zero(F2)), 3)
    assert v.ell == 2 and v.m == 3 and v.field == F2
    assert not v.is_zero
    assert v[0].coeffs == (1, 1)
    assert list(v)[1].is_zero
    with pytest.raises(ShapeMismatch):
        PolyVector((), 3)
    with pytest.raises(FieldMismatch):
        PolyVector((Poly.one(F2), Poly.one(F3)), 3)
    with pytest.raises(DegreeOverflow):
        PolyVector((Poly(F2, (1, 0, 0, 1)),), 3)
    with pytest.raises(AttributeError):
        v.m = 4


def test_generating_matrix_validation():
    gen = GeneratingMatrix(F2, 2, 3, [[Poly.one(F2), Poly.zero(F2)]])
    assert gen.ell == 2 and len(gen.rows) == 1
    with pytest.raises(ShapeMismatch):
        GeneratingMatrix(F2, 0, 3)
    with pytest.raises(ShapeMismatch):
        GeneratingMatrix(F2, 2, 3, [[Poly.one(F2)]])  # short row
    with pytest.raises(ShapeMismatch):
        GeneratingMatrix(F2, 1, 3, [[1]])  # not a Poly
    with pytest.raises(FieldMismatch):
        GeneratingMatrix(F2, 1, 3, [[Poly.one(F3)]])


def test_rgb_pot_basis_must_be_square():
    xm1 = x_pow_minus_one(F2, 3)
    with pytest.raises(ShapeMismatch):
        RgbPotBasis(F2, 2, 3, [[xm1, Poly.zero(F2)]])  # 1 row, need 2


# ---------------------------------------------------------------------------
# canonical reduction
# ---------------------------------------------------------------------------

def test_reduce_frozen_golden():
    b = small_basis()
    assert [[p.coeffs for p in row] for row in b.matrix] == [
        [(1, 1), (0, 1, 1)],      # X+1,  X^2+X
        [(), (1, 0, 0, 1)],       # 0,    X^3+1
    ]
    ok, violations = is_rgb_pot(b)
    assert ok and violations == []
    assert dimension(b) == 2
    assert level(b) == 1


def test_reduce_empty_matrix_gives_the_trivial_module():
    b = rgb_pot_reduce(GeneratingMatrix(F2, 3, 4))
    xm1 = x_pow_minus_one(F2, 4)
    assert b.diagonal() == (xm1, xm1, xm1)
    assert dimension(b) == 0
    assert level(b) == 0
    for i in range(3):
        for j in range(3):
            if i != j:
                assert b.matrix[i][j].is_zero


def test_reduce_full_space():
    ones = [[Poly.one(F2), Poly.zero(F2)], [Poly.zero(F2), Poly.one(F2)]]
    b = rgb_pot_reduce(GeneratingMatrix(F2, 2, 3, ones))
    assert b.diagonal() == (Poly.one(F2), Poly.one(F2))
    assert dimension(b) == 6
    assert level(b) == 2


def test_reduce_is_idempotent():
    rng = random.Random(90125)
    for _ in range(25):
        field = rng.choice((F2, F3))
        ell = rng.randrange(1, 4)
        m = rng.randrange(2, 7)
        gen = random_generating_matrix(rng, field, ell, m, rng.randrange(1, 4))
        b = rgb_pot_reduce(gen)
        assert is_rgb_pot(b)[0]
        again = rgb_pot_reduce(b.to_generating_matrix())
        assert again == b


def test_reduce_row_order_does_not_matter():
    rng = random.Random(2718)
    for _ in range(20):
        gen = random_generating_matrix(rng, F3, 2, 5, 3)
        shuffled = list(gen.rows)
        rng.shuffle(shuffled)
        gen2 = GeneratingMatrix(F3, 2, 5, shuffled)
        assert rgb_pot_reduce(gen) == rgb_pot_reduce(gen2)


def test_reduce_stays_below_twice_m_on_large_full_rank_input():
    # folding over the whole of F_q[X] took about two minutes here: operand
    # degrees grew into the thousands; modulo X^m - 1 they stay below 2m
    rng = random.Random(31)
    gen = random_generating_matrix(rng, F2, 8, 31, 8)
    start = time.perf_counter()
    b = rgb_pot_reduce(gen)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"took {elapsed:.2f} s"
    assert is_rgb_pot(b)[0]
    for row in gen.rows:
        assert reduce_vector(b, PolyVector(row, 31)).is_zero


def test_section_iv_row_code_dimension():
    m0 = minimal_polynomial(2, 17, 0)
    m1 = minimal_polynomial(2, 17, 1)
    f1 = m0 ** 3 * Poly(F2, (1, 0, 1, 1))
    b = rgb_pot_reduce(GeneratingMatrix(F2, 2, 17, [[m1, m1 * f1]]))
    assert dimension(b) == 9
    assert level(b) == 1
    assert b.matrix[0][0] == m1
    assert b.matrix[1][1] == x_pow_minus_one(F2, 17)


# ---------------------------------------------------------------------------
# structural conditions
# ---------------------------------------------------------------------------

def test_condition_violations_are_reported():
    xm1 = x_pow_minus_one(F2, 3)
    zero, one = Poly.zero(F2), Poly.one(F2)
    xp1 = Poly(F2, (1, 1))

    # nonzero below the diagonal
    bad = RgbPotBasis(F2, 2, 3, [[xp1, zero], [one, xm1]])
    ok, v = is_rgb_pot(bad)
    assert not ok and any("condition 1" in s for s in v)

    # above-diagonal entry too large
    bad = RgbPotBasis(F2, 2, 3, [[xp1, Poly(F2, (1, 1, 1))], [zero, Poly(F2, (1, 0, 1))]])
    ok, v = is_rgb_pot(bad)
    assert not ok and any("condition 2" in s for s in v)

    # diagonal not dividing X^m - 1
    bad = RgbPotBasis(F2, 2, 3, [[Poly(F2, (0, 1)), zero], [zero, xm1]])
    ok, v = is_rgb_pot(bad)
    assert not ok and any("condition 3" in s for s in v)

    # full diagonal with a nonzero tail
    bad = RgbPotBasis(F2, 2, 3, [[xm1, one], [zero, xm1]])
    ok, v = is_rgb_pot(bad)
    assert not ok and any("condition 4" in s for s in v)

    # non-monic diagonal
    two = Poly(F3, (0, 2))
    bad3 = RgbPotBasis(F3, 1, 4, [[two * Poly(F3, (2, 0, 1))]])
    ok, v = is_rgb_pot(bad3)
    assert not ok and any("monic" in s for s in v)


def test_level_requires_prefix_pattern():
    xm1 = x_pow_minus_one(F2, 3)
    xp1 = Poly(F2, (1, 1))
    zero = Poly.zero(F2)
    good = RgbPotBasis(F2, 2, 3, [[xp1, zero], [zero, xm1]])
    assert level(good) == 1
    bad = RgbPotBasis(F2, 2, 3, [[xm1, zero], [zero, xp1]])
    with pytest.raises(NonPrefixPattern):
        level(bad)


def test_dimension_rejects_zero_diagonal():
    zero = Poly.zero(F2)
    bad = RgbPotBasis(F2, 1, 3, [[zero]])
    with pytest.raises(DegreeMismatch):
        dimension(bad)


# ---------------------------------------------------------------------------
# encoding and membership
# ---------------------------------------------------------------------------

def test_encode_frozen_golden():
    b = small_basis()
    c = encode(b, (Poly(F2, (1, 1)), Poly.zero(F2)))
    assert [p.coeffs for p in c.components] == [(1, 0, 1), (1, 1)]
    assert reduce_vector(b, c).is_zero


def test_encode_degree_bounds():
    b = small_basis()
    with pytest.raises(MessageDegreeTooLarge):
        encode(b, (Poly(F2, (1, 0, 1)), Poly.zero(F2)))   # deg 2 >= 2
    with pytest.raises(MessageDegreeTooLarge):
        encode(b, (Poly.zero(F2), Poly.one(F2)))          # full diagonal row
    with pytest.raises(ShapeMismatch):
        encode(b, (Poly.one(F2),))


def test_encode_accepts_poly_vector_message():
    b = small_basis()
    msg = PolyVector((Poly.one(F2), Poly.zero(F2)), 3)
    assert encode(b, msg) == encode(b, tuple(msg))


def test_reduce_vector_detects_non_members():
    b = small_basis()
    outside = PolyVector((Poly.one(F2), Poly.zero(F2)), 3)
    r = reduce_vector(b, outside)
    assert not r.is_zero
    with pytest.raises(ShapeMismatch):
        reduce_vector(b, PolyVector((Poly.one(F2),), 3))


def test_all_message_encodings_reduce_to_zero():
    rng = random.Random(515)
    for _ in range(20):
        field = rng.choice((F2, F3))
        gen = random_generating_matrix(rng, field, 2, 5, 2)
        b = rgb_pot_reduce(gen)
        for _ in range(10):
            msg = []
            for j in range(2):
                bound = 5 - b.matrix[j][j].degree
                msg.append(Poly(field, [rng.randrange(field.q)
                                        for _ in range(max(bound, 0))]))
            c = encode(b, msg)
            assert reduce_vector(b, c).is_zero


# ---------------------------------------------------------------------------
# interleaving and the quasi-cyclic shift
# ---------------------------------------------------------------------------

def test_interleaving_positions():
    # coefficient k of component i lands on X^(ell*k + i)
    v = PolyVector((Poly(F2, (1, 0, 1)), Poly(F2, (0, 1))), 3)
    u = vector_to_univariate(v)
    assert u.coeffs == (1, 0, 0, 1, 1)   # 1 + X^3 + X^4
    assert u.coeff(0) == 1               # comp 0, k=0
    assert u.coeff(4) == 1               # comp 0, k=2 -> 2*2+0
    assert u.coeff(3) == 1               # comp 1, k=1 -> 2*1+1
    assert univariate_to_vector(u, 2, 3) == v


def test_interleaving_round_trip_random():
    rng = random.Random(6021)
    for _ in range(50):
        field = rng.choice((F2, F3))
        ell = rng.randrange(1, 4)
        m = rng.randrange(1, 6)
        comps = [Poly(field, [rng.randrange(field.q) for _ in range(m)])
                 for _ in range(ell)]
        v = PolyVector(comps, m)
        u = vector_to_univariate(v)
        assert u.degree < ell * m
        assert univariate_to_vector(u, ell, m) == v


def test_univariate_degree_bound():
    with pytest.raises(DegreeOverflow):
        univariate_to_vector(Poly.monomial(F2, 6), 2, 3)
