"""Tests for submodule bases, canonical reduction, membership, and the
interleaving of `paper_maps`.  The check that a diagonal divides X^m - 1
(`polyring._divides_xm1`, which `CyclicCode` shares), which raises X to
the m-th power modulo a diagonal of low degree, is compared with dividing
X^m - 1 on divisors and non-divisors over GF(2), GF(3), GF(4) and GF(9)."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcproduct import (
    DegreeMismatch,
    DegreeOverflow,
    FieldMismatch,
    GeneratingMatrix,
    NonPrefixPattern,
    Poly,
    PolyVector,
    RgbPotBasis,
    ShapeMismatch,
    dimension,
    factor_xm_minus_1,
    field_new,
    fold_mod_xm1,
    is_rgb_pot,
    level,
    minimal_polynomial,
    reduce_vector,
    rgb_pot_reduce,
    x_pow_minus_one,
)
from paper_maps import interleave
from qcproduct.polyring import _divides_xm1

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
    for m in (2.9, "3", 0, -1, None):  # never truncated, never a bare TypeError
        with pytest.raises(ShapeMismatch):
            PolyVector((Poly.one(F2),), m)
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
    for ell, m in ((2.5, 3), (2, 3.7), ("2", 3), (2, "3"), (2, 0)):
        with pytest.raises(ShapeMismatch):  # never truncated
            GeneratingMatrix(F2, ell, m)


def test_rgb_pot_basis_must_be_square():
    xm1 = x_pow_minus_one(F2, 3)
    with pytest.raises(ShapeMismatch):
        RgbPotBasis(F2, 2, 3, [[xm1, Poly.zero(F2)]])  # 1 row, need 2
    for ell, m in ((1.0, 3), (1, 3.0), ("1", 3), (1, -3)):
        with pytest.raises(ShapeMismatch):
            RgbPotBasis(F2, ell, m, [[xm1]])


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
        again = rgb_pot_reduce(GeneratingMatrix(field, ell, m, b.matrix))
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

def encode(b, msg):
    """c(X) = i(X) G(X), each component folded modulo X^m - 1."""
    return PolyVector([fold_mod_xm1(sum((i * row[col] for i, row in zip(msg, b.matrix)),
                                        Poly.zero(b.field)), b.m)
                       for col in range(b.ell)], b.m)


def test_encode_frozen_golden():
    b = small_basis()
    c = encode(b, (Poly(F2, (1, 1)), Poly.zero(F2)))
    assert [p.coeffs for p in c.components] == [(1, 0, 1), (1, 1)]
    assert reduce_vector(b, c).is_zero


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
    comps = [(1, 0, 1), (0, 1)]
    u = interleave(comps, 3)
    assert u == [1, 0, 0, 1, 1, 0]   # 1 + X^3 + X^4
    assert [u[0::2], u[1::2]] == [[1, 0, 1], [0, 1, 0]]


def test_interleaving_round_trip_random():
    rng = random.Random(6021)
    for _ in range(50):
        field = rng.choice((F2, F3))
        ell = rng.randrange(1, 4)
        m = rng.randrange(1, 6)
        comps = [[rng.randrange(field.q) for _ in range(m)] for _ in range(ell)]
        u = interleave(comps, m)
        assert len(u) == ell * m
        assert [u[i::ell] for i in range(ell)] == comps


DIVISOR_FIELDS = {2: F2, 3: F3, 4: field_new(2, 2), 9: field_new(3, 2)}


@st.composite
def diagonals(draw):
    """(d, m): a nonzero constant times factors of X^n - 1 for some n | m, or
    that plus a random polynomial, or a random polynomial; m up to 3,968, so
    that a low-degree d takes square-and-multiply and a high one division."""
    f = DIVISOR_FIELDS[draw(st.sampled_from(sorted(DIVISOR_FIELDS)))]
    n = draw(st.sampled_from([n for n in (1, 2, 4, 5, 7, 8, 13, 15, 16, 21, 31) if n % f.p]))
    m = n * draw(st.sampled_from((1, 2, 3, 9, 37, 128)))
    codes = st.lists(st.integers(0, f.q - 1), max_size=8)
    d = Poly(f, [draw(st.integers(1, f.q - 1))])
    for _, g in draw(st.lists(st.sampled_from(factor_xm_minus_1(f.q, n)), max_size=3)):
        d = d * g
    kind = draw(st.sampled_from(("divisor", "perturbed", "random")))
    if kind != "divisor":
        d = (d if kind == "perturbed" else Poly.zero(f)) + Poly(f, draw(codes))
    return d, m


@settings(derandomize=True, max_examples=300, deadline=None)
@given(diagonals())
def test_divides_xm1_matches_division(case):
    d, m = case
    if not d.is_zero:
        assert _divides_xm1(d, m) == (x_pow_minus_one(d.field, m) % d).is_zero


def test_condition_3_on_a_long_code_takes_no_division_of_x_m_minus_1():
    # X^2 + X + 1 divides X^m - 1 over GF(2) iff 3 | m: dividing X^m - 1
    # took about 10 s at m = 2^19, square-and-multiply a few ms
    m = 1 << 19
    start = time.perf_counter()
    for d, ok in (((1, 1, 1), False), ((1, 1), True)):
        basis = RgbPotBasis(F2, 1, m, [[Poly(F2, d)]])
        violations = [] if ok else [f"condition 3: g[0][0] does not divide X^{m}-1"]
        assert is_rgb_pot(basis) == (ok, violations)
    assert time.perf_counter() - start < 2.0
