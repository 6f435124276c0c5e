"""Tests for dense univariate polynomial arithmetic."""

import random

import pytest

from qcproduct import (
    BothZero,
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    Poly,
    field_new,
    fold_mod_xm1,
    modular_substitute,
    poly_egcd,
    poly_gcd,
    x_pow_minus_one,
)
from test_product import Index

F2 = field_new(2)
F3 = field_new(3)
F4 = field_new(2, 2)
F9 = field_new(3, 2)


def random_poly(rng, field, max_deg):
    return Poly(field, [rng.randrange(field.q) for _ in range(max_deg + 1)])


# ---------------------------------------------------------------------------
# construction and basic queries
# ---------------------------------------------------------------------------

def test_trailing_zeros_are_trimmed():
    p = Poly(F3, (1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert Poly(F3, (0, 0)).is_zero
    assert Poly.zero(F2).degree == float("-inf")


def test_coefficients_out_of_range_rejected():
    with pytest.raises(FieldMismatch):
        Poly(F3, (0, 3))
    with pytest.raises(FieldMismatch):
        Poly(F2, (-1,))


def test_coefficients_must_be_integer_codes():
    # a string's digits, a float's truncation or a bool's 0 or 1 would
    # name some polynomial
    for coeffs in ("101", [1.7, 0.2], [1, None], [True, 0], [1, False]):
        with pytest.raises(FieldMismatch):
            Poly(F2, coeffs)


def test_monomial_and_coeff_lookup():
    p = Poly(F3, (0,) * 4 + (2,))
    assert p.coeffs == (0, 0, 0, 0, 2)
    assert p.coeff(4) == 2
    assert p.coeff(0) == 0
    assert p.coeff(99) == 0


def test_poly_is_immutable_and_hashable():
    p = Poly(F2, (1, 1))
    with pytest.raises(AttributeError):
        p.coeffs = (1,)
    assert p == Poly(F2, (1, 1))
    assert hash(p) == hash(Poly(F2, (1, 1)))
    assert p != Poly(F2, (1, 0, 1))
    assert p != Poly(F3, (1, 1))


@pytest.mark.parametrize("field, code", [
    (field_new(7), 2.5), (F2, 1.0), (F2, True), (F2, "1"), (F4, -1)])
def test_scale_reads_its_code_as_call_reads_its_point(field, code):
    # a float or a bool was multiplied in as it stood (codes beyond q are
    # test_field's test_public_entries_check_the_codes_field_ops_trust)
    x = Poly(field, (0, 1))
    with pytest.raises(FieldMismatch):
        x.scale(code)
    with pytest.raises(FieldMismatch):
        x(code)


def test_scale_takes_integer_types():
    assert Poly(F9, (1, 1)).scale(Index(4)) == Poly(F9, (4, 4))
    assert Poly(F9, (1, 1)).scale(0).is_zero


@pytest.mark.parametrize("e", [1.5, True, "2", -1])
def test_pow_reads_its_exponent_as_an_integer(e):
    with pytest.raises(DegreeMismatch):
        Poly(F3, (0, 1)) ** e


def test_pow_takes_integer_types():
    assert Poly(F3, (1, 1)) ** Index(3) == Poly(F3, (1, 0, 0, 1))


# ---------------------------------------------------------------------------
# ring arithmetic
# ---------------------------------------------------------------------------

def test_addition_and_subtraction_frozen():
    u = Poly(F3, (1, 2, 1))
    v = Poly(F3, (2, 1))
    assert (u + v).coeffs == (0, 0, 1)
    assert (u - v).coeffs == (2, 1, 1)
    assert (v - u).coeffs == (1, 2, 2)
    assert (-v).coeffs == (1, 2)
    assert (u - u).is_zero


def test_multiplication_frozen():
    u = Poly(F2, (1, 1))        # X + 1
    assert (u * u).coeffs == (1, 0, 1)           # X^2 + 1 over GF(2)
    v = Poly(F3, (1, 1))
    assert (v * v).coeffs == (1, 2, 1)
    assert (Poly.zero(F3) * v).is_zero
    # GF(4) uses field multiplication, not integer products
    a = Poly(F4, (2,))          # the generator
    assert (a * a).coeffs == (3,)                # x^2 = x + 1


def test_scalar_multiplication():
    p = Poly(F3, (1, 2))
    assert p.scale(2).coeffs == (2, 1)
    assert p.scale(0).is_zero
    with pytest.raises(TypeError):  # a scalar is a code: use scale
        p * 2


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(FieldMismatch):
        Poly(F2, (1,)) + Poly(F3, (1,))
    with pytest.raises(FieldMismatch):
        Poly(F2, (1,)) * Poly(F4, (1,))


def test_power():
    u = Poly(F2, (1, 1))
    assert (u ** 4).coeffs == (1, 0, 0, 0, 1)    # freshman's dream
    assert (u ** 0).coeffs == (1,)
    assert (u ** 1) == u
    with pytest.raises(DegreeMismatch):
        u ** -1


def test_divmod_frozen():
    u = Poly(F3, (1, 2, 0, 0, 1))    # X^4 + 2X + 1
    v = Poly(F3, (1, 0, 1))          # X^2 + 1
    q, r = divmod(u, v)
    assert q.coeffs == (2, 0, 1)     # X^2 + 2
    assert r.coeffs == (2, 2)        # 2X + 2
    assert q * v + r == u
    assert u // v == q
    assert u % v == r


def test_divmod_small_dividend_and_zero_divisor():
    u = Poly(F3, (1, 1))
    v = Poly(F3, (1, 0, 1))
    q, r = divmod(u, v)
    assert q.is_zero and r == u
    with pytest.raises(DivisionByZero):
        divmod(u, Poly.zero(F3))


def test_divmod_random_identity():
    rng = random.Random(20240811)
    for _ in range(200):
        field = rng.choice((F2, F3, F4))
        u = random_poly(rng, field, rng.randrange(9))
        v = random_poly(rng, field, rng.randrange(5))
        if v.is_zero:
            continue
        q, r = divmod(u, v)
        assert q * v + r == u
        assert r.degree < v.degree


def test_monic_normalization():
    p = Poly(F3, (1, 0, 2))
    assert p.monic().coeffs == (2, 0, 1)
    assert p.monic().is_monic
    assert Poly.zero(F3).monic().is_zero
    q = Poly(F3, (2, 0, 1))
    assert q.monic() is q


def test_evaluation_horner():
    p = Poly(F3, (1, 2, 1))          # (X + 1)^2
    assert p(2) == 0
    assert p(0) == 1
    assert p(1) == 1
    assert Poly(F4, (1, 1, 1))(2) == 0  # X^2 + X + 1 is the modulus of GF(4)


def test_evaluation_point_outside_the_field_rejected():
    for p, x in ((Poly(F4, (1, 1, 1)), 7), (Poly(F3, (1, 1)), 5),
                 (Poly(F3, (1, 1)), -1), (Poly.zero(F2), 2)):
        with pytest.raises(FieldMismatch):
            p(x)


def test_evaluation_point_is_read_as_an_integer():
    # 2.5 was carried through GF(7)'s arithmetic to the non-code 5.5, 1.0
    # raised a bare TypeError over GF(2) and GF(4), and True was read as 1
    F7 = field_new(7)
    for p, x in ((Poly(F7, (3, 1)), 2.5), (Poly(F2, (1, 1)), 1.0),
                 (Poly(F4, (1, 1)), 1.0), (Poly(F3, (1, 1)), True)):
        with pytest.raises(FieldMismatch, match="not an integer"):
            p(x)
    assert Poly(F7, (3, 1))(Index(2)) == 5


# ---------------------------------------------------------------------------
# gcd / egcd
# ---------------------------------------------------------------------------

def test_gcd_frozen():
    g = poly_gcd(x_pow_minus_one(F3, 4), x_pow_minus_one(F3, 6))
    assert g.coeffs == (2, 0, 1)     # X^2 - 1
    assert poly_gcd(Poly(F2, (1, 1)), Poly(F2, (0, 1))).coeffs == (1,)


def test_gcd_is_monic_and_symmetric():
    u = Poly(F3, (0, 2)) * Poly(F3, (1, 1))
    v = Poly(F3, (0, 2)) * Poly(F3, (2, 1))
    g = poly_gcd(u, v)
    assert g.is_monic
    assert g == poly_gcd(v, u)
    assert g.coeffs == (0, 1)        # the common factor 2X, made monic


def test_gcd_of_two_zeros_rejected():
    with pytest.raises(BothZero):
        poly_gcd(Poly.zero(F2), Poly.zero(F2))
    with pytest.raises(BothZero):
        poly_egcd(Poly.zero(F2), Poly.zero(F2))


def test_egcd_corner_conventions():
    # egcd(u, 0) = (monic u, 1/lc(u), 0)
    g, s, t = poly_egcd(Poly(F3, (0, 2)), Poly.zero(F3))
    assert (g.coeffs, s.coeffs, t.coeffs) == ((0, 1), (2,), ())
    # coprime pair over GF(2): s and t are the unique small cofactors
    g, s, t = poly_egcd(Poly(F2, (1, 1)), Poly(F2, (0, 1)))
    assert (g.coeffs, s.coeffs, t.coeffs) == ((1,), (1,), (1,))
    # egcd(u, u) = (monic u, 0, 1/lc(u))
    u = Poly(F3, (2, 1))
    g, s, t = poly_egcd(u, u)
    assert (g.coeffs, s.coeffs, t.coeffs) == ((2, 1), (), (1,))


def test_egcd_random_bezout_identity():
    rng = random.Random(777)
    for _ in range(250):
        field = rng.choice((F2, F3, F4))
        u = random_poly(rng, field, rng.randrange(8))
        v = random_poly(rng, field, rng.randrange(8))
        if u.is_zero and v.is_zero:
            continue
        g, s, t = poly_egcd(u, v)
        assert s * u + t * v == g
        assert g.is_monic
        assert g == poly_gcd(u, v) if not (u.is_zero and v.is_zero) else True
        if not u.is_zero:
            assert (u % g).is_zero
        if not v.is_zero:
            assert (v % g).is_zero
        # canonical cofactor: s is reduced modulo v/g
        if not v.is_zero and g != v.monic():
            assert s.degree < (v // g).degree


# ---------------------------------------------------------------------------
# modular substitution and index helpers
# ---------------------------------------------------------------------------

def test_x_pow_minus_one():
    assert x_pow_minus_one(F2, 3).coeffs == (1, 0, 0, 1)
    assert x_pow_minus_one(F3, 2).coeffs == (2, 0, 1)
    # a float or a string is refused, never truncated
    for m in (0, -1, 2.5, "3"):
        with pytest.raises(DegreeMismatch):
            x_pow_minus_one(F2, m)


def test_modular_substitute_positive_exponent():
    p = Poly(F2, (1, 1, 1))          # X^2 + X + 1
    # X -> X^3 mod X^7 - 1
    assert modular_substitute(p, 3, 7).coeffs == (1, 0, 0, 1, 0, 0, 1)
    # identity substitution
    assert modular_substitute(p, 1, 7) == p


def test_modular_substitute_negative_exponent():
    # X -> X^-1 means exponent k maps to -k mod N
    p = Poly(F2, (0, 1, 1))          # X^2 + X
    assert modular_substitute(p, -1, 5).coeffs == (0, 0, 0, 1, 1)


def test_modular_substitute_collisions_sum_in_field():
    p = Poly(F2, (0, 1, 0, 1))       # X^3 + X
    assert modular_substitute(p, 2, 4).is_zero          # X^6 + X^2 = 0 over GF(2)
    q = Poly(F3, (0, 1, 0, 1))
    assert modular_substitute(q, 2, 4).coeffs == (0, 0, 2)
    # codes of an extension add as vectors of base-p digits: over GF(4),
    # 2 + 3 = 1 (alpha + (alpha + 1)); over GF(9), 5 + 4 = 6 ((2, 1) + (1, 1))
    assert modular_substitute(Poly(F4, (0, 2, 0, 3)), 2, 4).coeffs == (0, 0, 1)
    assert modular_substitute(Poly(F9, (0, 5, 0, 4)), 2, 4).coeffs == (0, 0, 6)
    assert modular_substitute(Poly(F9, (0, 5, 0, 7)), 2, 4).is_zero


def test_modular_substitute_reduces_high_degrees():
    p = Poly(F2, (1,) * 10)          # degree 9
    r = modular_substitute(p, 1, 4)  # fold mod X^4 - 1
    assert r.degree < 4
    # exponents 0..9 mod 4 hit 0,1 three times and 2,3 twice -> X + 1 over GF(2)
    assert r.coeffs == (1, 1)
    for N in (0, -4, 2.5, "3"):
        with pytest.raises(DegreeMismatch):
            modular_substitute(p, 1, N)
    for e, shift in ((2.5, 0), (1, 0.5), ("1", 0)):
        with pytest.raises(DegreeMismatch):
            modular_substitute(p, e, 7, shift)


def test_modular_substitute_shift():
    # p(X^e) * X^shift: coefficient k lands on (k*e + shift) mod N
    p = Poly(F3, (1, 2))             # 2X + 1
    assert modular_substitute(p, 1, 5, 3).coeffs == (0, 0, 0, 1, 2)
    assert modular_substitute(p, 2, 5, 4).coeffs == (0, 2, 0, 0, 1)
    assert modular_substitute(p, -1, 5, -1) == modular_substitute(p, 4, 5, 9)
    # the shift is multiplication by X^shift folded mod X^N - 1
    for shift in range(-7, 8):
        x_shift = Poly(F3, (0,) * (shift % 5) + (1,))
        assert modular_substitute(p, 3, 5, shift) == \
            fold_mod_xm1(modular_substitute(p, 3, 5) * x_shift, 5)
    assert modular_substitute(Poly.zero(F3), 2, 5, 1).is_zero


def test_fold_mod_xm1():
    p = Poly(F3, (1, 2, 0, 1, 1))    # X^4 + X^3 + 2X + 1
    assert fold_mod_xm1(p, 5) is p   # already below degree m
    # X^3 -> 1 and X^4 -> X modulo X^3 - 1: (1 + 1) + (2 + 1)X = 2
    assert fold_mod_xm1(p, 3).coeffs == (2,)
    assert fold_mod_xm1(x_pow_minus_one(F3, 6), 6).is_zero
    assert fold_mod_xm1(Poly.zero(F3), 1).is_zero


def test_fold_mod_xm1_rejects_nonpositive_m():
    p = Poly(F2, (1, 1, 1))          # X^2 + X + 1
    for m in (0, -2, 2.5, "3"):
        with pytest.raises(DegreeMismatch):
            fold_mod_xm1(p, m)


def test_arithmetic_results_are_normalized():
    # results come out of a constructor that skips validation, so check
    # that they still match a fully validated rebuild: codes in range and
    # no trailing zeros
    rng = random.Random(4099)
    for field in (F2, F3, F4):
        for _ in range(40):
            u = random_poly(rng, field, rng.randrange(-1, 8))
            v = random_poly(rng, field, rng.randrange(-1, 8))
            results = [u + v, u - v, v - u, u * v, u.scale(rng.randrange(field.q))]
            if not v.is_zero:
                results.extend(divmod(u, v))
            for r in results:
                assert r == Poly(field, r.coeffs)
                assert not r.coeffs or r.coeffs[-1] != 0
            assert (u - u).is_zero and (u - v) + v == u

