"""Finite-field arithmetic: prime fields, binary and odd-characteristic
extensions, the polynomial text formats, and roots of unity."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import irredref
import rootref
from qcproduct import (
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    LinearCodeView,
    NoSuchRoot,
    NotIrreducible,
    NotPrime,
    Poly,
    PolyParseError,
    coeffs_to_poly_text,
    field_new,
    field_of_order,
    nth_root_of_unity,
    poly_text_to_coeffs,
)
from qcproduct.field import (
    _MAX_EXPONENT,
    _TABLE_LIMIT,
    Field,
    _default_modulus,
    _frobenius_irreducible,
    _is_irreducible,
    _monic_candidates,
    _order,
    _prime_factors,
    _prime_field,
)
from test_product import Index


def test_prime_field_tables():
    f5 = field_new(5)
    assert f5.q == 5
    assert [f5.add(3, b) for b in range(5)] == [3, 4, 0, 1, 2]
    assert [f5.mul(2, b) for b in range(5)] == [0, 2, 4, 1, 3]
    assert [f5.inv(a) for a in range(1, 5)] == [1, 3, 2, 4]
    assert f5.neg(2) == 3
    assert f5.sub(1, 3) == 3


def test_nonprime_order_rejected():
    with pytest.raises(NotPrime):
        field_new(6)
    with pytest.raises(NotPrime):
        field_new(1)


def test_bool_characteristic_and_degree_are_refused():
    # True is an int subclass: it must not be read as the degree 1 or the
    # characteristic 1, as every other integer reader refuses a bool
    for m in (True, False):
        for p in (2, 3):
            with pytest.raises(DegreeMismatch):
                Field(p, m)
    for p in (True, False):
        with pytest.raises(NotPrime):
            Field(p)
    assert field_new(2, 2).q == 4 and field_new(2, 2).m == 2
    # an __index__ integer is read as the int it stands for
    f = Field(Index(3), Index(2))
    assert (f.p, f.m, f.q) == (3, 2, 9) and type(f.p) is type(f.m) is int


def test_default_moduli_are_frozen():
    # first monic irreducible in the high-to-low base-p order
    assert coeffs_to_poly_text(_default_modulus(2, 2)) == "X^2+X+1"
    assert coeffs_to_poly_text(_default_modulus(2, 3)) == "X^3+X+1"
    assert coeffs_to_poly_text(_default_modulus(2, 4)) == "X^4+X+1"
    assert coeffs_to_poly_text(_default_modulus(2, 8)) == "X^8+X^4+X^3+X+1"
    assert coeffs_to_poly_text(_default_modulus(3, 2)) == "X^2+1"
    assert coeffs_to_poly_text(_default_modulus(3, 3)) == "X^3+2*X+1"


def test_gf4_arithmetic():
    f4 = field_new(2, 2)
    # codes: 0, 1, X, X+1 with X^2 = X+1
    assert [f4.mul(2, b) for b in range(4)] == [0, 2, 3, 1]
    assert [f4.inv(a) for a in range(1, 4)] == [1, 3, 2]
    assert f4.add(2, 3) == 1
    assert f4.pow_(2, 3) == 1  # X has multiplicative order 3


def test_gf256_matches_reference_multiplication():
    f = field_new(2, 8)
    # X^8 = X^4 + X^3 + X + 1 under the default modulus
    assert f.mul(0x80, 2) == 0x1B
    assert f.mul(0x53, 0xCA) == 0x01
    assert f.inv(0x53) == 0xCA


def test_extension_field_axioms_random():
    rng = random.Random(11)
    for p, m in ((2, 4), (3, 3), (5, 2), (2, 8)):
        f = field_new(p, m)
        for _ in range(60):
            a = rng.randrange(f.q)
            b = rng.randrange(f.q)
            c = rng.randrange(f.q)
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.sub(f.add(a, b), b) == a
            if a:
                assert f.mul(a, f.inv(a)) == 1
                assert f.mul(f.mul(b, f.inv(a)), a) == b


def test_fermat_in_random_fields():
    rng = random.Random(7)
    for p, m in ((2, 5), (3, 4), (7, 1), (2, 10)):
        f = field_new(p, m)
        for _ in range(20):
            a = rng.randrange(1, f.q)
            assert f.pow_(a, f.q - 1) == 1


def test_division_by_zero():
    f = field_new(3)
    with pytest.raises(DivisionByZero):
        f.inv(0)
    with pytest.raises(DivisionByZero):
        f.pow_(0, -1)


@pytest.mark.parametrize("entry", [
    lambda f, c: Poly(f, (1, c)),
    lambda f, c: Poly(f, (1, 1))(c),
    lambda f, c: LinearCodeView(f, [[1, c]]),
], ids=["Poly", "Poly.__call__", "LinearCodeView"])
@pytest.mark.parametrize("q", (2, 3, 4, 9))
def test_public_entries_check_the_codes_field_ops_trust(entry, q):
    # Field's operations run unchecked (over GF(4), mul(7, 1) raises
    # IndexError; over GF(3), mul(5, 1) returns 2), so every public entry
    # that takes codes from a caller checks them
    f = field_of_order(q)
    entry(f, q - 1)
    for code in (q, 2 * q + 1):
        with pytest.raises(FieldMismatch):
            entry(f, code)


def test_custom_modulus_accepted_and_validated():
    f = field_new(2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1))  # X^8+X^4+X^3+X^2+1
    assert f.q == 256
    assert f.mul(0x80, 2) == 0x1D
    with pytest.raises(NotIrreducible):
        field_new(2, 4, (1, 0, 0, 0, 1))  # X^4+1 = (X+1)^4


def test_explicit_modulus_is_tested_once(monkeypatch):
    import qcproduct.field as field_module

    tested = []
    frobenius = field_module._frobenius_irreducible
    monkeypatch.setattr(field_module, "_frobenius_irreducible",
                        lambda coeffs, p: tested.append(coeffs) or frobenius(coeffs, p))
    _is_irreducible.cache_clear()
    modulus = (2, 2, 1)  # X^2+2X+2 over GF(3)
    assert Field(3, 2, modulus) == Field(3, 2, modulus)
    assert tested == [modulus]
    # the prime field the test builds is built once per characteristic
    before = _prime_field.cache_info()
    assert _frobenius_irreducible((1, 0, 2, 1), 3)  # X^3+2X^2+1 has no root
    after = _prime_field.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    with pytest.raises(NotIrreducible):
        Field(3, 2, (2, 0, 1))  # X^2+2 = (X+1)(X+2)
    with pytest.raises(NotIrreducible):
        Field(3, 2, (2, 0, 1))
    assert tested == [modulus, (2, 0, 1)]


def test_field_equality_and_hash():
    assert field_new(2, 4) == field_new(2, 4)
    assert field_new(2, 4) != field_new(2, 3)
    assert hash(field_new(3)) == hash(field_new(3))
    custom = field_new(2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1))
    assert custom != field_new(2, 8)


def test_prime_field_modulus_is_normalised():
    # every monic degree-1 modulus X + c gives the same field GF(p)
    assert Field(2, 1, (1, 1)) == Field(2)
    assert hash(Field(2, 1, (1, 1))) == hash(Field(2))
    assert Field(5, 1, (3, 1)) == Field(5)
    assert Field(5, 1, (3, 1)).modulus == (0, 1)
    with pytest.raises(TypeError):  # text is for poly_from_text, not Field
        Field(5, 1, "31")
    with pytest.raises(DegreeMismatch):
        Field(2, 1, (1, 1, 1))
    with pytest.raises(DegreeMismatch):
        Field(3, 1, (1, 2))  # not monic


def test_explicit_modulus_drops_its_trailing_zeros():
    # codes are read mod p, so a trailing p is a trailing zero as well
    assert Field(3, 2, (1, 0, 1, 0)) == Field(3, 2, (1, 0, 1))
    assert Field(3, 2, (1, 0, 1, 0, 3, 0)).modulus == (1, 0, 1)
    assert Field(2, 1, (1, 1, 0)) == Field(2)
    with pytest.raises(DegreeMismatch):
        Field(3, 3, (1, 0, 1, 0))  # degree 2 after the strip


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def test_sparse_text_parsing():
    assert poly_text_to_coeffs("X^8+X^4+X^3+X^2+1") == (1, 0, 1, 1, 1, 0, 0, 0, 1)
    assert poly_text_to_coeffs("X") == (0, 1)
    assert poly_text_to_coeffs("1") == (1,)
    assert poly_text_to_coeffs("0") == (0,)  # raw coefficients; Poly trims
    assert poly_text_to_coeffs("2*X^2+X") == (0, 1, 2)
    assert poly_text_to_coeffs("X^3 + X") == (0, 1, 0, 1)
    # every ASCII whitespace character is ignored, wherever it stands
    for text in ("X^2\n+1", "X^2+\n1", "X^2\t+1", "X^2\n\n+1", "X^2\r\n+1\r\n",
                 "X\n^2+\v1", "\fX ^ 2 +1"):
        assert poly_text_to_coeffs(text) == (1, 0, 1)
    assert poly_text_to_coeffs("X^1\t0+1") == (1,) + (0,) * 9 + (1,)
    # other characters are not whitespace here
    for bad in ("X^2\u00a0+1", "X^2\x00+1", "X^2\x1c+1"):
        with pytest.raises(PolyParseError):
            poly_text_to_coeffs(bad)


def test_dense_text_parsing():
    assert poly_text_to_coeffs("1,0,1,1,1,0,0,0,1") == (1, 0, 1, 1, 1, 0, 0, 0, 1)
    assert poly_text_to_coeffs("0, 0, 0") == (0, 0, 0)
    assert poly_text_to_coeffs("1, 2") == (1, 2)


def test_dense_text_is_bounded_as_sparse_text_is():
    # X^(2^20) is the highest term either form reads: a longer dense list
    # is refused by its comma count, before any coefficient is converted
    top = 1 << 20
    assert poly_text_to_coeffs("0," * top + "1")[top] == 1
    with pytest.raises(PolyParseError, match="dense list"):
        poly_text_to_coeffs("0," * (top + 1) + "1")
    with pytest.raises(PolyParseError):
        poly_text_to_coeffs(f"X^{top + 1}")


def test_text_negative_and_duplicate_terms():
    assert poly_text_to_coeffs("X^2-1") == (-1, 0, 1)
    assert poly_text_to_coeffs("X+X") == (0, 2)
    assert poly_text_to_coeffs("-2*X") == (0, -2)
    assert poly_text_to_coeffs("3X") == (0, 3)  # '*' is optional


def test_text_printer_round_trip():
    for text in ("X^8+X^4+X^3+X^2+1", "X^2+2*X+1", "X", "1", "0", "X^5+X^2"):
        assert coeffs_to_poly_text(poly_text_to_coeffs(text)) == text


def _plain_text(coeffs) -> str:
    """Sparse text written term by term, highest power first."""
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        if c := coeffs[e]:
            x = "X" if e == 1 else f"X^{e}"
            terms.append(str(c) if e == 0 else x if c == 1 else f"{c}*{x}")
    return "+".join(terms) or "0"


def test_text_printer_matches_the_plain_renderer_beyond_its_memo():
    # "X^e" is kept for e < 1024; sparse texts up to X^1048576 take the
    # other branch, with coefficient 1 and other codes, the constant term
    # and X among the terms
    rng = random.Random(1024)
    top = 1 << 20
    for case in range(30):
        deg = (1023, 1024, 1025, top)[case % 4] if case < 8 else rng.randrange(1024, top + 1)
        coeffs = [0] * (deg + 1)
        coeffs[deg] = rng.choice((1, 2, 6))
        for e in rng.sample(range(deg), 12) + [0, 1, 2, 1023, 1024][:case % 6]:
            if e < deg:
                coeffs[e] = rng.choice((0, 1, 1, 2, 4, 250))
        assert coeffs_to_poly_text(coeffs) == _plain_text(coeffs), case


def test_text_parse_errors():
    from qcproduct import PolyParseError
    for bad in ("X^", "y+1", "1..2", "X**2", "++", ""):
        with pytest.raises(PolyParseError):
            poly_text_to_coeffs(bad)


@st.composite
def sparse_text(draw):
    """Sparse polynomial text and the raw coefficients it stands for,
    summed from the generated terms.  A term varies in its sign, a written
    or implied coefficient, '*', 'x' or 'X', leading zeros in its
    exponent, and spaces; exponents repeat."""
    terms = draw(st.lists(st.tuples(
        st.sampled_from("+-"),
        st.none() | st.integers(0, 10 ** 6),  # None: no coefficient written
        st.none() | st.integers(0, 12),  # None: a constant term
        st.booleans(),  # '*' before the letter
        st.sampled_from("xX"),
        st.integers(0, 3),  # leading zeros of the exponent
        st.booleans(),  # X^1 written as X
    ), min_size=1, max_size=10))
    tokens, sums = [], {}
    for sign, coeff, exp, star, letter, zeros, bare in terms:
        if coeff is None and exp is None:
            coeff = 0
        term = [sign, "" if coeff is None else str(coeff)]
        if exp is not None:
            term += ["*" if star else "", letter]
            if not (bare and exp == 1):
                term += ["^", "0" * zeros + str(exp)]
        tokens += term
        exp = exp or 0
        value = 1 if coeff is None else coeff
        sums[exp] = sums.get(exp, 0) + (-value if sign == "-" else value)
    if tokens[0] == "+" and draw(st.booleans()):
        tokens[0] = ""  # the first sign may be left out
    spaces = draw(st.lists(st.sampled_from(("", "", " ", "  ")),
                           min_size=len(tokens), max_size=len(tokens)))
    text = "".join(sp + tok for sp, tok in zip(spaces, tokens))
    want = [0] * (max(sums) + 1)
    for exp, value in sums.items():
        want[exp] = value
    return text, tuple(want)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(sparse_text())
def test_sparse_text_sums_its_terms(case):
    text, want = case
    assert poly_text_to_coeffs(text) == want


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.text(alphabet="0123456789Xx^*+-, ", max_size=24))
def test_text_over_the_parser_alphabet_parses_or_raises_parse_error(text):
    try:
        coeffs = poly_text_to_coeffs(text)
    except PolyParseError:
        return
    assert coeffs and all(type(c) is int for c in coeffs)


# ---------------------------------------------------------------------------
# irreducibility testing
# ---------------------------------------------------------------------------

def test_irreducibility_known_cases():
    assert _is_irreducible((1, 1, 1), 2)          # X^2+X+1
    assert not _is_irreducible((1, 0, 0, 1), 2)   # X^3+1
    assert _is_irreducible((1, 0, 1), 3)          # X^2+1 over GF(3)
    assert not _is_irreducible((3, 0, 1), 7)      # X^2+3 = (X+2)(X+5) over GF(7)
    assert not _is_irreducible((0, 1, 1), 2)      # X^2+X has root 0


def _rem(u, v, p):
    """Remainder of u modulo a monic v over GF(p), trailing zeros dropped:
    the references' own long division, separate from the package's."""
    r = list(u)
    while len(r) >= len(v):
        c, shift = r[-1], len(r) - len(v)
        for j, b in enumerate(v):
            r[shift + j] = (r[shift + j] - c * b) % p
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return r


def _trial_division_irreducible(coeffs, p):
    deg = len(coeffs) - 1
    return all(_rem(coeffs, cand, p)
               for d in range(1, deg // 2 + 1) for cand in _monic_candidates(p, d))


def test_frobenius_agrees_with_trial_division():
    rng = random.Random(3)
    for p in (2, 3):
        for _ in range(120):
            deg = rng.randint(2, 9)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
            if coeffs[0] == 0:
                coeffs[0] = 1
            t = tuple(coeffs)
            assert _trial_division_irreducible(t, p) == _frobenius_irreducible(t, p)


def test_ben_or_agrees_with_rabin_on_every_small_monic():
    # every monic polynomial of degree 1-6 over GF(2) and GF(3) and of
    # degree 1-4 over GF(5) and GF(7): 4,798 in all
    for p, top in ((2, 6), (3, 6), (5, 4), (7, 4)):
        for deg in range(1, top + 1):
            for c in _monic_candidates(p, deg):
                assert _frobenius_irreducible(c, p) == irredref.rabin_irreducible(c, p), (p, c)


@st.composite
def monics(draw):
    """(coeffs, p): a random monic of degree 1-16, or a product of two, or
    a default modulus, over GF(2), GF(3), GF(5), GF(7), GF(11) or
    GF(2^31 - 1)."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11, 2 ** 31 - 1)))
    deg = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(("random", "product", "modulus")))
    if kind == "modulus":
        return _default_modulus(p, deg), p
    if kind == "product" and deg > 1:
        a = draw(st.integers(1, deg - 1))
        f, g = (Poly(Field(p), draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)) + [1])
                for d in (a, deg - a))
        return (f * g).coeffs, p
    return tuple(draw(st.lists(st.integers(0, p - 1), min_size=deg, max_size=deg))) + (1,), p


@settings(derandomize=True, max_examples=400, deadline=None)
@given(monics())
def test_ben_or_agrees_with_rabin(case):
    coeffs, p = case
    assert _frobenius_irreducible(coeffs, p) == irredref.rabin_irreducible(coeffs, p)


def test_default_modulus_equals_the_walk_on_rabin_s_test():
    # the reference walks every candidate, binomials included; the package
    # skips them unless every prime factor of m divides p - 1 (and p = 1
    # mod 4 when 4 | m): here for every m >= 2 over GF(2), every m >= 3 over
    # GF(3), and 7, 11, 13 and 14 over GF(13), for example
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(1, 17):
            assert _default_modulus(p, m) == irredref.default_modulus(p, m), (p, m)


def test_large_default_moduli_are_irreducible():
    # the big helper fields behind minimal-polynomial computation
    for p, deg in ((2, 28), (2, 58), (3, 16), (3, 52)):
        mod = _default_modulus(p, deg)
        assert len(mod) == deg + 1 and mod[-1] == 1
        assert _frobenius_irreducible(mod, p)


def test_default_modulus_matches_the_walk_over_every_candidate():
    # skipping the binomials X^m + c must never skip an irreducible one
    for p in (q for q in range(2, 40) if _prime_factors(q) == (q,)):
        for m in range(2, 9):
            walk = next(c for c in _monic_candidates(p, m)
                        if c[0] and _frobenius_irreducible(c, p))
            assert _default_modulus(p, m) == walk, (p, m)


def test_default_modulus_with_no_binomial_is_quick():
    # no X^4 + c is irreducible over GF(2^31 - 1), since 2^31 - 1 = 3 mod 4,
    # so an unskipped walk ran about 2^31 Frobenius tests
    import qcproduct
    src = str(Path(qcproduct.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-m", "qcproduct.cli", "factor",
                          str(2 ** 31 - 1), "5"], capture_output=True, text=True,
                         timeout=20, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    assert "m_1 = X^4+X^3+X^2+X+1" in out.stdout


# ---------------------------------------------------------------------------
# roots of unity
# ---------------------------------------------------------------------------

def test_nth_root_of_unity_has_exact_order():
    f16 = field_new(2, 4)
    r = nth_root_of_unity(f16, 5)
    assert r == 8
    assert f16.pow_(r, 5) == 1
    assert r != 1

    f9 = field_new(3, 2)
    r8 = nth_root_of_unity(f9, 8)
    assert r8 == 4
    powers = {f9.pow_(r8, k) for k in range(8)}
    assert len(powers) == 8  # a primitive 8th root generates all of GF(9)*


def test_nth_root_requires_divisibility():
    with pytest.raises(NoSuchRoot):
        nth_root_of_unity(field_new(2, 4), 7)  # 7 does not divide 15


def test_nth_root_refuses_a_bool_order():
    # True would be read as the order 1 and answer the code 1
    for n in (True, False):
        with pytest.raises(NoSuchRoot):
            nth_root_of_unity(field_new(5), n)
    assert nth_root_of_unity(field_new(5), Index(2)) == 4


def test_nth_root_trivial_order():
    f = field_new(5)
    assert nth_root_of_unity(f, 1) == 1
    assert nth_root_of_unity(f, 2) == 4  # the unique element of order 2


ROOT_ORDERS = [(p, s, n) for p in (2, 3, 5, 7, 11, 13, 17) for s in (1, 2, 3, 4)
               for n in range(1, p ** s) if p ** s <= 2 ** 13 and (p ** s - 1) % n == 0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(ROOT_ORDERS))
def test_root_search_start_matches_the_earlier_rule(case):
    """The search skips GF(p) unless n divides (p-1)/gcd(p-1, (q-1)/n);
    the earlier rule skipped it unless n divides p - 1, and tried in vain
    the candidates in between (25 of these 237 cases, GF(25) with n = 4
    among them)."""
    p, s, n = case
    f = field_new(p, s)
    assert nth_root_of_unity(f, n) == rootref.nth_root_of_unity(f, n)


def test_root_search_skips_prime_field_candidates_of_the_wrong_order(monkeypatch):
    """Over GF(65521^3) every g^((q-1)/63) with g in GF(65521) has order
    dividing 21, so the search must not try those 65,520 candidates."""
    import qcproduct.field as field_module

    f = field_new(65521, 3)
    tried = []
    monkeypatch.setattr(field_module, "_order",
                        lambda *args: tried.append(1) or _order(*args))
    root = nth_root_of_unity(f, 63)
    assert _order(f.pow_, root, 63) == 63
    assert len(tried) < 100


@pytest.mark.parametrize("q", [5, 7, 4, 8, 9, 16, 25, 27])
def test_order_matches_brute_force(q):
    f = field_of_order(q)
    for a in range(1, q):
        order, x = 1, a
        while x != 1:
            x, order = f.mul(x, a), order + 1
        # any exponent n with a^n = 1 will do, not only q - 1
        assert _order(f.pow_, a, q - 1) == order
        assert _order(f.pow_, a, 6 * (q - 1)) == order


def test_field_pickle_round_trip():
    import pickle
    f = field_new(2, 8)
    g = pickle.loads(pickle.dumps(f))
    assert g == f and g.mul(7, 9) == f.mul(7, 9)


# ---------------------------------------------------------------------------
# the table kernel and the generic path against a schoolbook reference
# ---------------------------------------------------------------------------

class Reference:
    """GF(p^m) arithmetic on base-p digit vectors: schoolbook products
    reduced by _rem, digit-wise sums, and left-to-right binary powers.
    It shares no code with Field's kernels."""

    def __init__(self, field):
        self.p, self.m, self.modulus = field.p, field.m, field.modulus

    def digits(self, code):
        out = []
        for _ in range(self.m):
            code, d = divmod(code, self.p)
            out.append(d)
        return out

    def code(self, digits):
        return sum(d * self.p ** i for i, d in enumerate(digits))

    def digitwise(self, fn, *codes):
        return self.code([fn(*ds) % self.p for ds in zip(*map(self.digits, codes))])

    def mul(self, a, b):
        u, v = self.digits(a), self.digits(b)
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        return self.code(_rem(prod, self.modulus, self.p))

    def pow(self, a, e):
        out = 1
        for bit in bin(e)[2:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out


def check_against_reference(f, ref, a, b, c, e):
    assert f.add(a, b) == ref.digitwise(lambda x, y: x + y, a, b)
    assert f.sub(a, b) == ref.digitwise(lambda x, y: x - y, a, b)
    assert f.neg(a) == ref.digitwise(lambda x: -x, a)
    assert f.mul(c, a) == ref.digitwise(lambda x: c * x, a)  # c < p is a constant
    assert f.mul(a, b) == ref.mul(a, b)
    if a:
        inv = f.inv(a)
        assert ref.mul(a, inv) == 1
        assert f.pow_(a, e) == ref.pow(a, e % (f.q - 1))
        assert f.pow_(a, -e) == ref.pow(inv, e % (f.q - 1))
    else:
        assert f.pow_(a, e) == (0 if e else 1)


PRIME_POWERS = [q for q in range(2, 257) if len(_prime_factors(q)) == 1]


@pytest.mark.parametrize("q", [q for q in PRIME_POWERS if q <= 81])
def test_table_kernel_all_pairs(q):
    f = field_of_order(q)
    ref = Reference(f)
    for a in range(q):
        for b in range(q):
            assert f.mul(a, b) == ref.mul(a, b)
            assert f.add(a, b) == ref.digitwise(lambda x, y: x + y, a, b)
            assert f.sub(a, b) == ref.digitwise(lambda x, y: x - y, a, b)
    for a in range(q):
        check_against_reference(f, ref, a, a, a % f.p, 3 * a + 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([q for q in PRIME_POWERS if q > 81]), st.data())
def test_table_kernel_sampled_pairs(q, data):
    f = field_of_order(q)
    a, b = (data.draw(st.integers(0, q - 1)) for _ in range(2))
    c = data.draw(st.integers(0, f.p - 1))
    e = data.draw(st.integers(0, 3 * q))
    check_against_reference(f, Reference(f), a, b, c, e)


# GF(2^58) is the largest internal extension (m = 59 over GF(2) and GF(4)),
# and GF((2^31 - 1)^2) multiplies in Kronecker slots 8 bytes wide
GENERIC_FIELDS = {(p, m): field_new(p, m)
                  for p, m in ((2, 13), (3, 9), (5, 6), (2, 58), (2 ** 31 - 1, 2))}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(GENERIC_FIELDS)), st.data())
def test_generic_path_sampled_pairs(pm, data):
    f = GENERIC_FIELDS[pm]
    assert f.q > _TABLE_LIMIT and f._log is None
    a, b = (data.draw(st.integers(0, f.q - 1)) for _ in range(2))
    c = data.draw(st.integers(0, f.p - 1))
    e = data.draw(st.integers(0, 40))
    check_against_reference(f, Reference(f), a, b, c, e)


def test_table_limit_boundary():
    assert field_new(2, 12)._log is not None
    assert field_new(2, 13)._log is None
    assert field_new(3, 7)._zech is not None
    assert field_new(3, 8)._zech is None


# ---------------------------------------------------------------------------
# bounds on untrusted input
# ---------------------------------------------------------------------------

def test_exponent_above_limit_rejected_before_allocation():
    # just over the limit, so a missing guard fails the test without
    # allocating much
    with pytest.raises(PolyParseError):
        poly_text_to_coeffs(f"X^{_MAX_EXPONENT + 1}+1")
    with pytest.raises(PolyParseError):
        poly_text_to_coeffs("X^" + "9" * 5000)
    assert poly_text_to_coeffs("X^0003") == (0, 0, 0, 1)


def test_characteristic_above_limit_rejected():
    with pytest.raises(NotPrime):
        field_new(2 ** 31 + 11)  # prime, but beyond the trial-division bound
    assert field_new(2 ** 31 - 1).inv(2) == 2 ** 30


def test_large_prime_square_field_builds_in_bounded_memory():
    # the default-modulus search must not hold all p^2 candidates: under a
    # 1 GB address-space cap, materialising range(p) alone runs out
    pytest.importorskip("resource")
    import qcproduct
    src = str(Path(qcproduct.__file__).resolve().parent.parent)
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from qcproduct import Field\n"
            "print(Field(2 ** 31 - 1, 2).modulus)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "(1, 0, 1)"


def test_import_does_not_load_numpy():
    import qcproduct
    src = str(Path(qcproduct.__file__).resolve().parent.parent)
    # the exhaustive-distance oracle runs without numpy too
    code = ("import sys, qcproduct as qc\n"
            "for p, m in ((3, 1), (3, 2)):\n"
            "    f = qc.field_new(p, m)\n"
            "    code = qc.OneLevelCode(qc.Poly(f, (1, 1)), [], 1, 4)\n"
            "    assert qc.min_distance(qc.expand_to_linear(code.basis())) == 2\n"
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"
