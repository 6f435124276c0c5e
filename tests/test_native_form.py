"""The native form a ``Poly`` carries.

A polynomial that the GF(2), GF(3) or GF(4) kernel computed keeps that
kernel's form of its codes (a bitmask, or a pair of bit planes) in
`native`, so the next kernel call reads it instead of converting the codes
again.  On hypothesis draws: every native form a returned ``Poly`` carries
is the one the kernel converts its codes to, through arithmetic, the gcds,
the fold, canonical reduction and both product routes; sums, differences,
products and divisions always carry one; polynomials read from codes or
text, substitutions and every polynomial over GF(5) or GF(9) carry none;
and the form changes no comparison, hash or pickle round trip.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from qcproduct import (
    GeneratingMatrix,
    OneLevelCode,
    Poly,
    bezout_pair,
    cyclic_code_new,
    field_of_order,
    fold_mod_xm1,
    level,
    modular_substitute,
    one_level_product_rgb,
    poly_egcd,
    poly_from_text,
    poly_gcd,
    rgb_pot_reduce,
    unreduced_product_basis,
    x_pow_minus_one,
)
from qcproduct.polyring import _kernel

PLANE_FIELDS = [field_of_order(q) for q in (2, 3, 4)]
CODE_FIELDS = [field_of_order(q) for q in (5, 9)]
# (ell_a, m_a, m_b): gcd(ell_a * m_a, m_b) = 1, lengths prime to 2 and 3
SHAPES = [(2, 5, 7), (2, 7, 5), (3, 7, 5), (1, 5, 7)]


def _checked(p: Poly) -> Poly:
    """p, after checking that a native form it carries is its codes' form."""
    if p.native is not None:
        assert p.native == _kernel(p.field).native(p.field, p.coeffs), p
    return p


def _entries(rows):
    return [_checked(e) for row in rows for e in row]


@st.composite
def polys(draw, fields, n: int, max_len: int = 12):
    """(field, n polynomials over it), each from codes or a product."""
    f = draw(st.sampled_from(fields))
    out = []
    for _ in range(n):
        p = Poly(f, draw(st.lists(st.integers(0, f.q - 1), max_size=max_len)))
        out.append(p * Poly(f, [1, 1]) if draw(st.booleans()) else p)
    return f, out


def _every_result(f, a: Poly, b: Poly) -> list:
    """The results of each public operation on a and b."""
    out = [a + b, a - b, a * b, -a, a ** 2, a.monic(), fold_mod_xm1(a * b, 3)]
    if not b.is_zero:
        out += divmod(a, b)
    if not (a.is_zero and b.is_zero):
        out += [poly_gcd(a, b), *poly_egcd(a, b)]
    return out


@settings(derandomize=True, max_examples=150, deadline=None)
@given(polys(PLANE_FIELDS, 2))
def test_every_native_form_is_the_kernels_form(drawn):
    f, (a, b) = drawn
    for x in _every_result(f, a, b):
        _checked(x)
    results = [a + b, a - b, a * b] + (list(divmod(a, b)) if not b.is_zero else [])
    assert all(_checked(x).native is not None for x in results)
    c = a * b  # carrying operands give the same results as converted ones
    assert c + a == Poly(f, c.coeffs) + a and c * c == Poly(f, c.coeffs) * Poly(f, c.coeffs)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(polys(PLANE_FIELDS, 6, max_len=8), st.integers(1, 3), st.integers(1, 6))
def test_reduction_keeps_native_forms_exact(drawn, ell, m):
    f, ps = drawn
    rows = [ps[i:i + ell] for i in range(0, len(ps) - ell + 1, ell)]
    gen = GeneratingMatrix(f, ell, m, rows)
    _entries(gen.rows)
    _entries(rgb_pot_reduce(gen).matrix)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(PLANE_FIELDS), st.sampled_from(SHAPES), st.data())
def test_product_routes_keep_native_forms_exact(f, shape, data):
    ell_a, m_a, m_b = shape
    nonzero = st.lists(st.integers(0, f.q - 1), min_size=1, max_size=8).filter(any)
    g_a = poly_gcd(x_pow_minus_one(f, m_a), Poly(f, data.draw(nonzero)))
    g_b = poly_gcd(x_pow_minus_one(f, m_b), Poly(f, data.draw(nonzero)))
    fs = [Poly(f, data.draw(st.lists(st.integers(0, f.q - 1), max_size=m_a)))
          for _ in range(ell_a - 1)]
    A, B, p = OneLevelCode(g_a, fs, ell_a, m_a), cyclic_code_new(m_b, g_b), bezout_pair(*shape)
    closed = one_level_product_rgb(A, B, p)
    _entries([(closed.g,) + closed.fs, closed.row()])
    unreduced = unreduced_product_basis(A.basis(), B, p)
    direct = rgb_pot_reduce(unreduced)
    _entries(unreduced.rows)
    _entries(direct.matrix)
    assert direct.matrix == closed.basis().matrix
    if level(direct) == 1:
        back = OneLevelCode.from_basis(direct)
        _entries([(back.g,) + back.fs])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(polys(PLANE_FIELDS + CODE_FIELDS, 2), st.integers(-5, 5), st.integers(1, 9))
def test_polys_from_codes_text_and_substitution_carry_none(drawn, e, n):
    f, (a, b) = drawn
    c = a * b
    assert Poly(f, c.coeffs).native is None
    assert poly_from_text(f, "X^2+1").native is None
    assert modular_substitute(c, e, n, e).native is None
    if f in CODE_FIELDS:
        assert all(x.native is None for x in _every_result(f, a, b))
        reduced = rgb_pot_reduce(GeneratingMatrix(f, 2, n, [(a, b), (c, a)]))
        assert all(x.native is None for row in reduced.matrix for x in row)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(polys(PLANE_FIELDS, 2))
def test_native_form_is_not_compared_hashed_or_pickled_apart(drawn):
    f, (a, b) = drawn
    c = a * b
    plain = Poly(f, c.coeffs)
    assert c.native is not None and plain.native is None
    assert c == plain and hash(c) == hash(plain) and repr(c) == repr(plain)
    for x in (c, plain):
        back = pickle.loads(pickle.dumps(x))
        assert back == x and hash(back) == hash(x) and back.native == x.native
