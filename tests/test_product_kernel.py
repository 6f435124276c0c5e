"""The product constructions, `CyclicCode` and `reduce_vector` in the
polynomial kernel: each against its `Poly`-operator reference
(`tests/productref.py`), over prime fields and extension fields of both
kernels, and a check that none of them calls `Poly` arithmetic; and
`modular_substitute` against its earlier body."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import productref as ref
from qcproduct import (
    CyclicCode,
    DivisionByZero,
    GeneratingMatrix,
    NotADivisor,
    OneLevelCode,
    Poly,
    PolyVector,
    QcError,
    RgbPotBasis,
    bezout_pair,
    factor_xm_minus_1,
    field_of_order,
    modular_substitute,
    one_level_product_rgb,
    reduce_vector,
    rgb_pot_reduce,
    unreduced_product_basis,
    x_pow_minus_one,
)
from qcproduct import polyring, product

ORDERS = (2, 3, 4, 5, 8, 9)


def _outcome(call):
    """call()'s value, or the type and message of the QcError it raised."""
    try:
        return call()
    except QcError as exc:
        return type(exc), str(exc)


def _parts(code) -> tuple:
    """What the reference returns for the same code: (g, fs) of a
    OneLevelCode, (g, k) of a CyclicCode."""
    return (code.g, code.fs) if isinstance(code, OneLevelCode) else (code.g, code.k)


def _lengths(q: int) -> list:
    return [m for m in range(1, 10) if math.gcd(m, q) == 1]


@st.composite
def polys(draw, field, max_len):
    return Poly(field, draw(st.lists(st.integers(0, field.q - 1), max_size=max_len)))


@st.composite
def divisors(draw, q, m):
    """A divisor of X^m - 1 over GF(q), times a nonzero constant so that
    it is not always monic."""
    field = field_of_order(q)
    g = Poly(field, [draw(st.integers(1, q - 1))])
    for _, factor in factor_xm_minus_1(q, m):
        if draw(st.booleans()):
            g = g * factor
    return g


@st.composite
def generators(draw, q, m):
    """Mostly a divisor of X^m - 1, else any polynomial (zero included)."""
    if draw(st.integers(0, 3)):
        return draw(divisors(q, m))
    return draw(polys(field_of_order(q), m + 1))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), q=st.sampled_from(ORDERS))
def test_modular_substitute_matches_reference(data, q):
    # e and shift of either sign, often sharing a factor with N (e = 0
    # sends every code to one position), and up to 2N terms
    field = field_of_order(q)
    N = data.draw(st.integers(1, 24))
    e = data.draw(st.integers(-2 * N, 2 * N) | st.sampled_from([0, N, -N, N // 2]))
    shift = data.draw(st.integers(-2 * N, 2 * N))
    p = data.draw(polys(field, 2 * N))
    assert modular_substitute(p, e, N, shift) == ref.modular_substitute(p, e, N, shift)


@pytest.mark.parametrize("q, coeffs, e, N, shift, want", [
    # X^2 and 1 meet at X^3 and cancel, below them X lands on X^1
    (2, (1, 1, 1), 2, 4, 3, (0, 1)),
    # every code lands on X^2; 1 + 2 = 0 over GF(3)
    (3, (1, 2), 0, 5, -3, ()),
    # 1 and X^3 meet at the top position X^5 and cancel (2 + 1 over
    # GF(3)); X^2 lands on X^3
    (3, (2, 0, 1, 1), 2, 6, 5, (0, 0, 0, 1)),
])
def test_modular_substitute_cuts_below_a_cancelled_top(q, coeffs, e, N, shift, want):
    p = Poly(field_of_order(q), coeffs)
    got = modular_substitute(p, e, N, shift)
    assert got.coeffs == want
    assert got == ref.modular_substitute(p, e, N, shift)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), q=st.sampled_from(ORDERS))
def test_one_level_code_matches_reference(data, q):
    # acceptance and refusal of (g, fs), multipliers folded from up to 2m
    # terms, the row, and from_basis on the code's basis and on a top row
    # whose entry is no multiple of g
    field, m = field_of_order(q), data.draw(st.sampled_from(_lengths(q)))
    ell = data.draw(st.integers(1, 3))
    g = data.draw(generators(q, m))
    fs = [data.draw(polys(field, 2 * m)) for _ in range(ell - 1)]
    want = _outcome(lambda: ref.one_level(g, fs, m))
    assert _outcome(lambda: _parts(OneLevelCode(g, fs, ell, m))) == want
    if not isinstance(want[0], Poly):
        return
    code = OneLevelCode(g, fs, ell, m)
    assert code.row() == ref.row(code.g, code.fs)
    basis = code.basis()
    if code.g != x_pow_minus_one(field, m):  # level 1
        assert _parts(OneLevelCode.from_basis(basis)) == ref.from_basis(basis.matrix, m) \
            == want
    if ell > 1 and 0 < code.g.degree < m:
        top = [code.g] + [data.draw(polys(field, m)) for _ in range(ell - 1)]
        other = RgbPotBasis(field, ell, m, [top] + list(basis.matrix[1:]))
        assert _outcome(lambda: _parts(OneLevelCode.from_basis(other))) \
            == _outcome(lambda: ref.from_basis(other.matrix, m))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), q=st.sampled_from(ORDERS))
def test_cyclic_code_matches_reference(data, q):
    # lengths that share a factor with the characteristic are refused too
    m = data.draw(st.integers(1, 9))
    g = data.draw(generators(q, m) if math.gcd(m, q) == 1
                  else polys(field_of_order(q), m + 1))
    assert _outcome(lambda: _parts(CyclicCode(m, g))) \
        == _outcome(lambda: ref.cyclic_code(m, g))


@st.composite
def products(draw, q):
    """(A, B, params) over GF(q) with gcd(ell_a*m_a, m_b) = 1."""
    field, ell = field_of_order(q), draw(st.integers(1, 3))
    m_a = draw(st.sampled_from(_lengths(q)))
    m_b = draw(st.sampled_from([m for m in _lengths(q) if math.gcd(m, ell * m_a) == 1]))
    fs = [draw(polys(field, m_a)) for _ in range(ell - 1)]
    A = OneLevelCode(draw(divisors(q, m_a)), fs, ell, m_a)
    B = CyclicCode(m_b, draw(divisors(q, m_b)))
    return A, B, bezout_pair(ell, m_a, m_b)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), q=st.sampled_from(ORDERS))
def test_product_routes_match_reference(data, q):
    # the closed form, and the direct route on the row code's basis and on
    # a reduced basis of any level
    A, B, p = data.draw(products(q))
    assert _parts(one_level_product_rgb(A, B, p)) == ref.one_level_product(A.g, A.fs, B.g, p)
    field = A.field
    rows = [[data.draw(polys(field, A.m)) for _ in range(A.ell)] for _ in range(2)]
    for basis in (A.basis(), rgb_pot_reduce(GeneratingMatrix(field, A.ell, A.m, rows))):
        direct = unreduced_product_basis(basis, B, p)
        assert [list(r) for r in direct.rows] == ref.unreduced_product(basis.matrix, B.g, p)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data(), q=st.sampled_from(ORDERS))
def test_reduce_vector_matches_reference(data, q):
    field, ell = field_of_order(q), data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, 9))
    rows = [[data.draw(polys(field, 2 * m)) for _ in range(ell)]
            for _ in range(data.draw(st.integers(0, 3)))]
    basis = rgb_pot_reduce(GeneratingMatrix(field, ell, m, rows))
    v = [data.draw(polys(field, m)) for _ in range(ell)]
    got = reduce_vector(basis, PolyVector(v, m))
    assert list(got.components) == ref.reduce_vector(basis.matrix, m, v)
    # a basis that RgbPotBasis accepts but reduction never produces: entries
    # right of the diagonal of degree m and up, diagonals of degree above m,
    # zero entries, and entries left of the diagonal, which are ignored
    raw = [[data.draw(polys(field, 3 * m + 1)) for _ in range(ell)] for _ in range(ell)]
    for i in range(ell):
        low = data.draw(st.integers(0, 2 * m + 1).flatmap(
            lambda n: st.lists(st.integers(0, q - 1), min_size=n, max_size=n)))
        raw[i][i] = Poly(field, low + [data.draw(st.integers(1, q - 1))])
    basis = RgbPotBasis(field, ell, m, raw)
    got = reduce_vector(basis, PolyVector(v, m))
    assert list(got.components) == ref.reduce_vector(basis.matrix, m, v)


def test_zero_divisor_refusals_match_reference():
    # a basis is built unchecked; a zero divisor is refused, never divided by
    field = field_of_order(3)
    zero, one, xm1 = Poly.zero(field), Poly.one(field), x_pow_minus_one(field, 4)
    basis = RgbPotBasis(field, 2, 4, [[zero, one], [zero, xm1]])
    v = [one, one]
    for call in (lambda: OneLevelCode.from_basis(basis),
                 lambda: ref.from_basis(basis.matrix, 4),
                 lambda: reduce_vector(basis, PolyVector(v, 4)),
                 lambda: ref.reduce_vector(basis.matrix, 4, v)):
        with pytest.raises(DivisionByZero, match="polynomial division by zero"):
            call()


def _record_poly_arithmetic(monkeypatch) -> list:
    """A list that grows by the name of each Poly operator, monic or
    poly_gcd called."""
    calls = []
    for name in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__",
                 "__divmod__", "__floordiv__", "__mod__", "monic"):
        original = getattr(Poly, name)
        monkeypatch.setattr(Poly, name, lambda *args, _o=original, _n=name:
                            calls.append(_n) or _o(*args))
    for module in (polyring, product):  # product.poly_gcd too, were it imported there
        monkeypatch.setattr(module, "poly_gcd", lambda *args, _o=polyring.poly_gcd:
                            calls.append("poly_gcd") or _o(*args), raising=False)
    return calls


@pytest.mark.parametrize("q", ORDERS)
def test_product_constructions_make_no_poly_arithmetic(q, monkeypatch):
    # non-monic divisors and multipliers longer than m, as the kernel sees
    # them from a document or a caller
    field = field_of_order(q)
    c = field.q - 1  # a nonzero constant, not 1 over GF(3) and up
    g_a = factor_xm_minus_1(q, 7)[-1][1].scale(c)
    g_b = factor_xm_minus_1(q, 11)[0][1].scale(c)
    refused_g = Poly(field, [0, 0, c])  # X does not divide X^7 - 1
    fs = [Poly(field, [(3 * k + 1) % q for k in range(17)]),
          Poly(field, [(k * k + 2) % q for k in range(11)])]
    v = [Poly(field, [(5 * k + j) % q for k in range(6)]) for j in range(3)]
    calls = _record_poly_arithmetic(monkeypatch)
    A = OneLevelCode(g_a, fs, 3, 7)
    B = CyclicCode(11, g_b)
    p = bezout_pair(3, 7, 11)
    basis = A.basis()
    back = OneLevelCode.from_basis(basis)
    closed = one_level_product_rgb(A, B, p)
    direct = unreduced_product_basis(basis, B, p)
    reduced = reduce_vector(basis, PolyVector(v, 7))
    refused = _outcome(lambda: _parts(CyclicCode(7, refused_g)))
    assert calls == []
    monkeypatch.undo()
    assert _parts(A) == ref.one_level(g_a, fs, 7) == _parts(back)
    assert _parts(B) == ref.cyclic_code(11, g_b)
    assert _parts(closed) == ref.one_level_product(A.g, A.fs, B.g, p)
    assert [list(r) for r in direct.rows] == ref.unreduced_product(basis.matrix, B.g, p)
    assert list(reduced.components) == ref.reduce_vector(basis.matrix, 7, v)
    assert refused == _outcome(lambda: ref.cyclic_code(7, refused_g))
    assert refused[0] is NotADivisor
