"""The kernels' `euclid` and the `egcd` built on it, against references
that share no code with them.

`egcd` is `euclid` on the rows (u, 1, 0) and (v, 0, 1); `egcdref` keeps
one egcd loop per kind of field.  Over GF(2), GF(3) and GF(4) a row is
packed into one int per plane, entry j in the j-th field of w bits, and a
field too narrow for an entry lets it spill into the next.  The rows here
are packed at w = the most coefficients of a leading entry plus the most
of any other entry, the rule `egcd` follows with its tails of one
coefficient.  `row_euclid` below runs the
same algorithm on lists of `Poly` entries, one division of the leading
entries and one product and one difference per other entry at each step,
with no packing.  The rows are drawn to need the full width: tails up to
degree 3m that are not folded modulo X^m - 1, the pivot X^m - 1, leading
coefficients other than 1, one-entry rows and zero tails.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import egcdref
from qcproduct import Poly, field_of_order, x_pow_minus_one
from qcproduct.polyring import _kernel

ORDERS = (2, 3, 4, 5, 8, 9)


def codes(q, longest):
    return st.integers(0, longest).flatmap(
        lambda n: st.lists(st.integers(0, q - 1), min_size=n, max_size=n))


def polys(field, longest, lead=None):
    """Polynomials of up to longest codes; with lead, exactly longest codes
    and that leading code."""
    if lead is None:
        return codes(field.q, longest).map(lambda c: Poly(field, c))
    return st.lists(st.integers(0, field.q - 1), min_size=longest - 1,
                    max_size=longest - 1).map(lambda c: Poly(field, c + [lead]))


def _native(k, f, p: Poly):
    return k.native(f, p.coeffs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_egcd_matches_the_reference_loops(data):
    f = field_of_order(data.draw(st.sampled_from(ORDERS)))
    k = _kernel(f)
    u, v, c = (data.draw(polys(f, n)) for n in (40, 40, 6))
    zero = Poly.zero(f)
    pairs = [(u, v), (u * c, v * c), (u, zero), (zero, v), (u, u), (c, c * v)]
    for x, y in pairs:
        if x.is_zero and y.is_zero:
            continue
        got = k.egcd(f, x.coeffs, y.coeffs)
        want = tuple(k.poly(f, g) for g in egcdref.egcd(f, _native(k, f, x), _native(k, f, y)))
        assert got == want
        g, s, t = got
        assert s * x + t * y == g and g.is_monic


def row_euclid(a: list, b: list):
    while not b[0].is_zero:
        q, r = divmod(a[0], b[0])
        a, b = b, [r] + [x - q * y for x, y in zip(a[1:], b[1:])]
    if not a[0].is_zero:
        inv = a[0].field.inv(a[0].leading)
        a = [x.scale(inv) for x in a]
    return a, b


@st.composite
def row_pairs(draw):
    """Two rows of n entries over a field: leading entries of degree up to
    m with drawn leading codes, X^m - 1 among them, one of them often a
    unit multiple or a multiple of the other; the other entries up to
    degree 3m with a drawn top code, or zero."""
    f = field_of_order(draw(st.sampled_from(ORDERS)))
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 5))

    def entry(longest):
        lead = draw(st.integers(1, f.q - 1))
        return draw(polys(f, draw(st.integers(1, longest)), lead))

    b0 = entry(m + 1)
    how = draw(st.integers(0, 3))
    if how == 0:  # a unit multiple: the gcd row needs the leading entry's width
        a0 = b0.scale(draw(st.integers(1, f.q - 1)))
    elif how == 1:  # b0 divides a0: one step
        a0 = b0 * entry(3)
    else:
        a0 = x_pow_minus_one(f, m) if how == 2 else entry(m + 1)
    if draw(st.booleans()):
        a0, b0 = b0, a0

    def tail():
        return Poly.zero(f) if draw(st.booleans()) else entry(3 * m + 1)

    a = [a0] + [tail() for _ in range(n - 1)]
    b = [b0] + [tail() for _ in range(n - 1)]
    return f, a, b


@settings(max_examples=400, deadline=None, derandomize=True)
@given(row_pairs())
def test_euclid_matches_the_row_reference(case):
    f, a, b = case
    k = _kernel(f)
    n = len(a)
    w = max(len(a[0].coeffs), len(b[0].coeffs)) + max(
        (len(x.coeffs) for x in a[1:] + b[1:]), default=0)
    top, low = ([k.poly(f, x) for x in k.unpack(f, row, n, w)] for row in k.euclid(
        f, *(k.pack(f, [_native(k, f, x) for x in r], w) for r in (a, b)), n, w))
    want_top, want_low = row_euclid(a, b)
    assert top == want_top
    assert low[0].is_zero
    # a unit multiple of the reference's second row: a kernel may scale
    # the divisor row to make it monic
    assert any(low == [x.scale(c) for x in want_low] for c in range(1, f.q))
