"""The kernels' `divmod`, `fold`, `gcd` and `euclid` against the loops they
replaced (`kernelref`), over GF(2), GF(3), GF(4), GF(5) and GF(9).

GF(2)'s `divmod` runs the shared long division on the rows (a, 0) and
(b, 1); the bit-plane kernels fold by one halving helper over `fold_row`;
`gcd` is `euclid` on one-entry rows; GF(3) and GF(4) share one Euclid loop
on rows of pairs.  Each is compared with its earlier loop on the native
form, and with a schoolbook reference on code lists that makes one
`Field` call per coefficient.  Folds reach X^(2^20) over the bit-plane
fields; the code-list kernels fold one block of m codes at a time, so
their draws stop at X^4096.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernelref as ref
from qcproduct import field_of_order
from qcproduct.polyring import _kernel

ORDERS = (2, 3, 4, 5, 9)


def codes(q, longest, lead=None):
    """Code lists of up to longest codes without trailing zeros; with lead,
    exactly longest codes ending in lead."""
    if lead is not None:
        return st.lists(st.integers(0, q - 1), min_size=longest - 1,
                        max_size=longest - 1).map(lambda c: c + [lead])
    return st.integers(0, longest).flatmap(
        lambda n: st.lists(st.integers(0, q - 1), min_size=n, max_size=n)).map(ref._strip)


def nonzero(q, longest):
    return st.tuples(st.integers(1, longest), st.integers(1, q - 1)).flatmap(
        lambda t: codes(q, *t))


def _codes(k, f, x) -> list:
    return list(k.poly(f, x).coeffs)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(ORDERS))
def test_divmod_matches_reference(data, q):
    f = field_of_order(q)
    k = _kernel(f)
    a = data.draw(codes(q, 130))
    for b in (data.draw(nonzero(q, 70)), data.draw(nonzero(q, 1)), [1]):
        x, y = k.native(f, tuple(a)), k.native(f, tuple(b))
        got = k.divmod(f, x, y)
        assert [_codes(k, f, z) for z in got] == list(ref.divmod_codes(f, a, b))
        if q == 2:
            assert got == ref.divmod2(x, y)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(ORDERS), st.dictionaries(st.integers(0, 1 << 20), st.integers(1, 8),
                                                max_size=12), st.integers(1, 70))
@example(2, {1 << 20: 1, 3: 1}, 1)
@example(3, {1 << 20: 2, (1 << 19) + 1: 1}, 3)
@example(4, {1 << 20: 3, 7: 2}, 70)
def test_fold_matches_reference(q, terms, m):
    f = field_of_order(q)
    k = _kernel(f)
    top = 1 << 20 if q <= 4 else 1 << 12
    terms = {e % (top + 1): c % q for e, c in terms.items() if c % q}
    dense = [0] * (max(terms, default=-1) + 1)
    for e, c in terms.items():
        dense[e] = c
    x = k.native(f, tuple(dense))
    got = k.fold(f, x, m)
    assert _codes(k, f, got) == ref.fold_codes(f, terms, m)
    if q <= 4:  # the same native form, zero the int 0
        assert got == (ref.fold2, ref.fold3, ref.fold4)[q - 2](x, m)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(ORDERS))
def test_gcd_matches_reference(data, q):
    # -a*c and -b*c share the factor c, so nontrivial gcds are common
    f = field_of_order(q)
    k = _kernel(f)
    a, b = data.draw(codes(q, 40)), data.draw(codes(q, 40))
    c = data.draw(nonzero(q, 8))
    ac, bc = (ref._sub_mul(f, [], x, c) for x in (a, b))
    for u, v in ((ac, bc), (a, b), (a, []), ([], b), (c, c), (c, ac)):
        if u or v:
            x, y = k.native(f, tuple(u)), k.native(f, tuple(v))
            got = k.gcd(f, x, y, max(len(u), len(v)))
            assert _codes(k, f, got) == _codes(k, f, ref.gcd(f, x, y))


@st.composite
def rows(draw):
    """Two rows of n entries over a field, led by nonzero entries of up to
    lead codes, with others of up to tail codes or zero, and the width
    lead + tail that Euclid's rows need."""
    q = draw(st.sampled_from(ORDERS))
    n, lead, tail = draw(st.integers(1, 4)), draw(st.integers(1, 14)), draw(st.integers(1, 30))
    a0 = draw(nonzero(q, lead))
    b0 = draw(st.one_of(nonzero(q, lead), st.just(a0)))
    a = [a0] + [draw(codes(q, tail)) for _ in range(n - 1)]
    b = [b0] + [draw(codes(q, tail)) for _ in range(n - 1)]
    return field_of_order(q), a, b, lead + tail


@settings(derandomize=True, max_examples=200, deadline=None)
@given(rows())
def test_euclid_matches_reference(case):
    f, a, b, w = case
    k, n = _kernel(f), len(a)
    x, y = (k.pack(f, [k.native(f, tuple(e)) for e in r], w) for r in (a, b))
    top, low = k.euclid(f, x, y, n, w)
    want_top, want_low = ref.euclid_codes(f, a, b)
    assert [_codes(k, f, e) for e in k.unpack(f, top, n, w)] == want_top
    assert [_codes(k, f, e) for e in k.unpack(f, low, n, w)] == want_low
    if f.q in (3, 4):
        assert (top, low) == (ref.euclid3, ref.euclid4)[f.q - 3](x, y, n, w)
