"""The kernels' `divmod`, `divide`, `fold`, `gcd` and `euclid` against the
loops they replaced (`kernelref`), over GF(2), GF(3), GF(4), GF(5) and
GF(9).

Each bit-plane kernel has one Euclid loop, which `euclid` runs to the end
and `divide` and `divmod` stop after one remainder; `divmod` runs it on
the rows (a, 0) and (b, -1).  The bit-plane kernels fold by one halving
helper over `fold_row`, and the code-list kernels halve too; `gcd` is
`euclid` on one-entry rows.  Each is compared with its earlier loop on the
native form (over GF(2), GF(3) and GF(4) the long divisions that took one
call per remainder), and with a schoolbook reference on code lists that
makes one `Field` call per coefficient.  The divisors include 1, other
constants and divisors of the dividend's degree.  Folds reach X^(2^20)
over every field.
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
    same = data.draw(st.integers(1, q - 1).flatmap(lambda c: codes(q, max(len(a), 1), c)))
    for b in (data.draw(nonzero(q, 70)), data.draw(nonzero(q, 1)), [1], same):
        x, y = k.native(f, tuple(a)), k.native(f, tuple(b))
        got = k.divmod(f, x, y)
        assert [_codes(k, f, z) for z in got] == list(ref.divmod_codes(f, a, b))
        if q == 2:
            assert got == ref.divmod2(x, y)
            assert got[1] == ref.rem2(x, y)
        elif q <= 4 and x:  # the same planes, zero the int 0
            want = (ref.rem3, ref.rem4)[q - 3](*x, *y)
            assert got[1] == (want if want[0] | want[1] else 0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(ORDERS), st.dictionaries(st.integers(0, 1 << 20), st.integers(1, 8),
                                                max_size=12), st.integers(1, 70))
@example(2, {1 << 20: 1, 3: 1}, 1)
@example(3, {1 << 20: 2, (1 << 19) + 1: 1}, 3)
@example(4, {1 << 20: 3, 7: 2}, 70)
@example(5, {1 << 20: 4, (1 << 19) + 5: 1}, 1)
@example(9, {1 << 20: 7, 11: 5}, 3)
def test_fold_matches_reference(q, terms, m):
    f = field_of_order(q)
    k = _kernel(f)
    terms = {e: c % q for e, c in terms.items() if c % q}
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
    b0 = draw(st.one_of(nonzero(q, lead), st.just(a0), st.just([1]), nonzero(q, 1),
                        st.integers(1, q - 1).flatmap(lambda c: codes(q, len(a0), c))))
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
    if f.q <= 4:
        assert (top, low) == (ref.euclid2, ref.euclid3, ref.euclid4)[f.q - 2](x, y, n, w)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(rows(), st.integers(0, 3))
def test_divide_matches_reference(case, before):
    # divide at column `before` of rows of before + n entries: a's entries
    # left of it are nonzero and must be kept, b's are zero
    f, a, b, w = case
    k, n = _kernel(f), len(a)
    head = [[1] * (i + 1) for i in range(before)]
    x = k.pack(f, [k.native(f, tuple(e)) for e in head + a], w)
    y = k.pack(f, [k.native(f, tuple(e)) for e in [[]] * before + b], w)
    got = k.divide(f, x, y, n, w)
    assert [_codes(k, f, e) for e in k.unpack(f, got, before + n, w)] == \
        head + ref.divide_codes(f, a, b)
    if f.q <= 4:  # the long division on the last n entries, the rest kept
        s, last = n * w, (1 << n * w) - 1
        if f.q == 2:
            want = x >> s << s | ref.rem2(x & last, y)
        else:
            r1, r2 = (ref.rem3, ref.rem4)[f.q - 3](x[0] & last, x[1] & last, *y)
            want = (x[0] >> s << s | r1, x[1] >> s << s | r2)
        assert got == want
