"""The polynomial kernels of ``polyring`` against a schoolbook reference.

The reference below works on plain coefficient lists with one ``% p`` per
operation, independent of the package's code.  Products, divisions, gcds
and extended gcds are compared on derandomised hypothesis draws over
primes from 2 up to the 2^31 characteristic cap, and products are also
checked at both sides of every Kronecker slot-width boundary that fits in
memory.  The GF(2) bitmask product and fold are compared with the same
reference, as is every operation of the GF(3) kernel on bitmask pairs.
The GF(4) kernel on bit planes is compared with the schoolbook extension
kernel, and canonical reduction is checked to build a ``Poly`` only for
its result over GF(2), GF(3), GF(4) and GF(9).  The kernels of GF(2),
GF(3), GF(4), GF(5), GF(9) and GF(16) are checked to make no ``Field``
call, GF(9) and GF(16) once their q x q tables are built.  The folds of
the GF(2), GF(3) and GF(4) kernels, which halve their operand, are
compared with the code-list fold, and folding X^(2^20) is bounded in wall
time.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcproduct import (
    Field,
    GeneratingMatrix,
    Poly,
    field_new,
    fold_mod_xm1,
    is_rgb_pot,
    modular_substitute,
    poly_egcd,
    poly_gcd,
    rgb_pot_reduce,
    x_pow_minus_one,
)
from qcproduct import polyring

PRIMES = (2, 3, 5, 7, 251, 65521, 2 ** 31 - 1)
FIELDS = {p: field_new(p) for p in PRIMES}


# ---------------------------------------------------------------------------
# the reference: schoolbook arithmetic on coefficient lists over GF(p)
# ---------------------------------------------------------------------------

def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def ref_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def ref_sub(a, b, p):
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _trim((x - y) % p for x, y in zip(a, b))


def ref_divmod(a, b, p):
    a, b = _trim(a), _trim(b)
    inv = pow(b[-1], -1, p)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    rem = list(a)
    while len(rem) >= len(b):
        c, shift = rem[-1] * inv % p, len(rem) - len(b)
        quot[shift] = c
        for j, y in enumerate(b):
            rem[shift + j] = (rem[shift + j] - c * y) % p
        rem = _trim(rem)
    return _trim(quot), rem


def ref_monic(a, p):
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def ref_gcd(a, b, p):
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, ref_divmod(a, b, p)[1]
    return ref_monic(a, p)


def ref_egcd(u, v, p):
    """(g, s, t) by the documented contract: s*u + t*v = g with g the monic
    gcd, s reduced modulo v/g, and egcd(u, 0) = (monic(u), 1/lc(u), 0).
    s comes from a plain extended Euclid; reducing it modulo v/g makes it
    unique, and t = (g - s*u)/v is then exact."""
    u, v = _trim(u), _trim(v)
    if not v:
        return ref_monic(u, p), [pow(u[-1], -1, p)], []
    r0, r1, s0, s1 = u, v, [1], []
    while r1:
        q, r = ref_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, ref_sub(s0, ref_mul(q, s1, p), p)
    c = pow(r0[-1], -1, p)
    g, s = ref_monic(r0, p), _trim(x * c % p for x in s0)
    s = ref_divmod(s, ref_divmod(v, g, p)[0], p)[1]
    t, rest = ref_divmod(ref_sub(g, ref_mul(s, u, p), p), v, p)
    assert not rest
    return g, s, t


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------

@st.composite
def operands(draw, count, max_len=48):
    p = draw(st.sampled_from(PRIMES))
    coeffs = st.lists(st.integers(0, p - 1), max_size=max_len)
    return (p,) + tuple(_trim(draw(coeffs)) for _ in range(count))


def _poly(p, codes):
    return Poly(FIELDS[p], codes)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(operands(2))
def test_mul_matches_reference(case):
    p, a, b = case
    assert (_poly(p, a) * _poly(p, b)).coeffs == tuple(ref_mul(a, b, p))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(operands(2))
def test_divmod_matches_reference(case):
    p, a, b = case
    if not b:
        return
    q, r = divmod(_poly(p, a), _poly(p, b))
    ref_q, ref_r = ref_divmod(a, b, p)
    assert (q.coeffs, r.coeffs) == (tuple(ref_q), tuple(ref_r))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(operands(3, max_len=16))
def test_gcd_and_egcd_match_reference(case):
    # a common factor c makes nontrivial gcds common
    p, a, b, c = case
    a, b = ref_mul(a, c, p) or a, ref_mul(b, c, p) or b
    if not a and not b:
        return
    u, v = _poly(p, a), _poly(p, b)
    g, s, t = poly_egcd(u, v)
    ref_g, ref_s, ref_t = ref_egcd(a, b, p)
    assert poly_gcd(u, v).coeffs == tuple(ref_g)
    assert (g.coeffs, s.coeffs, t.coeffs) == (tuple(ref_g), tuple(ref_s), tuple(ref_t))
    assert s * u + t * v == g
    if b and len(b) > len(ref_g):
        # the reduced cofactor: deg s < deg v - deg g
        assert s.degree < v.degree - g.degree


@pytest.mark.parametrize("p", PRIMES)
def test_egcd_corners(p):
    f = FIELDS[p]
    u = Poly(f, [1, 0, p - 1])          # -X^2 + 1
    v = Poly(f, [p - 1, p - 1])         # -X - 1, a factor of u
    lead = f.inv(p - 1)
    monic_u, monic_v = u.monic(), v.monic()
    assert poly_egcd(u, Poly.zero(f)) == (monic_u, Poly(f, [lead]), Poly.zero(f))
    assert poly_egcd(Poly.zero(f), v) == (monic_v, Poly.zero(f), Poly(f, [lead]))
    assert poly_egcd(u, u) == (monic_u, Poly.zero(f), Poly(f, [lead]))
    g, s, t = poly_egcd(u, v)
    assert g == monic_v and s.is_zero and t == Poly(f, [lead])
    for x, y in ((u, Poly.zero(f)), (Poly.zero(f), v), (u, u), (u, v), (v, u)):
        assert poly_egcd(x, y) == tuple(
            Poly(f, c) for c in ref_egcd(x.coeffs, y.coeffs, p))


@pytest.mark.parametrize("p", (3, 5, 65521))
def test_egcd_long_quotients(p):
    # u = a*v + r and v = b*r + 1 with 18-term a and b: the second step
    # updates the cofactor -a by the quotient b, both long
    f = FIELDS[p]
    a = [(7 * i + 1) % p for i in range(17)] + [1]
    b = [(5 * i + 3) % p for i in range(17)] + [1]
    r = [2, 0, 1, 1]
    v = ref_sub(ref_mul(b, r, p), [p - 1], p)
    u = ref_sub(ref_mul(a, v, p), [(p - c) % p for c in r], p)
    g, s, t = poly_egcd(Poly(f, u), Poly(f, v))
    assert (g.coeffs, s.coeffs, t.coeffs) == tuple(map(tuple, ref_egcd(u, v, p)))
    assert g == Poly.one(f) and t.degree == 34


def _boundaries():
    """(p, length, slot bytes) on both sides of every slot-width boundary
    (p-1)^2 * length = 2^(8k) with length below 2^15: the largest length
    whose worst-case product coefficient fits k bytes, and the next one.
    Each of 2^8, 2^16, 2^32 and 2^64 is crossed by some prime."""
    out = []
    for p in PRIMES:
        for k in (1, 2, 4, 8):
            length = (2 ** (8 * k) - 1) // (p - 1) ** 2
            if 1 <= length < 2 ** 15:
                out += [(p, length, k), (p, length + 1, 2 * k)]
    return out


@pytest.mark.parametrize("p, length, slot", _boundaries())
def test_mul_at_slot_width_boundaries(p, length, slot):
    # all-(p-1) operands reach the bound (p-1)^2 * length exactly, and their
    # product has the closed form (p-1)^2 * #{i + j = k} mod p
    assert polyring._slot_bytes((p - 1) ** 2 * length) == slot
    f = FIELDS[p]
    a, b = Poly(f, [p - 1] * length), Poly(f, [p - 1] * (length + 3))
    n = 2 * length + 2
    want = [(p - 1) ** 2 * min(k + 1, length, n - k) % p for k in range(n)]
    assert (a * b).coeffs == tuple(_trim(want))


def test_every_slot_width_is_reached():
    assert {slot for _, _, slot in _boundaries()} == {1, 2, 4, 8, 16}


# ---------------------------------------------------------------------------
# one kernel per call: no per-coefficient Field calls, no re-validation
# ---------------------------------------------------------------------------

def _record_field_calls(monkeypatch) -> list:
    """A list that grows by the name of each Field operation called."""
    calls = []
    for name in ("mul", "add", "sub", "neg", "inv"):
        original = getattr(Field, name)
        monkeypatch.setattr(Field, name, lambda self, *args, _o=original, _n=name:
                            calls.append(_n) or _o(self, *args))
    return calls


@pytest.mark.parametrize("p", (2, 3, 5))
def test_prime_field_kernel_makes_no_field_calls(p, monkeypatch):
    f = FIELDS[p]
    u = Poly(f, [(3 * k * k + 1) % p for k in range(70)] + [1])
    v = Poly(f, [(5 * k + 2) % p for k in range(61)] + [1])
    calls = _record_field_calls(monkeypatch)
    prod = u * v
    q, r = divmod(prod + u, v)
    g, s, t = poly_egcd(u, v)
    assert calls == []
    monkeypatch.undo()
    assert q * v + r == prod + u and s * u + t * v == g


def test_gf4_kernel_makes_no_field_calls(monkeypatch):
    # Poly operators, both gcds, monic, fold_mod_xm1 and canonical
    # reduction over GF(4) run on bit planes, with leading coefficients
    # a and a^2 that need a plane permutation
    f = GF4
    u = Poly(f, [(3 * k * k + 1) % 4 for k in range(70)] + [2])
    v = Poly(f, [(5 * k + 2) % 4 for k in range(61)] + [3])
    w = Poly(f, [1, 3, 0, 2])
    rows = [[u * w, v, w + v], [v * w, u, Poly.zero(f)]]
    gen = GeneratingMatrix(f, 3, 31, rows)
    calls = _record_field_calls(monkeypatch)
    prod = u * v
    q, r = divmod(prod + u, v)
    neg, diff, monic = -u, u - v, u.monic()
    quot, rem = (u * w) // w, (u * w) % w
    folded, gcd = fold_mod_xm1(prod, 31), poly_gcd(u * w, v * w)
    g, s, t = poly_egcd(u, v)
    basis = rgb_pot_reduce(gen)
    assert calls == []
    monkeypatch.undo()
    assert q * v + r == prod + u and s * u + t * v == g
    assert neg == u and diff == u + v and quot == u and rem.is_zero
    assert monic == u.scale(f.inv(2)) and gcd == w.monic()
    assert folded == prod % x_pow_minus_one(f, 31)
    assert is_rgb_pot(basis)[0]


@pytest.mark.parametrize("q", (9, 16))
def test_table_kernel_makes_no_field_calls(q, monkeypatch):
    # up to 256 elements the extension kernel reads q x q tables, built once
    # per field: products, divisions, both gcds, fold_mod_xm1 and canonical
    # reduction then make no Field call, with leading coefficients other than 1
    f = field_new(*{9: (3, 2), 16: (2, 4)}[q])
    u = Poly(f, [(3 * k * k + 1) % q for k in range(70)] + [2])
    v = Poly(f, [(5 * k + 2) % q for k in range(61)] + [3])
    w = Poly(f, [1, 3, 0, 2])
    gen = GeneratingMatrix(f, 3, 31, [[u * w, v, w + v], [v * w, u, Poly.zero(f)]])
    polyring._ext_ops(f)  # the tables
    calls = _record_field_calls(monkeypatch)
    prod = u * v
    quot, rem = divmod(prod + u, v)
    diff, monic = u - v, u.monic()
    folded, gcd = fold_mod_xm1(prod, 31), poly_gcd(u * w, v * w)
    g, s, t = poly_egcd(u, v)
    basis = rgb_pot_reduce(gen)
    assert calls == []
    monkeypatch.undo()
    assert quot * v + rem == prod + u and s * u + t * v == g and diff + v == u
    assert monic == u.scale(f.inv(2)) and gcd == w.monic() * g
    assert folded == prod % x_pow_minus_one(f, 31)
    assert is_rgb_pot(basis)[0]


def _record_built(monkeypatch) -> list:
    """A list that grows by one entry for each Poly the kernels build: they
    all set the coefficients of a new Poly through polyring._set_coeffs."""
    built = []
    set_coeffs = polyring._set_coeffs
    monkeypatch.setattr(polyring, "_set_coeffs",
                        lambda p, codes: built.append(codes) or set_coeffs(p, codes))
    return built


@pytest.mark.parametrize("p", (2, 3, 5))
def test_prime_field_egcd_builds_only_its_results(p, monkeypatch):
    # the Euclid loop runs on bitmasks (p = 2), bitmask pairs (p = 3) or
    # code lists (p = 5): the only Poly objects built are the three results
    f = FIELDS[p]
    u = Poly(f, [(3 * k * k + 1) % p for k in range(70)] + [1])
    v = Poly(f, [(5 * k + 2) % p for k in range(61)] + [1])
    built = _record_built(monkeypatch)
    g, s, t = poly_egcd(u, v)
    monkeypatch.undo()
    assert len(built) == 3
    assert s * u + t * v == g


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, (1 << 130) - 1), st.integers(0, (1 << 70) - 1),
       st.integers(1, 64))
def test_gf2_mask_kernel_matches_reference(x, y, m):
    f = FIELDS[2]
    a, b = ([k >> i & 1 for i in range(k.bit_length())] for k in (x, y))
    product = polyring._from_mask(f, polyring._mul2(f, x, y))
    assert product.coeffs == tuple(ref_mul(a, b, 2))
    assert polyring._from_mask(f, polyring._GF2.fold(f, x, m)) == Poly(
        f, polyring._GFP.fold(f, a, m))  # the code-list fold
    for d, codes in ((y, b), (1, [1])):  # 1 takes the unit-divisor return
        if d:
            got = polyring._divmod2(f, x, d)
            want = ref_divmod(a, codes, 2)
            assert [polyring._from_mask(f, z).coeffs for z in got] == [tuple(w) for w in want]


def ref_add(a, b, p):
    return ref_sub(a, ref_sub([], b, p), p)


def ternary(length):
    """GF(3) code lists of up to length codes, the length drawn first, so
    that long dense lists are common."""
    return st.integers(0, length).flatmap(
        lambda n: st.lists(st.integers(0, 2), min_size=n, max_size=n))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(ternary(130), ternary(130), ternary(12), st.integers(1, 64))
def test_gf3_mask_kernel_matches_reference(a, b, c, m):
    # the GF(3) kernel on bitmask pairs against the schoolbook reference:
    # every operation, both product paths (a sparse factor and two dense
    # ones), degree-0 divisors, leading coefficients 1 and 2, and the
    # egcd(u, 0) and egcd(u, u) conventions
    f, k = FIELDS[3], polyring._GF3
    a, b, c = _trim(a), _trim(b), _trim(c)
    ab, bc = ref_mul(a, c, 3) or a, ref_mul(b, c, 3) or b  # a common factor c

    def native(codes):
        x = k.native(f, tuple(codes))
        assert (x == 0) == (not codes)  # zero is the int 0, nothing else
        return x

    def codes(x):
        return list(k.poly(f, x).coeffs)

    sparse = _trim(x if i % 17 == 0 else 0 for i, x in enumerate(a))
    for x in (a, b, c, sparse):
        assert codes(native(x)) == x
    x, y = native(a), native(b)
    assert codes(k.add(f, x, y)) == ref_add(a, b, 3)
    assert codes(k.sub(f, x, y)) == ref_sub(a, b, 3)
    assert k.sub(f, x, x) == 0
    for u, v in ((a, b), (sparse, b), (b, c)):
        assert codes(k.mul(f, native(u), native(v))) == ref_mul(u, v, 3)
    for d in (b, c, [1], [2], b[-1:]):
        if d:
            q, r = k.divmod(f, x, native(d))
            assert (codes(q), codes(r)) == tuple(ref_divmod(a, d, 3))
    assert codes(k.fold(f, x, m)) == _trim(polyring._GFP.fold(f, a, m))
    for u, v in ((ab, bc), (a, []), ([], b), (a, a), (b, b)):
        if u or v:
            got = k.egcd(f, tuple(u), tuple(v))
            assert [list(g.coeffs) for g in got] == list(ref_egcd(u, v, 3))


GF4 = field_new(2, 2)


def quaternary(length):
    """GF(4) code lists of up to length codes, the length drawn first."""
    return st.integers(0, length).flatmap(
        lambda n: st.lists(st.integers(0, 3), min_size=n, max_size=n))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(quaternary(130), quaternary(130), quaternary(12), st.integers(1, 64),
       st.sampled_from((1, 2, 3)))
def test_gf4_plane_kernel_matches_reference(a, b, c, m, lead):
    # the GF(4) kernel on bit planes against the schoolbook extension
    # kernel on code lists: every operation, divisors with leading
    # coefficients 1, a (2) and a^2 (3), constant divisors, and the
    # egcd(u, 0), egcd(0, v) and egcd(u, u) conventions
    f, k, ref = GF4, polyring._GF4, polyring._EXT
    a, b, c = _trim(a), _trim(b), _trim(c)
    ac, bc = ref.mul(f, a, c) or a, ref.mul(f, b, c) or b  # a common factor c

    def native(codes):
        x = k.native(f, tuple(codes))
        assert (x == 0) == (not codes)  # zero is the int 0, nothing else
        return x

    def codes(x):
        return list(k.poly(f, x).coeffs)

    for x in (a, b, c, ac, bc):
        assert codes(native(x)) == x
    x, y = native(a), native(b)
    assert codes(k.add(f, x, y)) == _trim(ref.add(f, a, b))
    assert codes(k.sub(f, x, y)) == _trim(ref.sub(f, a, b))
    assert k.sub(f, x, x) == 0
    for u, v in ((a, b), (b, c), (ac, bc)):
        assert codes(k.mul(f, native(u), native(v))) == ref.mul(f, u, v)
    divisors = (b, c, c[:-1] + [lead] if c else [lead], [lead], b[-1:])
    want_div = [ref.divmod(f, a, d) for d in divisors if d]
    want_fold = ref.fold(f, a, m)
    pairs = [(u, v) for u, v in ((ac, bc), (a, []), ([], b), (a, a), (c, c)) if u or v]
    want_egcd = [ref.egcd(f, tuple(u), tuple(v)) for u, v in pairs]
    got_div = [k.divmod(f, x, native(d)) for d in divisors if d]
    assert [(codes(q), codes(r)) for q, r in got_div] == [
        (_trim(q), _trim(r)) for q, r in want_div]
    assert codes(k.fold(f, x, m)) == _trim(want_fold)
    assert [k.egcd(f, tuple(u), tuple(v)) for u, v in pairs] == want_egcd


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from((2, 3, 4)),
       st.dictionaries(st.integers(0, 5000), st.integers(1, 3), max_size=40),
       st.integers(1, 70))
def test_halving_fold_matches_code_list_fold(q, terms, m):
    # the bit-plane kernels cut the operand near its middle at a multiple
    # of m; the code-list fold adds back one block of m codes at a time
    f = GF4 if q == 4 else FIELDS[q]
    k, ref = polyring._kernel(f), polyring._EXT if q == 4 else polyring._GFP
    codes = [0] * (max(terms, default=-1) + 1)
    for e, c in terms.items():
        codes[e] = c % q
    codes = _trim(codes)
    folded = k.fold(f, k.native(f, tuple(codes)), m)
    assert list(k.poly(f, folded).coeffs) == _trim(ref.fold(f, codes, m))


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9))
def test_fold_of_a_huge_power_of_x_takes_log_passes(q):
    # folding X^(2^20) took seconds per m when each pass folded back only m
    # coefficients (and minutes for m = 1); halving takes about 20 passes,
    # on bit planes (q <= 4) and on code lists (q = 5, 9) alike
    f = {4: GF4, 9: field_new(3, 2)}.get(q) or FIELDS[q]
    x = Poly(f, [0] * (1 << 20) + [1])
    start = time.perf_counter()
    for m, want in ((8, (1,)), (3, (0, 1)), (1, (1,))):
        assert fold_mod_xm1(x, m).coeffs == want  # 2^20 = 1 (mod 3)
        assert time.perf_counter() - start < 2.0


def test_reduction_builds_polys_only_at_the_boundary(monkeypatch):
    # over every field canonical reduction runs in the field's kernel: no
    # Poly operator, division or egcd, and one Poly built per nonzero entry
    # of the result, plus at most one zero that all its zero entries share
    for f in (FIELDS[2], FIELDS[3], field_new(2, 2), field_new(3, 2)):
        q = f.q
        rows = [[Poly(f, [(k * k + i + j) % (q + 1) % q for k in range(40)] + [1])
                 for j in range(4)] for i in range(3)]
        gen = GeneratingMatrix(f, 4, 31, rows)
        calls = []
        for name in ("__mul__", "__divmod__", "__add__", "__sub__"):
            original = getattr(Poly, name)
            monkeypatch.setattr(Poly, name, lambda *args, _o=original, _n=name:
                                calls.append(_n) or _o(*args))
        for name in ("poly_egcd", "poly_gcd"):
            original = getattr(polyring, name)
            monkeypatch.setattr(polyring, name, lambda *args, _o=original, _n=name:
                                calls.append(_n) or _o(*args))
        built = _record_built(monkeypatch)
        basis = rgb_pot_reduce(gen)
        monkeypatch.undo()
        assert calls == [], f
        entries = [p for row in basis.matrix for p in row]
        nonzero = sum(not p.is_zero for p in entries)
        assert nonzero <= len(built) <= nonzero + 1, f
        assert len({id(p) for p in entries if p.is_zero}) == 1, f  # below the diagonal
        assert is_rgb_pot(basis)[0]


def test_internal_results_skip_validation(monkeypatch):
    f = FIELDS[3]
    u, v = Poly(f, [1, 2, 0, 1]), Poly(f, [2, 1])
    built = []
    init = Poly.__init__
    monkeypatch.setattr(Poly, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    results = [Poly.zero(f), Poly.one(f), -u, u + v, u - v, u * v, u.scale(2),
               *divmod(u, v), modular_substitute(u, -1, 5), fold_mod_xm1(u, 2),
               x_pow_minus_one(f, 4), *poly_egcd(u, v)]
    assert built == []
    monkeypatch.undo()
    for r in results:
        assert r == Poly(f, r.coeffs)
