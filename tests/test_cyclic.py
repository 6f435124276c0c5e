"""Tests for cyclotomic cosets, minimal polynomials, and cyclic codes."""

import math
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import minpolyref
from qcproduct import (
    DegreeMismatch,
    IndexOutOfRange,
    NotADivisor,
    NotCoprime,
    NotPrime,
    Poly,
    ShapeMismatch,
    TooLarge,
    cyclic_code_new,
    cyclotomic_coset,
    cyclotomic_cosets,
    factor_xm_minus_1,
    field_new,
    field_of_order,
    minimal_polynomial,
    poly_from_text,
    x_pow_minus_one,
)
from qcproduct import cyclic
from qcproduct.cyclic import _prime_power
from qcproduct.field import _default_modulus

F2 = field_new(2)
F3 = field_new(3)


# ---------------------------------------------------------------------------
# cyclotomic cosets
# ---------------------------------------------------------------------------

def test_cosets_mod_17_over_gf2():
    assert cyclotomic_coset(2, 17, 0) == (0,)
    assert cyclotomic_coset(2, 17, 1) == (1, 2, 4, 8, 9, 13, 15, 16)
    assert cyclotomic_coset(2, 17, 3) == (3, 5, 6, 7, 10, 11, 12, 14)
    # every representative of a coset yields the same coset
    assert cyclotomic_coset(2, 17, 9) == cyclotomic_coset(2, 17, 1)
    assert cyclotomic_cosets(2, 17) == [
        (0,), (1, 2, 4, 8, 9, 13, 15, 16), (3, 5, 6, 7, 10, 11, 12, 14)]


def test_cosets_small_cases():
    assert cyclotomic_coset(2, 7, 1) == (1, 2, 4)
    assert cyclotomic_coset(2, 7, 3) == (3, 5, 6)
    assert cyclotomic_coset(3, 8, 1) == (1, 3)
    assert cyclotomic_coset(3, 8, 5) == (5, 7)
    assert cyclotomic_coset(2, 1, 0) == (0,)
    assert cyclotomic_cosets(2, 7) == [(0,), (1, 2, 4), (3, 5, 6)]
    assert cyclotomic_cosets(3, 8) == [(0,), (1, 3), (2, 6), (4,), (5, 7)]
    assert cyclotomic_cosets(2, 1) == [(0,)]


def test_coset_argument_validation():
    with pytest.raises(NotCoprime):
        cyclotomic_coset(2, 4, 1)
    with pytest.raises(IndexOutOfRange):
        cyclotomic_coset(2, 7, 7)
    with pytest.raises(IndexOutOfRange):
        cyclotomic_coset(2, 7, -1)
    # a length below 1 has no cosets and no factorization
    for m in (0, -1, -3):
        with pytest.raises(DegreeMismatch):
            cyclotomic_cosets(2, m)
    for m in (0, -1):
        with pytest.raises(DegreeMismatch):
            factor_xm_minus_1(4, m)


@pytest.mark.parametrize("bad", (1.5, 7.0, "7", True))
@pytest.mark.parametrize("position", (0, 1, 2))
def test_coset_arguments_are_read_as_integers(bad, position):
    # each of q, m and i is read once as an integer: a float, a string or a
    # bool raises the argument's QcError at once (1.5 as i used to hang)
    error = (NotCoprime, DegreeMismatch, IndexOutOfRange)[position]
    args = [2, 7, 1]
    args[position] = bad
    with pytest.raises(error, match="is not"):
        cyclotomic_coset(*args)
    with pytest.raises(error, match="is not"):
        minimal_polynomial(*args)
    if position < 2:
        with pytest.raises(error, match="is not"):
            factor_xm_minus_1(*args[:2])


def test_cosets_partition_the_residues():
    rng = random.Random(404)
    for _ in range(20):
        q = rng.choice((2, 3, 4, 5))
        m = rng.randrange(1, 40)
        if math.gcd(q, m) != 1:
            continue
        seen = set()
        for i in range(m):
            coset = cyclotomic_coset(q, m, i)
            assert i in coset
            if i == min(coset):
                assert not seen & set(coset)
                seen.update(coset)
        assert seen == set(range(m))
        assert cyclotomic_cosets(q, m) == sorted(
            {cyclotomic_coset(q, m, i) for i in range(m)})


# ---------------------------------------------------------------------------
# minimal polynomials
# ---------------------------------------------------------------------------

def test_minimal_polynomials_mod_17():
    assert minimal_polynomial(2, 17, 0).coeffs == (1, 1)
    assert minimal_polynomial(2, 17, 1).coeffs == (1, 1, 1, 0, 1, 0, 1, 1, 1)
    assert minimal_polynomial(2, 17, 3).coeffs == (1, 0, 0, 1, 1, 1, 0, 0, 1)


def test_minimal_polynomial_degree_is_coset_size():
    for q, m in ((2, 7), (2, 15), (3, 13), (4, 5)):
        for i in range(m):
            p = minimal_polynomial(q, m, i)
            assert p.degree == len(cyclotomic_coset(q, m, i))
            assert p.is_monic
            assert (x_pow_minus_one(p.field, m) % p).is_zero


def test_minimal_polynomials_multiply_to_xm_minus_1():
    m0 = minimal_polynomial(2, 17, 0)
    m1 = minimal_polynomial(2, 17, 1)
    m3 = minimal_polynomial(2, 17, 3)
    assert m0 * m1 * m3 == x_pow_minus_one(F2, 17)


def _in_reach(q: int, m: int) -> bool:
    """Whether the m-th roots of unity over GF(q) lie within the
    extension-degree bound (every q drawn below embeds)."""
    p, s = _prime_power(q)
    return s * len(cyclotomic_coset(q, m, 1 % m)) <= cyclic._MAX_EXTENSION_DEGREE


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 4, 5, 7, 8, 9, 16, 25)), st.integers(1, 50))
def test_minimal_polynomials_match_the_conjugate_product_loop(q, m):
    # every i, cold (the first member of each coset after cache_clear) and
    # warm, gives the reference loop's polynomial, and one coset one object
    assume(math.gcd(q, m) == 1 and _in_reach(q, m))
    cyclic._minimal_polynomial.cache_clear()
    expected = {c: minpolyref.minimal_polynomial(q, m, c[0])
                for c in cyclotomic_cosets(q, m)}
    first = {}
    for i in range(m):
        coset = cyclotomic_coset(q, m, i)
        got = minimal_polynomial(q, m, i)
        assert got == expected[coset]
        assert first.setdefault(coset, got) is got
    assert factor_xm_minus_1(q, m) == [(c[0], first[c]) for c in expected]
    for i in range(m):
        assert minimal_polynomial(q, m, i) is first[cyclotomic_coset(q, m, i)]


@pytest.mark.parametrize("args, error", [
    ((2, 17, True), IndexOutOfRange),
    ((2.0, 17, 1), NotCoprime),
    ((2, 17, 1.0), IndexOutOfRange),
    ((True, 17, 1), NotCoprime),
    ((2, 17.0, 1), DegreeMismatch),
])
def test_cached_minimal_polynomial_still_checks_its_arguments(args, error):
    # an lru key takes True == 1 and 2.0 == 2, so the checks sit before it
    minimal_polynomial(2, 17, 1)
    with pytest.raises(error):
        minimal_polynomial(*args)


def test_minimal_polynomial_cache_is_bounded():
    maxsize = cyclic._minimal_polynomial.cache_info().maxsize
    assert type(maxsize) is int and maxsize > 0


def test_field_and_root_caches_are_bounded():
    # each is keyed by arguments that may come from untrusted input
    for cached in (cyclic.field_of_order, cyclic._root_context, _default_modulus):
        maxsize = cached.cache_info().maxsize
        assert type(maxsize) is int and maxsize > 0, cached


def test_refused_root_field_is_not_cached():
    # GF(2^65) would hold the roots; the refusal is raised again, not kept
    infos = (cyclic._minimal_polynomial.cache_info, cyclic._root_context.cache_info)
    before = [info().currsize for info in infos]
    for _ in range(2):
        with pytest.raises(TooLarge):
            minimal_polynomial(2, 2 ** 65 - 1, 1)
    assert [info().currsize for info in infos] == before


# ---------------------------------------------------------------------------
# factorization of X^m - 1
# ---------------------------------------------------------------------------

def test_factorization_frozen_gf2():
    fac = factor_xm_minus_1(2, 7)
    assert [(r, p.coeffs) for r, p in fac] == [
        (0, (1, 1)),
        (1, (1, 1, 0, 1)),
        (3, (1, 0, 1, 1)),
    ]


def test_factorization_frozen_gf3():
    fac = factor_xm_minus_1(3, 8)
    assert [(r, p.coeffs) for r, p in fac] == [
        (0, (2, 1)),
        (1, (2, 1, 1)),
        (2, (1, 0, 1)),
        (4, (1, 1)),
        (5, (2, 2, 1)),
    ]


def test_factorization_frozen_gf4():
    # exercises the non-prime base field: coefficients land back in GF(4)
    fac = factor_xm_minus_1(4, 5)
    assert [(r, p.coeffs) for r, p in fac] == [
        (0, (1, 1)),
        (1, (1, 3, 1)),
        (2, (1, 2, 1)),
    ]


def test_factorization_product_identity():
    for q, m in ((2, 9), (2, 17), (2, 51), (3, 10), (4, 15), (5, 8)):
        fac = factor_xm_minus_1(q, m)
        field = fac[0][1].field
        prod = Poly.one(field)
        for rep, p in fac:
            assert rep == min(cyclotomic_coset(q, m, rep))
            prod = prod * p
        assert prod == x_pow_minus_one(field, m)


def test_factorization_rejects_non_coprime_length():
    with pytest.raises(NotCoprime):
        factor_xm_minus_1(2, 6)
    with pytest.raises(NotCoprime):
        factor_xm_minus_1(3, 9)


def test_field_of_order():
    assert field_of_order(2) == field_new(2)
    assert field_of_order(4) == field_new(2, 2)
    assert field_of_order(27) == field_new(3, 3)
    for q in range(2, 2000):  # reference: divide out the smallest divisor
        p = next(d for d in range(2, q + 1) if q % d == 0)
        s = 0
        while q % p ** (s + 1) == 0:
            s += 1
        if p ** s == q:
            assert _prime_power(q) == (p, s)
            assert field_of_order(q) == field_new(p, s)
        else:
            with pytest.raises(NotPrime):
                field_of_order(q)
    assert _prime_power((2 ** 31 - 1) ** 2) == (2 ** 31 - 1, 2)
    assert _prime_power(3 ** 400) == (3, 400)
    assert _prime_power((2 ** 31 - 1) ** 400) == (2 ** 31 - 1, 400)
    # beyond the characteristic bound of Field, prime or not
    for q in (2 ** 61 - 1, (2 ** 31 + 11) ** 2, 6 ** 100):
        with pytest.raises(NotPrime):
            field_of_order(q)


def test_prime_power_screens_long_orders_quickly():
    # 4300 digits and no perfect power: each candidate p^s is ruled out
    # modulo 2^61 - 1 without building the full power
    start = time.perf_counter()
    with pytest.raises(NotPrime):
        _prime_power(10 ** 4299 + 1)
    assert time.perf_counter() - start < 0.3


# ---------------------------------------------------------------------------
# cyclic codes
# ---------------------------------------------------------------------------

def test_cyclic_code_parity_check_example():
    c = cyclic_code_new(3, poly_from_text(F2, "X+1"))
    assert (c.m, c.k) == (3, 2)
    assert c.g.coeffs == (1, 1)


def test_cyclic_code_full_space():
    c = cyclic_code_new(5, Poly.one(F2))
    assert c.k == 5
    assert c.g.coeffs == (1,)


def test_cyclic_code_hamming_generator():
    c = cyclic_code_new(7, poly_from_text(F2, "X^3+X+1"))
    assert (c.m, c.k) == (7, 4)


def test_cyclic_code_monic_normalization():
    # generator 2X + 2 over GF(3) is normalized to X + 1
    c = cyclic_code_new(4, Poly(F3, (2, 2)))
    assert c.g.coeffs == (1, 1)
    assert c.k == 3


def test_cyclic_code_rejections():
    with pytest.raises(NotADivisor):
        cyclic_code_new(7, Poly.zero(F2))
    with pytest.raises(NotCoprime):
        cyclic_code_new(6, poly_from_text(F2, "X+1"))  # 2 | 6
    with pytest.raises(NotADivisor):
        cyclic_code_new(7, poly_from_text(F2, "X^2+1"))  # not a divisor of X^7-1
    with pytest.raises(NotADivisor):
        cyclic_code_new(0, Poly.one(F2))


def _within(seconds: int, call):
    """call() under an alarm of the given seconds: TimeoutError if it overruns."""
    def overran(signum, frame):
        raise TimeoutError(f"over {seconds} s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("p, m", [(2, 2 ** 20 - 1), (3, 2 ** 20)])
def test_cyclic_code_at_the_length_bound_is_checked_within_seconds(p, m):
    # X - 1 divides every X^m - 1; dividing X^m - 1 by it took about 51 s
    # over GF(2) and 220 s over GF(3) on a 2-vCPU Xeon, quadratic in m,
    # while X^m mod (X - 1) takes one step per bit of m
    field = field_new(p)
    c = _within(5, lambda: cyclic_code_new(m, Poly(field, (p - 1, 1))))
    assert (c.m, c.k, c.g.coeffs) == (m, m - 1, (p - 1, 1))


def test_a_non_divisor_at_the_length_bound_is_refused_within_seconds():
    # X has order 7 modulo X^3 + X + 1, and 7 does not divide
    # 2^20 - 1 = 3 * 5^2 * 11 * 31 * 41
    m = 2 ** 20 - 1
    message = re.escape(f"Poly[X^3+X+1 over GF(2)] does not divide X^{m}-1")
    with pytest.raises(NotADivisor, match=f"^{message}$"):
        _within(5, lambda: cyclic_code_new(m, poly_from_text(F2, "X^3+X+1")))


def test_cyclic_code_refuses_a_generator_that_is_not_a_polynomial():
    # a QcError, raised before the generator is read or converted
    with pytest.raises(ShapeMismatch, match="must be a polynomial"):
        cyclic_code_new(3, 1)


@pytest.mark.parametrize("m", (0, -1, 2.5, "3"))
def test_cyclic_code_refuses_a_length_that_is_not_a_positive_integer(m):
    # one QcError for every bad length, read before any arithmetic with it
    with pytest.raises(NotADivisor, match="not a positive integer"):
        cyclic_code_new(m, Poly.one(F3))


def test_cyclic_code_equality_and_repr():
    a = cyclic_code_new(3, poly_from_text(F2, "X+1"))
    b = cyclic_code_new(3, poly_from_text(F2, "X+1"))
    assert a == b
    assert hash(a) == hash(b)
    assert a != cyclic_code_new(3, Poly.one(F2))
    assert repr(a) == f"CyclicCode[3, 2] over {F2!r}"
    with pytest.raises(AttributeError):
        a.k = 1


def test_cyclic_code_via_factorization():
    # every irreducible factor generates a code of complementary dimension
    for rep, p in factor_xm_minus_1(2, 17):
        c = cyclic_code_new(17, p)
        assert c.k == 17 - p.degree


@pytest.mark.parametrize("m, factors", [
    (3, "X+2147483646, X+634005912, X+1513477736"),  # roots in GF(p) itself
    (4, "X+2147483646, X^2+1, X+1"),  # roots in GF(p^2), none in GF(p)
])
def test_large_prime_factor_runs_in_bounded_memory(m, factors):
    # neither the decode table nor the root search may walk all p codes
    pytest.importorskip("resource")
    import qcproduct
    src = str(Path(qcproduct.__file__).resolve().parent.parent)
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from qcproduct.cli import main\n"
            f"sys.exit(main(['factor', '2147483647', '{m}']))")
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src))
    elapsed = time.perf_counter() - start
    assert out.returncode == 0, out.stderr
    found = [line.split(" = ")[1] for line in out.stdout.splitlines()[1:]]
    assert ", ".join(found) == factors
    assert elapsed < 10, f"factor took {elapsed:.2f} s"


def test_huge_field_order_is_refused_before_a_field_is_built(monkeypatch):
    # GF(2^1000) would take seconds to build; s = 1000 alone exceeds the
    # extension-degree bound, so no field is built at all
    def no_field(*args):
        raise AssertionError(f"a field was built for {args}")

    monkeypatch.setattr(cyclic, "Field", no_field)
    monkeypatch.setattr(cyclic, "field_of_order", no_field)
    with pytest.raises(TooLarge):
        factor_xm_minus_1(2 ** 1000, 3)
    with pytest.raises(TooLarge):
        minimal_polynomial(3 ** 65, 2, 1)
