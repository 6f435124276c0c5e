"""Tests for cyclotomic cosets, minimal polynomials, and cyclic codes."""

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qcproduct import (
    DegreeMismatch,
    IndexOutOfRange,
    NotADivisor,
    NotCoprime,
    NotPrime,
    Poly,
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
from qcproduct.cyclic import _prime_power

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
    with pytest.raises(DegreeMismatch):
        factor_xm_minus_1(4, -1)


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
