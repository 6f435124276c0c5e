"""Cyclotomic cosets, minimal polynomials, and cyclic codes.

Minimal polynomials of coset classes are computed honestly: an extension
field GF(q^r) containing an m-th root of unity alpha is built (r = the
multiplicative order of q mod m), the product over the conjugate roots
alpha^j is taken there, and every coefficient is verified to lie in the
embedded copy of GF(q) before being mapped back down.  Only the semisimple
case gcd(m, q) = 1 is supported, so X^m - 1 always splits into distinct
irreducible factors, one per coset.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import (
    CoefficientNotInBaseField,
    IndexOutOfRange,
    NotADivisor,
    NotCoprime,
    NotPrime,
    TooLarge,
)
from .field import _MAX_CHARACTERISTIC, Field, FieldElement, nth_root_of_unity
from .polyring import Poly, x_pow_minus_one

__all__ = [
    "cyclotomic_coset",
    "cyclotomic_cosets",
    "minimal_polynomial",
    "factor_xm_minus_1",
    "CyclicCode",
    "cyclic_code_new",
    "field_of_order",
]


def _prime_power(q: int) -> tuple[int, int]:
    """Split a field order into (p, s) with q = p^s and s largest.  Field
    checks that p is a prime below its bound 2^top, which forces
    s > log2(q)/top: only those s are tried, largest first, with one
    rounded s-th root each and no trial division up to sqrt(q); each p^s
    is first compared with q modulo the prime 2^61 - 1."""
    if not isinstance(q, int) or q < 2:
        raise NotPrime(f"field order must be a prime power >= 2, got {q!r}")
    bits, top = q.bit_length(), _MAX_CHARACTERISTIC.bit_length() - 1
    log_q, screen = math.log2(q), (1 << 61) - 1
    residue = q % screen
    for s in range(bits, (bits - 1) // top, -1):
        p = round(2 ** (log_q / s))
        if pow(p, s, screen) == residue and p ** s == q:
            return p, s
    raise NotPrime(f"{q} is not a power of a prime below {_MAX_CHARACTERISTIC}")


@functools.lru_cache(maxsize=None)
def field_of_order(q: int) -> Field:
    """GF(q) with the default (deterministic) modulus."""
    return Field(*_prime_power(q))


def _mult_order(q: int, m: int) -> int:
    """Multiplicative order of q modulo m (1 when m = 1, where every
    residue is trivially the identity)."""
    if math.gcd(q, m) != 1:
        raise NotCoprime(f"gcd({q}, {m}) != 1")
    if m == 1:
        return 1
    r, acc = 1, q % m
    while acc != 1:
        acc = (acc * q) % m
        r += 1
    return r


def cyclotomic_coset(q: int, m: int, i: int) -> tuple[int, ...]:
    """Orbit of i under multiplication by q modulo m, sorted ascending."""
    if math.gcd(q, m) != 1:
        raise NotCoprime(f"gcd({q}, {m}) != 1")
    if not 0 <= i < m:
        raise IndexOutOfRange(f"representative {i} outside [0, {m})")
    members = {i}
    j = (i * q) % m
    while j != i:
        members.add(j)
        j = (j * q) % m
    return tuple(sorted(members))


# The largest degree over GF(p) of the extension that holds the m-th roots
# of unity.  Its default-modulus search and the conjugate products cost
# about the cube of the degree: at degree 60-64 they take about 1 s over
# GF(3), GF(5) and GF(7) (2 vCPU Xeon).  Every q <= 4, m <= 60 stays
# inside; the largest is GF(2^58), for m = 59 over GF(2) and GF(4).
_MAX_EXTENSION_DEGREE = 64


@functools.lru_cache(maxsize=None)
def _root_context(q: int, m: int):
    """Shared machinery for minimal-polynomial computation over GF(q):
    the base field, the extension containing an m-th root of unity, the
    root's code, and the decode table mapping embedded-subfield codes back
    to base-field codes."""
    base = field_of_order(q)
    p, s = base.p, base.m
    r = _mult_order(q, m)
    if s * r > _MAX_EXTENSION_DEGREE:
        raise TooLarge(
            f"the {m}-th roots of unity over GF({q}) lie in GF({p}^{s * r}); "
            f"extension degrees above {_MAX_EXTENSION_DEGREE} are refused")
    big = Field(p, s * r)
    alpha = nth_root_of_unity(big, m)
    if big == base or s == 1:
        # GF(q) is the whole field or its prime subfield, the constants
        decode = range(q)
    else:
        # Embed GF(q) by sending its generator X to a root of the base
        # modulus inside the big field; roots are located among the
        # elements whose order equals the order of X in GF(q).
        x_code = p  # digits (0, 1, 0, ...): the element X of the base field
        n = 1
        acc = x_code
        while acc != 1:
            acc = base.mul(acc, x_code)
            n += 1
        zeta = nth_root_of_unity(big, n)
        modulus_poly = Poly(big, [c % p for c in base.modulus])
        theta = None
        for k in range(1, n + 1):
            if math.gcd(k, n) != 1:
                continue
            cand = big.pow_(zeta.code, k)
            if modulus_poly(FieldElement(big, cand)).code == 0:
                theta = cand
                break
        if theta is None:
            raise CoefficientNotInBaseField(
                f"could not embed GF({q}) into {big!r}")
        decode = {}
        for code in range(q):
            digits = base.coeffs_of(code)
            image = 0
            for idx, digit in enumerate(digits):  # digit d < p: the code of d
                image = big.add(image, big.mul(digit, big.pow_(theta, idx)))
            decode[image] = code
    return base, big, alpha.code, decode


def minimal_polynomial(q: int, m: int, i: int) -> Poly:
    """The monic irreducible factor of X^m - 1 over GF(q) whose roots are
    alpha^j for j in the coset of i (alpha the canonical m-th root of
    unity).  Degree equals the coset size."""
    coset = cyclotomic_coset(q, m, i)
    base, big, alpha, decode = _root_context(q, m)
    prod = Poly.one(big)
    for j in coset:
        root = big.pow_(alpha, j)
        prod = prod * Poly(big, (big.neg(root), 1))
    out = []
    for c in prod.coeffs:
        if c not in decode:
            raise CoefficientNotInBaseField(
                f"coefficient {c} of the conjugate product is not in GF({q})")
        out.append(decode[c])
    return Poly(base, out)


def cyclotomic_cosets(q: int, m: int) -> list[tuple[int, ...]]:
    """Every q-cyclotomic coset modulo m, ordered by smallest member."""
    out = []
    seen = set()
    for i in range(m):
        if i not in seen:
            coset = cyclotomic_coset(q, m, i)
            seen.update(coset)
            out.append(coset)
    return out


def factor_xm_minus_1(q: int, m: int) -> list[tuple[int, Poly]]:
    """Complete factorization of X^m - 1 over GF(q): one monic irreducible
    per cyclotomic coset, keyed by the smallest coset member, ascending."""
    if math.gcd(q, m) != 1:
        raise NotCoprime(f"gcd({q}, {m}) != 1")
    return [(c[0], minimal_polynomial(q, m, c[0]))
            for c in cyclotomic_cosets(q, m)]


@dataclass(frozen=True, slots=True, init=False, repr=False)
class CyclicCode:
    """A cyclic code of length m with monic generator polynomial g | X^m - 1;
    dimension k = m - deg g."""

    field: Field
    m: int
    g: Poly
    k: int

    def __init__(self, m: int, g: Poly):
        field = g.field
        if m < 1:
            raise NotADivisor(f"block length must be positive, got {m}")
        if m % field.p == 0:
            raise NotCoprime(
                f"length {m} shares a factor with the field characteristic {field.p}")
        if g.is_zero:
            raise NotADivisor(
                "the zero polynomial is not a generator; the zero code of "
                f"length {m} is generated by X^{m}-1")
        g = g.monic()
        rem = x_pow_minus_one(field, m) % g
        if not rem.is_zero:
            raise NotADivisor(f"{g!r} does not divide X^{m}-1")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "k", m - g.degree)

    def __repr__(self):
        return f"CyclicCode[{self.m}, {self.k}] over {self.field!r}"


def cyclic_code_new(m: int, g: Poly) -> CyclicCode:
    """Construct the cyclic code of length m generated by g (must divide
    X^m - 1 exactly)."""
    return CyclicCode(m, g)
