"""Cyclotomic cosets, minimal polynomials, and cyclic codes.

Minimal polynomials of coset classes are computed honestly: an extension
field GF(q^r) containing an m-th root of unity alpha is built (r = the
multiplicative order of q mod m, which is the size of the coset of 1), the
product over the conjugate roots alpha^j is taken there one linear factor
X - alpha^j at a time, and every coefficient is verified to lie in the
embedded copy of GF(q) before being mapped back down.  Each minimal
polynomial is computed once per process: the last `_MINPOLY_CACHE` of them
are kept, keyed by (q, m, smallest coset member).  The embedding walks
GF(q) once, so it is refused above q = 2^16 (`_MAX_EMBEDDED_ORDER`), as are
extensions of degree above 64 over GF(p) (`_MAX_EXTENSION_DEGREE`).  Only
the semisimple case gcd(m, q) = 1 is supported, so X^m - 1 always splits
into distinct irreducible factors, one per coset.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import index

from .errors import (
    CoefficientNotInBaseField,
    DegreeMismatch,
    IndexOutOfRange,
    NotADivisor,
    NotCoprime,
    NotPrime,
    ShapeMismatch,
    TooLarge,
)
from .field import (_MAX_CHARACTERISTIC, Field, _integer, _order, _positive, _prime_field,
                    nth_root_of_unity)
from .polyring import Poly, _divides_xm1, _monic

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
    """Split a field order into (p, s) with q = p^s and s largest; NotPrime
    unless q is an integer and p a prime below Field's bound 2^top.  That
    bound forces s > log2(q)/top: only those s are tried, largest first,
    with one rounded s-th root each and no trial division up to sqrt(q);
    each p^s is first compared with q modulo the prime 2^61 - 1."""
    q = _integer("field order q", q, NotPrime, "a prime power >= 2")
    if q < 2:
        raise NotPrime(f"field order must be a prime power >= 2, got {q!r}")
    bits, top = q.bit_length(), _MAX_CHARACTERISTIC.bit_length() - 1
    log_q, screen = math.log2(q), (1 << 61) - 1
    residue = q % screen
    for s in range(bits, (bits - 1) // top, -1):
        p = round(2 ** (log_q / s))
        if pow(p, s, screen) == residue and p ** s == q:
            _prime_field(p)  # NotPrime unless p is a prime below the bound
            return p, s
    raise NotPrime(f"{q} is not a power of a prime below {_MAX_CHARACTERISTIC}")


@functools.lru_cache(maxsize=64)  # bounded: q may come from untrusted input
def field_of_order(q: int) -> Field:
    """GF(q) with the default (deterministic) modulus."""
    return Field(*_prime_power(q))


def cyclotomic_coset(q: int, m: int, i: int) -> tuple[int, ...]:
    """Orbit of i under multiplication by q modulo m, sorted ascending.
    q, m and i are read as integers once: NotCoprime for a q that is not
    an integer, DegreeMismatch unless m is one >= 1, and IndexOutOfRange
    unless i is one in [0, m)."""
    q = _integer("q", q, NotCoprime)
    m = _positive("m", m, DegreeMismatch)
    i = _integer("representative i", i, IndexOutOfRange)
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

# The largest GF(q), q = p^s with s > 1, that is embedded into a proper
# extension.  The embedding walks every element of GF(q) to build its decode
# table: `factor 65536 7` takes about 1.0 s and `factor 59049 7` about
# 2.4 s, and `factor 131072 7` 4 s (2 vCPU Xeon).
_MAX_EMBEDDED_ORDER = 1 << 16


@functools.lru_cache(maxsize=64)  # bounded: q and m may come from untrusted input
def _root_context(q: int, m: int):
    """Shared machinery for minimal-polynomial computation over GF(q):
    the base field, the extension containing an m-th root of unity, the
    root's code, and the decode table mapping embedded-subfield codes back
    to base-field codes."""
    p, s = _prime_power(q)  # both bounds are checked before a field is built
    r = len(cyclotomic_coset(q, m, 1 % m))  # the order of q mod m
    if s * r > _MAX_EXTENSION_DEGREE:
        raise TooLarge(
            f"the {m}-th roots of unity over GF({q}) lie in GF({p}^{s * r}); "
            f"extension degrees above {_MAX_EXTENSION_DEGREE} are refused")
    if s > 1 and r > 1 and q > _MAX_EMBEDDED_ORDER:
        raise TooLarge(
            f"the {m}-th roots of unity over GF({q}) lie in GF({p}^{s * r}); "
            f"embedding a GF(q) with q above {_MAX_EMBEDDED_ORDER} is refused")
    base, big = field_of_order(q), Field(p, s * r)
    alpha = nth_root_of_unity(big, m)
    if big == base or s == 1:
        # GF(q) is the whole field or its prime subfield, the constants
        decode = range(q)
    else:
        # Embed GF(q) by sending its generator X to a root of the base
        # modulus inside the big field; roots are located among the
        # elements whose order equals the order of X in GF(q).  The code p
        # has digits (0, 1, 0, ...): it is the element X of the base field.
        n = _order(base.pow_, p, q - 1)
        zeta = nth_root_of_unity(big, n)
        modulus_poly = Poly(big, [c % p for c in base.modulus])
        theta = None
        for k in range(1, n + 1):
            if math.gcd(k, n) != 1:
                continue
            cand = big.pow_(zeta, k)
            if modulus_poly(cand) == 0:
                theta = cand
                break
        if theta is None:
            raise CoefficientNotInBaseField(
                f"could not embed GF({q}) into {big!r}")
        # Horner's rule on the base-p digits of each code: the image of
        # code is theta * image(code // p) + (code % p), and a digit below
        # p is its own code in the big field.  The list grows as it is
        # filled, so a huge q is not allocated up front.
        images = [0]
        for code in range(1, q):
            images.append(big.add(big.mul(theta, images[code // p]), code % p))
        decode = {image: code for code, image in enumerate(images)}
    return base, big, alpha, decode


# Minimal polynomials kept per process, each at most 65 codes: the factors
# of several lengths at once (the `product` benchmark has 84 cosets in all).
_MINPOLY_CACHE = 256


def minimal_polynomial(q: int, m: int, i: int) -> Poly:
    """The monic irreducible factor of X^m - 1 over GF(q) whose roots are
    alpha^j for j in the coset of i (alpha the canonical m-th root of
    unity).  Degree equals the coset size.  Every member of a coset gets
    the same cached Poly."""
    coset = cyclotomic_coset(q, m, i)  # checks q, m and i before the cache
    return _minimal_polynomial(index(q), index(m), coset[0])


@functools.lru_cache(maxsize=_MINPOLY_CACHE)
def _minimal_polynomial(q: int, m: int, rep: int) -> Poly:
    """The product of X - alpha^j over the coset of rep, formed in place on
    a monic code list in GF(q^r) and decoded into GF(q)."""
    base, big, alpha, decode = _root_context(q, m)
    mul, sub = big.mul, big.sub
    prod = [1]
    for j in cyclotomic_coset(q, m, rep):
        root = big.pow_(alpha, j)
        # coefficient k of prod * (X - root) is prod[k-1] - root * prod[k]
        prod.append(1)
        for k in range(len(prod) - 2, 0, -1):
            prod[k] = sub(prod[k - 1], mul(root, prod[k]))
        prod[0] = sub(0, mul(root, prod[0]))
    out = []
    for c in prod:
        if c not in decode:
            raise CoefficientNotInBaseField(
                f"coefficient {c} of the conjugate product is not in GF({q})")
        out.append(decode[c])
    return Poly(base, out)


def cyclotomic_cosets(q: int, m: int) -> list[tuple[int, ...]]:
    """Every q-cyclotomic coset modulo m, ordered by smallest member."""
    m = _positive("m", m, DegreeMismatch)
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
    cosets = cyclotomic_cosets(q, m)  # checks q and m
    q, m = index(q), index(m)
    return [(c[0], _minimal_polynomial(q, m, c[0])) for c in cosets]


@dataclass(frozen=True, slots=True, init=False, repr=False)
class CyclicCode:
    """A cyclic code of length m with monic generator polynomial g | X^m - 1;
    dimension k = m - deg g."""

    field: Field
    m: int
    g: Poly
    k: int

    def __init__(self, m: int, g: Poly):
        if not isinstance(g, Poly):
            raise ShapeMismatch("the generator must be a polynomial")
        field = g.field
        m = _positive("block length m", m, NotADivisor)
        if m % field.p == 0:
            raise NotCoprime(
                f"length {m} shares a factor with the field characteristic {field.p}")
        if g.is_zero:
            raise NotADivisor(
                "the zero polynomial is not a generator; the zero code of "
                f"length {m} is generated by X^{m}-1")
        g = _monic(g)[1]
        if not _divides_xm1(g, m):
            raise NotADivisor(f"{g!r} does not divide X^{m}-1")
        for name, value in zip(("field", "m", "g", "k"), (field, m, g, m - g.degree)):
            object.__setattr__(self, name, value)

    def __repr__(self):
        return f"CyclicCode[{self.m}, {self.k}] over {self.field!r}"


def cyclic_code_new(m: int, g: Poly) -> CyclicCode:
    """Construct the cyclic code of length m generated by g (must divide
    X^m - 1 exactly)."""
    return CyclicCode(m, g)
