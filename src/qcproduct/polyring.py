"""Univariate polynomials over a finite field.

Dense ascending coefficient representation (integer element codes, no
trailing zeros; the zero polynomial has an empty coefficient tuple and degree
``-inf``).  Everything here is exact and immutable: ring arithmetic, division
with remainder, monic (extended) gcds with a canonical cofactor convention,
and the modular substitution p(X) -> p(X^e) * X^shift (mod X^N - 1) that
the product constructions apply with negative exponents and shifts.

Prime fields (``field.m == 1``) run on one packed-integer kernel, and each
``Poly`` method picks its kernel once per call, never per coefficient:

* products by Kronecker substitution: the codes are packed into byte slots
  of one integer, slots wide enough for the bound (p-1)^2 * min(len) on a
  product coefficient, so one integer product convolves them without a
  carry between slots, and each slot is reduced mod p on the way out
  (FLINT's ``nmod_poly`` multiplies the same way; Harvey, "Faster
  polynomial multiplication via multipoint Kronecker substitution", JSC
  2009);
* division over GF(2) by XOR and shift on bitmask ints, and the whole
  extended Euclid loop of :func:`poly_egcd` too, converted back to ``Poly``
  once at the end.  The same bitmask routines, with a shift-XOR product
  and a mask fold modulo X^m - 1, carry canonical reduction over GF(2)
  (``qcmodule.rgb_pot_reduce``) from its first fold to its result;
* division over odd p as schoolbook long division on modular integers;
* addition, subtraction, negation and scaling as plain modular integers
  (XOR in characteristic 2, whatever the extension degree).

Extension fields keep schoolbook loops over :class:`~qcproduct.field.Field`
operations.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from operator import index

from .errors import (
    BothZero,
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
)
from .field import Field, _power, coeffs_to_poly_text

__all__ = [
    "Poly",
    "poly_gcd",
    "poly_egcd",
    "modular_substitute",
    "fold_mod_xm1",
    "x_pow_minus_one",
]

_NEG_INF = float("-inf")


# init/repr=False where a class writes its own: import then builds no unused methods
@dataclass(frozen=True, slots=True, init=False, repr=False)
class Poly:
    """A polynomial over a :class:`~qcproduct.field.Field`.

    Coefficients are stored as element codes, ascending in degree.
    """

    field: Field
    coeffs: tuple

    def __init__(self, field: Field, coeffs=()):
        try:
            codes = [index(c) for c in coeffs]
        except TypeError:
            raise FieldMismatch("coefficients must be integer codes") from None
        q = field.q
        if codes and not 0 <= min(codes) <= max(codes) < q:
            bad = next(c for c in codes if not 0 <= c < q)
            raise FieldMismatch(f"coefficient code {bad} outside [0, {q})")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(_strip(codes)))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field: Field) -> "Poly":
        return _trusted(field, [])

    @staticmethod
    def one(field: Field) -> "Poly":
        return _trusted(field, [1])

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else _NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        """Leading coefficient code (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, k: int) -> int:
        """Coefficient code of X^k (0 beyond the stored degree)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- arithmetic --------------------------------------------------------

    def _check(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if other.field != self.field:
            raise FieldMismatch(
                f"polynomials over different fields: {self.field!r} vs {other.field!r}")
        return other

    def __add__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        return _trusted(self.field, _add(self.field, self.coeffs, o.coeffs))

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        f = self.field
        a, b = self.coeffs, o.coeffs
        if f.p == 2:
            return _trusted(f, _add(f, a, b))
        if f.m == 1:
            p = f.p
            out = [(x - y) % p for x, y in zip(a, b)]
        else:
            sub = f.sub
            out = [sub(x, y) for x, y in zip(a, b)]
        out += a[len(b):] if len(a) > len(b) else _neg(f, b[len(a):])
        return _trusted(f, out)

    def __neg__(self):
        return _trusted(self.field, _neg(self.field, self.coeffs))

    def __mul__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        f = self.field
        if self.is_zero or o.is_zero:
            return _trusted(f, [])
        if f.m == 1:
            return _trusted(f, _kronecker_mul(f.p, self.coeffs, o.coeffs))
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(o.coeffs):
                if b:
                    out[i + j] = f.add(out[i + j], f.mul(a, b))
        return _trusted(f, out)

    __rmul__ = __mul__

    def scale(self, code: int) -> "Poly":
        f = self.field
        if code == 0:
            return _trusted(f, [])
        if f.m == 1:
            p = f.p
            return _trusted(f, [code * c % p for c in self.coeffs])
        mul = f.mul
        return _trusted(f, [mul(code, c) for c in self.coeffs])

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise DegreeMismatch("negative polynomial powers are not defined")
        return _power(Poly.__mul__, self, e, Poly.one(self.field))

    def __divmod__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        if o.is_zero:
            raise DivisionByZero("polynomial division by zero")
        f = self.field
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            return _trusted(f, []), self
        if f.q == 2:
            quot, rem = _divmod2(_to_mask(a), _to_mask(b))
            return _from_mask(f, quot), _from_mask(f, rem)
        if f.m == 1:
            quot, rem = _divmod_p(f.p, a, b)
            return _trusted(f, quot), _trusted(f, rem)
        dv = len(b) - 1
        inv_lead = f.inv(o.leading)
        rem = list(a)
        quot = [0] * (len(rem) - dv)
        for top in range(len(rem) - 1, dv - 1, -1):
            c = rem[top]
            if c == 0:
                continue
            qc = f.mul(c, inv_lead)
            quot[top - dv] = qc
            for j, bj in enumerate(b):
                rem[top - dv + j] = f.sub(rem[top - dv + j], f.mul(qc, bj))
        return _trusted(f, quot), _trusted(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        return self.scale(self.field.inv(self.leading))

    def __call__(self, x: int) -> int:
        """The code of the value at the element code x, by Horner's rule."""
        f = self.field
        if not 0 <= x < f.q:
            raise FieldMismatch(f"evaluation point {x} outside [0, {f.q})")
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def __repr__(self):
        return f"Poly[{coeffs_to_poly_text(self.coeffs)} over {self.field!r}]"


_set_field, _set_coeffs = Poly.field.__set__, Poly.coeffs.__set__


def _strip(codes: list) -> list:
    """The list with its trailing zeros removed in place."""
    while codes and codes[-1] == 0:
        codes.pop()
    return codes


def _trusted(field: Field, codes: list) -> Poly:
    """A Poly from codes that ``Field`` operations made out of validated
    codes: trailing zeros are stripped in place, the other checks skipped."""
    p = object.__new__(Poly)
    _set_field(p, field)
    _set_coeffs(p, tuple(_strip(codes)))
    return p


# ---------------------------------------------------------------------------
# coefficient-list kernels: one choice of field arithmetic per call
# ---------------------------------------------------------------------------

def _add(f: Field, a, b) -> list:
    if len(a) < len(b):
        a, b = b, a
    if f.p == 2:
        out = [x ^ y for x, y in zip(a, b)]
    elif f.m == 1:
        p = f.p
        out = [(x + y) % p for x, y in zip(a, b)]
    else:
        add = f.add
        out = [add(x, y) for x, y in zip(a, b)]
    out += a[len(b):]
    return out


def _neg(f: Field, a) -> list:
    if f.p == 2:
        return list(a)
    if f.m == 1:
        p = f.p
        return [(p - c) % p for c in a]
    neg = f.neg
    return [neg(c) for c in a]


# Kronecker slots are 1, 2, 4, 8 or 16 bytes: 16 hold every bound below the
# 2^31 characteristic cap.  Ints are read and written little-endian; on a
# little-endian machine a memoryview reads the slots of up to 8 bytes as
# native unsigned items.
_FORMAT = {1: "B", 2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {}
_PARITY = bytes(i & 1 for i in range(256))


def _slot_bytes(bound: int) -> int:
    """The slot width in bytes that holds every value up to bound."""
    s = 1
    while bound >> (8 * s):
        s *= 2
    return s


def _pack(codes, s: int, p: int) -> int:
    """The codes as one int, code i in bytes [s*i, s*(i+1))."""
    if p < 256:  # one byte per code, at every s-th byte
        buf = bytearray(s * len(codes))
        buf[::s] = bytes(codes)
    else:
        buf = b"".join(c.to_bytes(s, "little") for c in codes)
    return int.from_bytes(buf, "little")


def _unpack(x: int, n: int, s: int, p: int) -> list:
    """The n slots of x, each reduced mod p."""
    buf = x.to_bytes(n * s, "little")
    if p == 2:  # a slot's parity is its low byte's
        return list(buf[::s].translate(_PARITY))
    if s in _FORMAT:
        return [c % p for c in memoryview(buf).cast(_FORMAT[s])]
    return [int.from_bytes(buf[i:i + s], "little") % p for i in range(0, n * s, s)]


def _kronecker_mul(p: int, a, b) -> list:
    """The product of two nonzero code sequences over GF(p): one integer
    product of the packed operands.  Product coefficient k is a sum of at
    most min(len) terms below p^2 before its reduction mod p."""
    s = _slot_bytes((p - 1) ** 2 * min(len(a), len(b)))
    return _unpack(_pack(a, s, p) * _pack(b, s, p), len(a) + len(b) - 1, s, p)


def _divmod_p(p: int, a, b):
    """(quotient, remainder) code lists of a by b over GF(p), len(a) >=
    len(b): schoolbook long division on modular integers.  Most divisors
    in canonical reduction have low degree, and there this beats both the
    packed slot-parallel division and Newton inversion."""
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    rem = list(a)
    quot = [0] * (len(a) - db)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + db]
        if c:
            c = c * inv % p
            quot[k] = c
            for j in range(db):
                rem[k + j] = (rem[k + j] - c * b[j]) % p
    del rem[db:]
    return quot, rem


# GF(2): a polynomial as the bitmask int of its coefficients (bit k for X^k),
# converted through bytes of ASCII '0'/'1' digits
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _to_mask(codes) -> int:
    return int(b"0" + bytes(reversed(codes)).translate(_TO_DIGITS), 2)


def _from_mask(f: Field, x: int) -> Poly:
    return _trusted(f, list(bin(x)[:1:-1].encode().translate(_FROM_DIGITS)))


def _divmod2(a: int, b: int):
    """(quotient, remainder) bitmasks of a by b != 0 over GF(2)."""
    q, d = 0, b.bit_length()
    while (k := a.bit_length() - d) >= 0:
        q |= 1 << k
        a ^= b << k
    return q, a


def _egcd2(u: int, v: int):
    """poly_egcd on GF(2) bitmasks.  Each XOR-shift step of the division
    r0 / r1 applies the same quotient term to the cofactor pairs, which is
    Euclid's s0 - q*s1 without forming q."""
    r0, r1, s0, s1, t0, t1 = u, v, 1, 0, 0, 1
    while r1:
        d = r1.bit_length()
        while (k := r0.bit_length() - d) >= 0:
            r0 ^= r1 << k
            s0 ^= s1 << k
            t0 ^= t1 << k
        r0, r1, s0, s1, t0, t1 = r1, r0, s1, s0, t1, t0
    return r0, s0, t0


def _mul2(a: int, b: int) -> int:
    """The carry-less product of two GF(2) bitmasks: b shifted to each set
    bit of the sparser factor, XORed together."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    while a:
        k = a.bit_length() - 1
        out ^= b << k
        a ^= 1 << k
    return out


def _fold2(x: int, m: int) -> int:
    """fold_mod_xm1 on a GF(2) bitmask: the bits from m up are XORed back
    onto bit 0 until none are left."""
    low = (1 << m) - 1
    while x >> m:
        x = (x & low) ^ (x >> m)
    return x


def _egcd_p(f: Field, u, v):
    """poly_egcd on code lists over GF(p), p odd: Euclid's loop with
    `_divmod_p`, a Poly built only for the results.  A cofactor update
    a - q*b takes one pass over the longer factor per term of the shorter,
    reduced mod p once; Euclid's quotients mostly have one or two terms.
    When both factors have more than 16 terms it is a Kronecker product
    and one addition instead."""
    p = f.p

    def minus_product(a, q, b):  # a - q*b
        if not q or not b:
            return a
        if len(q) > len(b):
            q, b = b, q
        if len(q) > 16:
            return _strip(_add(f, a, _neg(f, _kronecker_mul(p, q, b))))
        out = a + [0] * (len(q) + len(b) - 1 - len(a))
        nb = len(b)
        for i, c in enumerate(q):
            if c:
                out[i:i + nb] = [x - c * y for x, y in zip(out[i:i + nb], b)]
        return _strip([x % p for x in out])

    r0, r1, s0, s1, t0, t1 = list(u), list(v), [1], [], [], [1]
    while r1:
        if len(r0) < len(r1):
            q, r = [], r0
        else:
            q, r = _divmod_p(p, r0, r1)
        r0, r1 = r1, _strip(r)
        s0, s1 = s1, minus_product(s0, q, s1)
        t0, t1 = t1, minus_product(t0, q, t1)
    c = pow(r0[-1], -1, p)
    return ([c * x % p for x in r0], [c * x % p for x in s0],
            [c * x % p for x in t0])


def x_pow_minus_one(field: Field, m: int) -> Poly:
    """The polynomial X^m - 1 over the field."""
    if m < 1:
        raise DegreeMismatch("m must be positive")
    return _trusted(field, [field.neg(1)] + [0] * (m - 1) + [1])


def poly_gcd(u: Poly, v: Poly) -> Poly:
    """Monic greatest common divisor."""
    if u.is_zero and v.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    u._check(v)
    while not v.is_zero:
        u, v = v, u % v
    return u.monic()


def poly_egcd(u: Poly, v: Poly):
    """Extended gcd with canonical minimal cofactors.

    Returns (g, s, t) with s*u + t*v = g, g the monic gcd, and s reduced
    modulo v/g (so deg s < deg v - deg g whenever that bound is meaningful).
    Degenerate corners follow fixed conventions: egcd(u, 0) =
    (monic(u), 1/lc(u), 0) and egcd(u, u) = (monic(u), 0, 1/lc(u)).

    Euclid's cofactors meet that bound as they come (von zur Gathen and
    Gerhard, *Modern Computer Algebra*, ch. 3): from the second step on,
    the cofactor of u after remainder r_i has degree deg v - deg r_(i-1),
    and deg r_(i-1) > deg g at the last step; when v divides u the loop
    stops after one step with s = 0.
    """
    if u.is_zero and v.is_zero:
        raise BothZero("egcd(0, 0) is undefined")
    u._check(v)
    f = u.field
    if f.q == 2:
        return tuple(_from_mask(f, x)
                     for x in _egcd2(_to_mask(u.coeffs), _to_mask(v.coeffs)))
    if f.m == 1:
        return tuple(_trusted(f, x) for x in _egcd_p(f, u.coeffs, v.coeffs))
    r0, r1 = u, v
    s0, s1 = Poly.one(f), Poly.zero(f)
    t0, t1 = Poly.zero(f), Poly.one(f)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    c = f.inv(r0.leading)
    return r0.scale(c), s0.scale(c), t0.scale(c)


def modular_substitute(p: Poly, e: int, N: int, shift: int = 0) -> Poly:
    """p(X^e) * X^shift reduced modulo X^N - 1: coefficient k lands on
    X^((k*e + shift) mod N), so negative e and shift mean inverse powers
    of X in the quotient ring.  Colliding exponents are summed in the
    field."""
    if N < 1:
        raise DegreeMismatch("modulus exponent N must be positive")
    f = p.field
    e, shift = e % N, shift % N
    out = [0] * N
    if f.m == 1:  # integer sums, reduced once
        for k, c in enumerate(p.coeffs):
            out[(k * e + shift) % N] += c
        q = f.p
        return _trusted(f, [c % q for c in out])
    add = f.add
    for k, c in enumerate(p.coeffs):
        if c:
            pos = (k * e + shift) % N
            out[pos] = add(out[pos], c)
    return _trusted(f, out)


def fold_mod_xm1(p: Poly, m: int) -> Poly:
    """p reduced modulo X^m - 1 by folding exponents (X^k -> X^(k mod m)).
    DegreeMismatch for m < 1, checked only once p reaches degree m."""
    if p.degree < m:
        return p
    if m < 1:
        raise DegreeMismatch("m must be positive")
    f, codes = p.field, p.coeffs
    out = list(codes[:m])
    for i in range(m, len(codes), m):
        out = _add(f, out, codes[i:i + m])
    return _trusted(f, out)
