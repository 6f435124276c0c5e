"""Univariate polynomials over a finite field.

Dense ascending coefficient representation (integer element codes, no
trailing zeros; the zero polynomial has an empty coefficient tuple and degree
``-inf``).  Everything here is exact and immutable: ring arithmetic, division
with remainder, monic (extended) gcds with a canonical cofactor convention,
and the modular substitution p(X) -> p(X^e) * X^shift (mod X^N - 1) that
the product constructions apply with negative exponents and shifts.

The arithmetic runs in one kernel per kind of field, a :class:`_Kernel`
record that only :func:`_kernel` chooses.  ``Poly`` operators, the gcds,
:func:`fold_mod_xm1` and canonical reduction (``qcmodule.rgb_pot_reduce``)
convert their operands to the kernel's native form once and build a
``Poly`` only for their results:

* GF(2): bitmask ints, bit k for X^k; sums, products, division and the
  extended Euclid loop are XOR and shift;
* GF(3): pairs of bitmask ints, one for the coefficients equal to 1 and
  one for those equal to 2 (bitslicing); a sum is seven bitwise operations
  on the pair, negation swaps it, and division and the extended Euclid
  loop take one shifted sum per quotient term; products shift and add
  over a sparse factor, or go through Kronecker substitution;
* GF(4): pairs of GF(2) bitmask ints, the two bit planes of the codes; a
  sum is one XOR per plane, a scalar multiple permutes the planes, a
  product is three carry-less products, and division and the extended
  Euclid loop take one shifted XOR per plane for each quotient term;
* GF(p), p >= 5: code lists; products by Kronecker substitution, the codes
  packed into byte slots of one integer wide enough for the bound
  (p-1)^2 * min(len) on a product coefficient, so one integer product
  convolves them without a carry between slots (FLINT's ``nmod_poly``
  multiplies the same way; Harvey, "Faster polynomial multiplication via
  multipoint Kronecker substitution", JSC 2009);
* extension fields other than GF(4): code lists with schoolbook loops over
  :class:`~qcproduct.field.Field` operations (an extension's own elements
  beyond its tables multiply on the prime field's kernel, ``field._ring``).

The two kernels on code lists build their egcd and fold on their own
operations (:func:`_code_kernel`).
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain
from operator import index, xor

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

    def _apply(self, other, op: str):
        """The kernel's operation op on self and other, as a Poly."""
        o = self._check(other)
        if o is NotImplemented:
            return o
        f = self.field
        k = _kernel(f)
        return k.poly(f, getattr(k, op)(f, k.native(f, self.coeffs), k.native(f, o.coeffs)))

    def __add__(self, other):
        return self._apply(other, "add")

    def __sub__(self, other):
        return self._apply(other, "sub")

    def __neg__(self):
        return Poly.zero(self.field) - self

    def __mul__(self, other):
        return self._apply(other, "mul")

    __rmul__ = __mul__

    def scale(self, code: int) -> "Poly":
        mul = self.field.mul
        return _trusted(self.field, [mul(code, c) for c in self.coeffs] if code else [])

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
        k = _kernel(f)
        quot, rem = k.divmod(f, k.native(f, self.coeffs), k.native(f, o.coeffs))
        return k.poly(f, quot), k.poly(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        f = self.field
        k = _kernel(f)  # the quotient by the leading coefficient, a constant
        lead = k.native(f, [self.leading])
        return k.poly(f, k.divmod(f, k.native(f, self.coeffs), lead)[0])

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


def _integer(name: str, value, error: type, kind: str = "an integer") -> int:
    """value as an int; error unless it is an integer (a float, a string
    or a bool is refused, never truncated or read as 0 or 1)."""
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise error(f"{name} = {value!r} is not {kind}")


def _positive(name: str, value, error: type) -> int:
    """value as an int; error unless it is an integer >= 1."""
    v = _integer(name, value, error, "a positive integer")
    if v < 1:
        raise error(f"{name} = {value!r} is not a positive integer")
    return v


# ---------------------------------------------------------------------------
# one kernel per kind of field
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class _Kernel:
    """Polynomial arithmetic over one kind of field on a native form, in
    which zero is the one false value.  Every function takes the field
    first and changes no operand; `egcd` returns (g, s, t) as
    :func:`poly_egcd` does and `fold` reduces modulo X^m - 1."""

    native: Callable  # (field, stripped codes) -> native form
    poly: Callable  # (field, native form) -> Poly
    add: Callable
    sub: Callable
    mul: Callable
    divmod: Callable
    egcd: Callable
    fold: Callable


# GF(2): a polynomial as the bitmask int of its coefficients (bit k for X^k),
# converted through bytes of ASCII '0'/'1' digits.  ASCII digits 0-3 -> codes
# serves the bit-plane kernels of GF(3) and GF(4) too.
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"0123", b"\0\1\2\3")


def _to_mask(f: Field, codes) -> int:
    return int(b"0" + bytes(reversed(codes)).translate(_TO_DIGITS), 2)


def _from_mask(f: Field, x: int) -> Poly:
    return _trusted(f, list(bin(x)[:1:-1].encode().translate(_FROM_DIGITS)))


def _xor(f: Field, a: int, b: int) -> int:
    return a ^ b


def _mul2(f: Field, a: int, b: int) -> int:
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


def _divmod2(f: Field, a: int, b: int):
    """(quotient, remainder) bitmasks of a by b != 0 over GF(2)."""
    q, d = 0, b.bit_length()
    while (k := a.bit_length() - d) >= 0:
        q |= 1 << k
        a ^= b << k
    return q, a


def _egcd2(f: Field, u: int, v: int):
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


def _fold2(f: Field, x: int, m: int) -> int:
    """fold_mod_xm1 on a GF(2) bitmask: the bits from k up are XORed back
    onto bit 0, k the least multiple of m (X^k = 1) that is at least half
    the bit length, until none are left from m up: O(log(D/m)) passes."""
    while (b := x.bit_length()) > m:
        k = -(-b // (2 * m)) * m
        x = (x & ((1 << k) - 1)) ^ (x >> k)
    return x


# GF(3): a polynomial as the pair (ones, twos) of bitmask ints, bit k of
# ones (twos) set where X^k has coefficient 1 (2), and zero as the int 0.
# Negation swaps the pair.  With a and b the supports of two pairs,
# (ones, twos) + (ones', twos') = ((ones | ones') ^ c, (twos | twos') ^ c)
# for c = a & b: seven bitwise operations for every coefficient at once
# (bitslicing: Boothby and Bradshaw, "Bitslicing and the Method of Four
# Russians Over Larger Finite Fields", 2009).  Codes go in and out as bytes,
# one per coefficient, through bytes.translate.

# translation tables, byte v -> the ASCII digit of [v = 1 (mod 3)], the
# ASCII digit of [v = 2 (mod 3)], and v mod 3
_ONE_DIGIT = (b"010" * 86)[:256]
_TWO_DIGIT = (b"001" * 86)[:256]
_MOD3 = (b"\0\1\2" * 86)[:256]


def _pair(digits: bytes, one: bytes = _ONE_DIGIT, two: bytes = _TWO_DIGIT):
    """The pair of the nonempty byte string digits, one coefficient per
    byte, highest degree first: the planes that the tables one and two
    translate each byte to, mod 3 by default."""
    ones = int(digits.translate(one), 2)
    twos = int(digits.translate(two), 2)
    return (ones, twos) if ones | twos else 0


def _to_pair(f: Field, codes):
    return _pair(bytes(codes)[::-1]) if codes else 0


def _plane_codes(ones: int, twos: int) -> bytes:
    """The codes ones_k + 2*twos_k of the nonzero pair (ones, twos), one
    byte each, highest degree first: read as hexadecimal, the binary digits
    of each plane put one bit in each nibble, and the nibbles of
    ones + 2*twos are the codes."""
    return f"{int(f'{ones:b}', 16) + 2 * int(f'{twos:b}', 16):x}".encode().translate(
        _FROM_DIGITS)


def _from_pair(f: Field, x) -> Poly:
    return _trusted(f, list(_plane_codes(*x)[::-1]) if x else [])


def _slots(ones: int, twos: int, n: int, s: int) -> int:
    """The n codes of the nonzero pair (ones, twos) as one int, code k in
    byte s*k."""
    codes = _plane_codes(ones, twos)
    if s > 1:
        buf = bytearray(s * n)
        buf[s - 1::s] = codes
        codes = buf
    return int.from_bytes(codes, "big")


def _add3(f: Field, a, b):
    if not a:
        return b
    if not b:
        return a
    (a1, a2), (b1, b2) = a, b
    c = (a1 | a2) & (b1 | b2)
    ones, twos = (a1 | b1) ^ c, (a2 | b2) ^ c
    return (ones, twos) if ones | twos else 0


def _sub3(f: Field, a, b):
    return _add3(f, a, b and (b[1], b[0]))


# The most terms of the sparser factor for which _mul3 shifts and adds: each
# term costs about an eighth of a Kronecker product of 50-term operands
# (timed on the products of canonical reduction over GF(3)).
_SHIFT_ADD_TERMS = 8


def _mul3(f: Field, a, b):
    """The product of two GF(3) pairs: the denser factor shifted to each
    term of the sparser one and added up when that has few terms, and a
    Kronecker product otherwise, as :func:`_kronecker_mul` multiplies code
    lists.  There a slot of s > 1 bytes is read mod 3 as the sum of its
    bytes, since 256 = 1 (mod 3): the bytes are reduced mod 3 and summed
    into the slot's lowest byte."""
    if not a or not b:
        return 0
    (a1, a2), (b1, b2) = a, b
    x, y = a1 | a2, b1 | b2
    if x.bit_count() > y.bit_count():
        a1, a2, b1, b2, x, y = b1, b2, a1, a2, y, x
    if x.bit_count() <= _SHIFT_ADD_TERMS:
        o1 = o2 = 0
        while x:
            k = x.bit_length() - 1
            x ^= 1 << k
            z1, z2 = (b1 << k, b2 << k) if a1 >> k & 1 else (b2 << k, b1 << k)
            c = (o1 | o2) & (y << k)
            o1, o2 = (o1 | z1) ^ c, (o2 | z2) ^ c
        return (o1, o2) if o1 | o2 else 0
    na, nb = x.bit_length(), y.bit_length()
    n, s = na + nb - 1, _slot_bytes(4 * min(na, nb))
    out = _slots(a1, a2, na, s) * _slots(b1, b2, nb, s)
    if s == 1:
        return _pair(out.to_bytes(n, "big"))
    out = int.from_bytes(out.to_bytes(s * n, "little").translate(_MOD3), "little")
    w = 8
    while w < 8 * s:
        out += out >> w
        w *= 2
    return _pair(out.to_bytes(s * n, "big")[s - 1::s])


def _divmod3(f: Field, a, b):
    """(quotient, remainder) pairs of a by b != 0 over GF(3).  A divisor
    with leading coefficient 2 is made monic by swapping its planes, and
    the quotient's planes are swapped back.  Each quotient term is then the
    remainder's leading coefficient c, and r - c*X^k*b is a sum with b's
    planes shifted by k, swapped when c = 1.  Of two disjoint planes the
    larger int holds the leading coefficient."""
    if not a:
        return 0, 0
    b1, b2 = b
    flip = b2 > b1
    if flip:
        b1, b2 = b2, b1
    support = b1 | b2
    d = support.bit_length()
    if d == 1:  # a constant: the quotient is a or -a
        return (a[1], a[0]) if flip else a, 0
    r1, r2 = a
    q1 = q2 = 0
    while (k := (x := r1 | r2).bit_length() - d) >= 0:
        if r2 > r1:
            y1, y2 = b1 << k, b2 << k
            q2 |= 1 << k
        else:
            y1, y2 = b2 << k, b1 << k
            q1 |= 1 << k
        c = x & (support << k)
        r1, r2 = (r1 | y1) ^ c, (r2 | y2) ^ c
    if flip:
        q1, q2 = q2, q1
    return (q1, q2) if q1 | q2 else 0, (r1, r2) if r1 | r2 else 0


def _egcd3(f: Field, u, v):
    """poly_egcd on GF(3) pairs, as :func:`_egcd2` on GF(2) masks: each
    quotient term of r0 / r1 is applied to r0, s0 and t0 at once, without
    forming the quotient.  r1 is made monic by swapping its planes and
    those of s1 and t1, a unit multiple of the row that changes no later
    remainder or cofactor."""
    r0a, r0b = u or (0, 0)
    r1a, r1b = v or (0, 0)
    s0a, s0b, s1a, s1b, t0a, t0b, t1a, t1b = 1, 0, 0, 0, 0, 0, 1, 0
    while r1a | r1b:
        if r1b > r1a:
            r1a, r1b, s1a, s1b, t1a, t1b = r1b, r1a, s1b, s1a, t1b, t1a
        rs, ss, ts = r1a | r1b, s1a | s1b, t1a | t1b
        d = rs.bit_length()
        while (k := (x := r0a | r0b).bit_length() - d) >= 0:
            if r0b > r0a:  # r0 - 2*X^k*r1 = r0 + X^k*r1
                ra, rb, sa, sb, ta, tb = (r1a << k, r1b << k, s1a << k, s1b << k,
                                          t1a << k, t1b << k)
            else:
                ra, rb, sa, sb, ta, tb = (r1b << k, r1a << k, s1b << k, s1a << k,
                                          t1b << k, t1a << k)
            c = x & (rs << k)
            r0a, r0b = (r0a | ra) ^ c, (r0b | rb) ^ c
            c = (s0a | s0b) & (ss << k)
            s0a, s0b = (s0a | sa) ^ c, (s0b | sb) ^ c
            c = (t0a | t0b) & (ts << k)
            t0a, t0b = (t0a | ta) ^ c, (t0b | tb) ^ c
        r0a, r0b, s0a, s0b, t0a, t0b, r1a, r1b, s1a, s1b, t1a, t1b = (
            r1a, r1b, s1a, s1b, t1a, t1b, r0a, r0b, s0a, s0b, t0a, t0b)
    if r0b > r0a:
        r0a, r0b, s0a, s0b, t0a, t0b = r0b, r0a, s0b, s0a, t0b, t0a
    return tuple((a, b) if a | b else 0
                 for a, b in ((r0a, r0b), (s0a, s0b), (t0a, t0b)))


def _fold3(f: Field, x, m: int):
    """fold_mod_xm1 on a GF(3) pair, halving as `_fold2` does: the
    coefficients from k up are added back onto X^0."""
    while x and (b := (x[0] | x[1]).bit_length()) > m:
        k = -(-b // (2 * m)) * m
        low = (1 << k) - 1
        x = _add3(f, (x[0] & low, x[1] & low), (x[0] >> k, x[1] >> k))
    return x


# GF(4): a polynomial as the pair (lo, hi) of GF(2) bitmask ints, its two
# bit planes: bit k of lo (hi) is bit 0 (bit 1) of the code of X^k, so X^k
# has coefficient lo_k + hi_k*a over X^2 + X + 1, the one GF(4) modulus.
# Zero is the int 0, as for GF(3).  A sum is one XOR per plane, and since
# a^2 = a + 1 a scalar multiple permutes the planes: a*(lo, hi) =
# (hi, lo ^ hi) and a^2*(lo, hi) = (lo ^ hi, lo).  M4RIE keeps matrices over
# GF(2^e) in the same bit planes (Albrecht, "The M4RIE library for dense
# linear algebra over small fields with even characteristic", ISSAC 2012).
# Codes go in as GF(3) codes do, and come out through _from_pair.

# translation tables, byte v -> the ASCII digit of bit 0 and of bit 1 of v
_LO_DIGIT = b"01" * 128
_HI_DIGIT = b"0011" * 64


def _to_planes(f: Field, codes):
    return _pair(bytes(codes)[::-1], _LO_DIGIT, _HI_DIGIT) if codes else 0


def _scaled4(c: int, planes: tuple) -> tuple:
    """c times every (lo, hi) pair in the flat tuple planes, c a nonzero
    code: a*(lo, hi) = (hi, lo ^ hi) and a^2*(lo, hi) = (lo ^ hi, lo)."""
    if c == 1:
        return planes
    lo, hi = planes[::2], planes[1::2]
    mixed = map(xor, lo, hi)
    return tuple(chain.from_iterable(zip(hi, mixed) if c == 2 else zip(mixed, lo)))


def _lead4(lo: int, hi: int, top: int) -> int:
    """The code of the coefficient of X^top, the highest term of (lo, hi)."""
    return lo >> top | (hi >> top) << 1


# the inverses of the codes 1, a (2) and a^2 = a + 1 (3)
_INV4 = (0, 1, 3, 2)


def _add4(f: Field, a, b):
    if not a:
        return b
    if not b:
        return a
    lo, hi = a[0] ^ b[0], a[1] ^ b[1]
    return (lo, hi) if lo | hi else 0


def _mul4(f: Field, a, b):
    """The product of two GF(4) pairs from three carry-less products,
    Karatsuba style: lo = a0*b0 + a1*b1 and hi = (a0 + a1)*(b0 + b1) +
    a0*b0, since a^2 = a + 1."""
    if not a or not b:
        return 0
    (a0, a1), (b0, b1) = a, b
    low = _mul2(f, a0, b0)
    return low ^ _mul2(f, a1, b1), _mul2(f, a0 ^ a1, b0 ^ b1) ^ low


def _divmod4(f: Field, a, b):
    """(quotient, remainder) pairs of a by b != 0 over GF(4).  The divisor
    is made monic by a plane permutation and its three scalar multiples
    are formed once; each quotient term c*X^k then takes one shifted XOR
    per plane.  The quotient is scaled back at the end."""
    if not a:
        return 0, 0
    d = (b[0] | b[1]).bit_length()
    inv = _INV4[_lead4(*b, d - 1)]
    if d == 1:  # a constant: the quotient is a / b
        return _scaled4(inv, a), 0
    b0, b1 = _scaled4(inv, b)
    mults = (None, (b0, b1), (b1, b0 ^ b1), (b0 ^ b1, b0))
    r0, r1 = a
    q0 = q1 = 0
    while (k := (r0 | r1).bit_length() - d) >= 0:
        c = _lead4(r0, r1, k + d - 1)
        y0, y1 = mults[c]
        r0 ^= y0 << k
        r1 ^= y1 << k
        q0 |= (c & 1) << k
        q1 |= (c >> 1) << k
    return (_scaled4(inv, (q0, q1)) if q0 | q1 else 0), ((r0, r1) if r0 | r1 else 0)


def _egcd4(f: Field, u, v):
    """poly_egcd on GF(4) pairs, as :func:`_egcd3` on GF(3) pairs: the row
    (r1, s1, t1), six planes, is made monic by a plane permutation and its
    scalar multiples are formed once; each quotient term of r0 / r1 is then
    applied to r0, s0 and t0 at once."""
    r0a, r0b = u or (0, 0)
    s0a, s0b, t0a, t0b = 1, 0, 0, 0
    row = (*(v or (0, 0)), 0, 0, 1, 0)
    while row[0] | row[1]:
        d = (row[0] | row[1]).bit_length()
        row = _scaled4(_INV4[_lead4(row[0], row[1], d - 1)], row)
        mults = (None, row, _scaled4(2, row), _scaled4(3, row))
        while (k := (r0a | r0b).bit_length() - d) >= 0:
            ra, rb, sa, sb, ta, tb = mults[_lead4(r0a, r0b, k + d - 1)]
            r0a ^= ra << k
            r0b ^= rb << k
            s0a ^= sa << k
            s0b ^= sb << k
            t0a ^= ta << k
            t0b ^= tb << k
        (r0a, r0b, s0a, s0b, t0a, t0b), row = row, (r0a, r0b, s0a, s0b, t0a, t0b)
    out = _scaled4(_INV4[_lead4(r0a, r0b, (r0a | r0b).bit_length() - 1)],
                   (r0a, r0b, s0a, s0b, t0a, t0b))
    return tuple((a, b) if a | b else 0 for a, b in zip(out[::2], out[1::2]))


def _fold4(f: Field, x, m: int):
    """fold_mod_xm1 on a GF(4) pair: each plane folds as a GF(2) bitmask."""
    if not x:
        return 0
    lo, hi = _fold2(f, x[0], m), _fold2(f, x[1], m)
    return (lo, hi) if lo | hi else 0


# Every other field: a polynomial as its code sequence, the coeffs tuple
# itself on the way in and a fresh list from each operation.

def _codes(f: Field, codes):
    return codes


def _with_tail(out: list, a, b) -> list:
    """out, the sums at the positions a and b share, followed by the rest
    of the longer of them, without trailing zeros."""
    out += a[len(b):] if len(a) > len(b) else b[len(a):]
    return _strip(out)


def _add_p(f: Field, a, b) -> list:
    p = f.p
    return _with_tail([(x + y) % p for x, y in zip(a, b)], a, b)


def _sub_p(f: Field, a, b) -> list:
    p = f.p
    out = [(x - y) % p for x, y in zip(a, b)]
    out += a[len(b):] if len(a) > len(b) else [-y % p for y in b[len(a):]]
    return _strip(out)


# Kronecker slots are 1, 2, 4, 8 or 16 bytes: 16 hold every bound below the
# 2^31 characteristic cap.  Ints are read and written little-endian; a
# one-byte slot is a byte, and on a little-endian machine a memoryview reads
# the slots of 2 to 8 bytes as native unsigned items.
_FORMAT = {2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {}


def _slot_bytes(bound: int) -> int:
    """The slot width in bytes that holds every value up to bound."""
    s = 1
    while bound >> (8 * s):
        s *= 2
    return s


def _pack(codes, s: int, p: int) -> int:
    """The codes as one int, code i in bytes [s*i, s*(i+1))."""
    if p < 256:  # one byte per code, at every s-th byte
        buf = bytes(codes)
        if s > 1:
            wide = bytearray(s * len(buf))
            wide[::s] = buf
            buf = wide
    else:
        buf = b"".join(c.to_bytes(s, "little") for c in codes)
    return int.from_bytes(buf, "little")


def _unpack(x: int, n: int, s: int, p: int) -> list:
    """The n slots of x, each reduced mod p."""
    buf = x.to_bytes(n * s, "little")
    if s == 1:
        return [c % p for c in buf]
    if s in _FORMAT:
        return [c % p for c in memoryview(buf).cast(_FORMAT[s])]
    return [int.from_bytes(buf[i:i + s], "little") % p for i in range(0, n * s, s)]


def _kronecker_mul(f: Field, a, b) -> list:
    """The product of two code sequences over GF(p), p odd: one integer
    product of the packed operands.  Product coefficient k is a sum of at
    most min(len) terms below p^2 before its reduction mod p."""
    if not a or not b:
        return []
    p = f.p
    s = _slot_bytes((p - 1) ** 2 * min(len(a), len(b)))
    return _unpack(_pack(a, s, p) * _pack(b, s, p), len(a) + len(b) - 1, s, p)


def _divmod_p(f: Field, a, b):
    """(quotient, remainder) code lists of a by b over GF(p): schoolbook
    long division on modular integers, for p >= 5 (GF(3) has its own
    kernel)."""
    db, p = len(b) - 1, f.p
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
    return quot, _strip(rem)


def _add_ext(f: Field, a, b) -> list:
    return _with_tail(list(map(xor if f.p == 2 else f.add, a, b)), a, b)


def _sub_ext(f: Field, a, b) -> list:
    out = list(map(xor if f.p == 2 else f.sub, a, b))
    out += a[len(b):] if len(a) > len(b) else map(f.neg, b[len(a):])
    return _strip(out)


def _mul_ext(f: Field, a, b) -> list:
    if not a or not b:
        return []
    add, mul = f.add, f.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add(out[i + j], mul(x, y))
    return out


def _divmod_ext(f: Field, a, b):
    dv = len(b) - 1
    mul, sub = f.mul, f.sub
    inv_lead = f.inv(b[-1])
    rem = list(a)
    quot = [0] * (len(rem) - dv)
    for top in range(len(rem) - 1, dv - 1, -1):
        c = rem[top]
        if c == 0:
            continue
        qc = mul(c, inv_lead)
        quot[top - dv] = qc
        for j, bj in enumerate(b):
            rem[top - dv + j] = sub(rem[top - dv + j], mul(qc, bj))
    del rem[dv:]
    return quot, _strip(rem)


def _code_kernel(add, sub, mul, divmod_) -> _Kernel:
    """The kernel on code lists with the given operations, and the egcd
    (Euclid's loop, then a division by the gcd's leading coefficient) and
    fold built on them."""

    def egcd(f: Field, u, v):
        r0, r1, s0, s1, t0, t1 = u, v, [1], [], [], [1]
        while r1:
            q, r = divmod_(f, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, sub(f, s0, mul(f, q, s1))
            t0, t1 = t1, sub(f, t0, mul(f, q, t1))
        lead = r0[-1:]
        return tuple(divmod_(f, a, lead)[0] for a in (r0, s0, t0))

    def fold(f: Field, codes, m: int):
        out = codes[:m]
        for i in range(m, len(codes), m):
            out = add(f, out, codes[i:i + m])
        return out

    return _Kernel(_codes, _trusted, add, sub, mul, divmod_, egcd, fold)


_GF2 = _Kernel(_to_mask, _from_mask, _xor, _xor, _mul2, _divmod2, _egcd2, _fold2)
_GF3 = _Kernel(_to_pair, _from_pair, _add3, _sub3, _mul3, _divmod3, _egcd3, _fold3)
_GF4 = _Kernel(_to_planes, _from_pair, _add4, _add4, _mul4, _divmod4, _egcd4, _fold4)
_GFP = _code_kernel(_add_p, _sub_p, _kronecker_mul, _divmod_p)
_EXT = _code_kernel(_add_ext, _sub_ext, _mul_ext, _divmod_ext)


def _kernel(f: Field) -> _Kernel:
    """The kernel for the kind of the field f."""
    if f.q == 2:
        return _GF2
    if f.q == 3:
        return _GF3
    if f.q == 4:
        return _GF4
    return _GFP if f.m == 1 else _EXT


def x_pow_minus_one(field: Field, m: int) -> Poly:
    """The polynomial X^m - 1 over the field; DegreeMismatch unless m is an
    integer >= 1."""
    m = _positive("m", m, DegreeMismatch)
    return _trusted(field, [field.neg(1)] + [0] * (m - 1) + [1])


def poly_gcd(u: Poly, v: Poly) -> Poly:
    """Monic greatest common divisor."""
    if u.is_zero and v.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    u._check(v)
    f = u.field
    k = _kernel(f)
    a, b = k.native(f, u.coeffs), k.native(f, v.coeffs)
    while b:
        a, b = b, k.divmod(f, a, b)[1]
    return k.poly(f, a).monic()


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
    k = _kernel(f)
    return tuple(k.poly(f, x)
                 for x in k.egcd(f, k.native(f, u.coeffs), k.native(f, v.coeffs)))


def modular_substitute(p: Poly, e: int, N: int, shift: int = 0) -> Poly:
    """p(X^e) * X^shift reduced modulo X^N - 1: coefficient k lands on
    X^((k*e + shift) mod N), so negative e and shift mean inverse powers
    of X in the quotient ring.  Colliding exponents are summed in the
    field.  DegreeMismatch unless N is an integer >= 1 and e and shift
    are integers."""
    N = _positive("N", N, DegreeMismatch)
    e = _integer("e", e, DegreeMismatch) % N
    shift = _integer("shift", shift, DegreeMismatch) % N
    f = p.field
    add = f.add
    out = [0] * N
    for k, c in enumerate(p.coeffs):
        if c:
            pos = (k * e + shift) % N
            out[pos] = add(out[pos], c) if out[pos] else c
    return _trusted(f, out)


def fold_mod_xm1(p: Poly, m: int) -> Poly:
    """p reduced modulo X^m - 1 by folding exponents (X^k -> X^(k mod m));
    DegreeMismatch unless m is an integer >= 1."""
    m = _positive("m", m, DegreeMismatch)
    if p.degree < m:
        return p
    f = p.field
    k = _kernel(f)
    return k.poly(f, k.fold(f, k.native(f, p.coeffs), m))
