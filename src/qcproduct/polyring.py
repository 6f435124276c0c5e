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

* GF(2): bitmask ints, bit k for X^k; sums, products and division are
  XOR and shift;
* GF(3): pairs of bitmask ints, one for the coefficients equal to 1 and
  one for those equal to 2 (bitslicing); a sum is seven bitwise operations
  on the pair, negation swaps it, and division takes one shifted sum per
  quotient term; products shift and add over a sparse factor, or go
  through Kronecker substitution;
* GF(4): pairs of GF(2) bitmask ints, the two bit planes of the codes; a
  sum is one XOR per plane, a scalar multiple permutes the planes, a
  product is three carry-less products, and division takes one shifted
  XOR per plane for each quotient term;
* GF(p), p >= 5: code lists; products by Kronecker substitution, the codes
  packed into byte slots of one integer wide enough for the bound
  (p-1)^2 * min(len) on a product coefficient, so one integer product
  convolves them without a carry between slots (FLINT's ``nmod_poly``
  multiplies the same way; Harvey, "Faster polynomial multiplication via
  multipoint Kronecker substitution", JSC 2009);
* extension fields other than GF(4): code lists with schoolbook loops over
  q x q tables up to 256 elements, and beyond over :class:`Field` calls (an
  extension's own elements beyond its tables multiply on the prime field's
  kernel, ``field._ring``).

Rows of entries have a format that only this module knows.  The bit-plane
kernels pack a row into one int per plane, entry j in the j-th field of w
bits from the top; the kernels on code lists keep the list of entries
(:func:`_code_kernel`).  The caller chooses w once: canonical reduction
2m + 1 for its whole run, the egcd one more than its longer operand.  The
row operations carry along whole rows each quotient term of Euclid's loop
(`euclid`, also the gcd's) or of a division at one column (`divide`), and
the fold modulo X^m - 1 (`fold_row`).  Each bit-plane kernel has one
Euclid loop, which `divide` and `divmod` (on the rows (a, 0) and (b, -1))
stop after one remainder, and one fold, which `fold` runs on a one-entry
row.  Every kernel's `fold` halves its operand per pass.
"""

from __future__ import annotations

import sys
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain
from operator import index, itemgetter, xor

from .errors import (
    BothZero,
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    NotADivisor,
)
from .field import Field, _integer, _positive, _power, coeffs_to_poly_text

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
        return self if self.is_zero or self.is_monic else _monic(self)[1]

    def __call__(self, x: int) -> int:
        """The code of the value at the element code x, by Horner's rule."""
        f = self.field
        x = _integer("evaluation point", x, FieldMismatch)
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
    codes: trailing zeros are stripped in place, the other checks skipped.
    A tuple whose last code is nonzero is kept as it is."""
    p = object.__new__(Poly)
    _set_field(p, field)
    _set_coeffs(p, tuple(_strip(codes)))
    return p


# ---------------------------------------------------------------------------
# one kernel per kind of field
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class _Kernel:
    """Polynomial arithmetic over one kind of field on a native form, in
    which zero is the one false value.  Every function takes the field
    first and changes no operand.  `egcd` takes two code sequences and
    returns (g, s, t) as :func:`poly_egcd` does, `gcd(f, a, b, w)` the
    monic gcd, `fold` reduces modulo X^m - 1, `xm1` is X^m - 1.  A row of
    native entries has a form only the kernel reads: `pack(f, entries, w)`
    makes one for entries of up to w coefficients, w the caller's, and
    `unpack(f, a, n, w)` lists its last n.  The others act at the column n
    entries from the end, with zeros before it in b (and a, for `lead` and
    `euclid`): `lead` tests a's entry there, `euclid` runs Euclid's loop on
    the entries there with each quotient term applied to the whole row and
    returns the rows (..., monic gcd, ...), (..., 0, ...), `divide`
    subtracts the quotient there times b from a, and `fold_row(f, a, n, m,
    w)` reduces the last n entries, each below degree 2m, modulo X^m - 1.
    A bit-plane kernel's `divide` and `divmod` stop its Euclid loop early."""

    native: Callable  # (field, stripped codes) -> native form
    poly: Callable  # (field, native form) -> Poly
    add: Callable
    sub: Callable
    mul: Callable
    divmod: Callable
    fold: Callable
    pack: Callable
    unpack: Callable
    lead: Callable
    euclid: Callable
    divide: Callable
    fold_row: Callable

    def egcd(self, f: Field, u, v):
        one, zero, w = self.native(f, (1,)), self.native(f, ()), max(len(u), len(v)) + 1
        a = self.pack(f, [self.native(f, u), one, zero], w)
        b = self.pack(f, [self.native(f, v), zero, one], w)
        return tuple(self.poly(f, x) for x in self.unpack(f, self.euclid(f, a, b, 3, w)[0], 3, w))

    def gcd(self, f: Field, a, b, w: int):
        g = self.euclid(f, self.pack(f, [a], w), self.pack(f, [b], w), 1, w)[0]
        return self.unpack(f, g, 1, w)[0]

    def xm1(self, f: Field, m: int):
        return self.native(f, (f.p - 1,) + (0,) * (m - 1) + (1,))  # -1 = p - 1


# The bit-plane kernels pack a row into one int per plane, entry j of n in
# the j-th field of w bits from the top, so with zeros before the column
# the bit length reads the degree there, and a quotient term costs one
# shifted XOR or bitsliced sum for the whole row.  A Euclid run's rows are
# s*a + t*b with deg s <= deg b[0], deg t <= deg a[0]: no entry spills into
# the next field while a leading entry's and another's coefficients add up
# to at most w + 1.

@lru_cache(maxsize=64)  # bounded: m comes from untrusted documents
def _low_bits(n: int, m: int, w: int) -> int:
    """The mask of the m lowest bits of each of the n lowest w-bit fields."""
    return ((1 << n * w) - 1) // ((1 << w) - 1) * ((1 << m) - 1)


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


def _euclid2(x: int, y: int, s: int):
    """Euclid's loop over GF(2) on polynomials or packed rows while y >> s != 0:
    x less the multiples y << k that clear its bits from y's top bit up, then
    (x, y) = (y, that remainder).  With s y's top bit it stops after one."""
    while y >> s:
        d = y.bit_length()
        while (k := x.bit_length() - d) >= 0:
            x ^= y << k
        x, y = y, x
    return x, y


def _divmod2(f: Field, a: int, b: int):
    """(quotient, remainder) of a by b != 0: one remainder of the rows (a, 0), (b, 1)."""
    if (w := a.bit_length() - b.bit_length() + 1) <= 0:
        return 0, a
    if b == 1:
        return a, 0
    x = _euclid2(a << w, b << w | 1, b.bit_length() - 1 + w)[1]
    return x & (1 << w) - 1, x >> w


def _pack2(f: Field, entries, w: int) -> int:
    x = 0
    for u in entries:
        x = x << w | u
    return x


def _unpack2(f: Field, x: int, n: int, w: int) -> list:
    mask = (1 << w) - 1
    return [x >> s & mask for s in range((n - 1) * w, -1, -w)]


def _divide2(f: Field, x: int, y: int, n: int, w: int) -> int:
    return x >> n * w << n * w | _euclid2(x & ((1 << n * w) - 1), y, y.bit_length() - 1)[1]


def _fold_row2(f: Field, x: int, n: int, m: int, w: int) -> int:
    """Bits m to 2m - 1 of each of the last n fields XORed onto bit 0."""
    low = _low_bits(n, m, w)
    return x >> n * w << n * w | (x & low) ^ (x >> m & low)


def _fold(fold_row: Callable, f: Field, x, m: int):
    """fold_mod_xm1 on a bitmask or a pair of b bits: fold_row on a one-entry
    row of width 2k modulo X^k = 1, k the least multiple of m >= b/2, till b <= m."""
    while (b := (x if type(x) is int else x[0] | x[1]).bit_length()) > m:
        k = -(-b // (2 * m)) * m
        x = fold_row(f, x, 1, k, 2 * k)
    return x if b else 0  # zero as the int 0


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


# A row of pairs, over GF(3) or GF(4), is the pair of its packed planes.

def _pack_pair(f: Field, entries, w: int) -> tuple:
    x1 = x2 = 0
    for u in entries:
        u1, u2 = u or (0, 0)
        x1, x2 = x1 << w | u1, x2 << w | u2
    return x1, x2


def _lead_pair(f: Field, a: tuple, n: int, w: int) -> int:
    return (a[0] | a[1]) >> (n - 1) * w


def _unpack_pair(f: Field, a: tuple, n: int, w: int) -> list:
    (x1, x2), mask, x = a, (1 << w) - 1, a[0] | a[1]
    return [(x1 >> s & mask, x2 >> s & mask) if x >> s & mask else 0
            for s in range((n - 1) * w, -1, -w)]


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


def _euclid3(x: tuple, y: tuple, s: int):
    """`_euclid2` on GF(3) pairs.  A y led by 2 is made monic by swapping
    its planes (u); each term is then x's leading coefficient c, and
    x - c*X^k*u is a sum with u's planes shifted by k, swapped when c = 1.
    Of two disjoint planes the larger int holds the leading coefficient."""
    (x1, x2), (y1, y2) = x, y
    while (support := y1 | y2) >> s:
        u1, u2 = (y2, y1) if y2 > y1 else (y1, y2)
        d = support.bit_length()
        while (k := (t := x1 | x2).bit_length() - d) >= 0:
            z1, z2 = (u1 << k, u2 << k) if x2 > x1 else (u2 << k, u1 << k)
            c = t & (support << k)
            x1, x2 = (x1 | z1) ^ c, (x2 | z2) ^ c
        x1, x2, y1, y2 = y1, y2, x1, x2
    return (x1, x2), (y1, y2)


def _over3(c: int, a: tuple) -> tuple:  # a/c: 1/2 = 2 swaps the planes
    return a if c == 1 else a[::-1]


def _divmod_pair(loop: Callable, over: Callable, f: Field, a, b):
    """(quotient, remainder) pairs of a by b != 0 over GF(3) or GF(4): with
    w bits for the quotient, one remainder of the rows (a, 0), (b, -1) is (r,
    q); -1, the code p - 1, has its two bits as planes in both kernels.  A
    constant b of code c gives the quotient over(c, a), a divided by c."""
    if not a:
        return 0, 0
    (b1, b2), c = b, f.p - 1
    if (w := (a[0] | a[1]).bit_length() - (d := (b1 | b2).bit_length()) + 1) <= 0:
        return 0, a
    if b1 | b2 == 1:
        return over(b1 | b2 << 1, a), 0
    x1, x2 = loop((a[0] << w, a[1] << w), (b1 << w | c & 1, b2 << w | c >> 1), d - 1 + w)[1]
    q, r = (x1 & (1 << w) - 1, x2 & (1 << w) - 1), (x1 >> w, x2 >> w)
    return (q if q[0] | q[1] else 0), (r if r[0] | r[1] else 0)


def _euclid_pair(loop: Callable, over: Callable, f: Field, a: tuple, b: tuple, n: int, w: int):
    """euclid on rows of pairs over GF(3) or GF(4): the field's Euclid loop,
    then the gcd row divided by its leading coefficient's code (`over`)."""
    a, b = loop(a, b, (n - 1) * w)
    if (x := a[0] | a[1]) >> (n - 1) * w:  # the code of a's leading term
        a = over(a[0] >> (t := x.bit_length() - 1) | a[1] >> t << 1, a)
    return a, b


def _divide_pair(loop: Callable, f: Field, a: tuple, b: tuple, n: int, w: int) -> tuple:
    """divide on rows of pairs: one remainder of a's last n entries by b."""
    s, last = n * w, (1 << n * w) - 1
    x1, x2 = loop((a[0] & last, a[1] & last), b, (b[0] | b[1]).bit_length() - 1)[1]
    return a[0] >> s << s | x1, a[1] >> s << s | x2


def _fold_row3(f: Field, a: tuple, n: int, m: int, w: int) -> tuple:
    """`_fold_row2` with one bitsliced sum of the low and the high parts."""
    (x1, x2), low, s = a, _low_bits(n, m, w), n * w
    l1, l2, h1, h2 = x1 & low, x2 & low, x1 >> m & low, x2 >> m & low
    c = (l1 | l2) & (h1 | h2)
    return x1 >> s << s | (l1 | h1) ^ c, x2 >> s << s | (l2 | h2) ^ c


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


def _over4(c: int, planes: tuple) -> tuple:
    """Every (lo, hi) pair in the flat tuple planes divided by the nonzero
    code c: (lo, hi)/a = a^2*(lo, hi) = (lo ^ hi, lo) and (lo, hi)/a^2 =
    a*(lo, hi) = (hi, lo ^ hi)."""
    if c == 1:
        return planes
    lo, hi = planes[::2], planes[1::2]
    mixed = map(xor, lo, hi)
    return tuple(chain.from_iterable(zip(mixed, lo) if c == 2 else zip(hi, mixed)))


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


def _euclid4(x: tuple, y: tuple, s: int):
    """`_euclid2` on GF(4) pairs of planes: y is made monic by a plane
    permutation (u) and its three scalar multiples are formed once per
    remainder; each term c*X^k then takes one shifted XOR per plane."""
    (x0, x1), (y0, y1) = x, y
    while (support := y0 | y1) >> s:
        d = support.bit_length()
        u0, u1 = _over4(y0 >> d - 1 | y1 >> d - 1 << 1, (y0, y1))
        mults = (None, (u0, u1), (u1, u0 ^ u1), (u0 ^ u1, u0))
        while (k := (x0 | x1).bit_length() - d) >= 0:
            z0, z1 = mults[x0 >> (t := k + d - 1) | x1 >> t << 1]  # the code at the top t
            x0 ^= z0 << k
            x1 ^= z1 << k
        x0, x1, y0, y1 = y0, y1, x0, x1
    return (x0, x1), (y0, y1)


def _fold_row4(f: Field, a: tuple, n: int, m: int, w: int) -> tuple:
    return _fold_row2(f, a[0], n, m, w), _fold_row2(f, a[1], n, m, w)


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


_EXT_TABLE_FIELDS = 8
_ext_tables: dict = {}


class _Calls(partial):
    """A Field operation read as a table: t[a][b] calls it on (a, b)."""
    def __getitem__(self, x):
        return self(x) if self.args else _Calls(self.func, x)


def _ext_ops(f: Field):
    """(mul, add, inv): mul[a][b] = a*b, add[a][b] = a + b, inv(a) = 1/a over f.
    Up to 256 elements, tables from f's exp and log tables, kept for the last
    _EXT_TABLE_FIELDS fields by the id of the exp tuple that equal fields share
    and the entry keeps alive, so no call hashes a Field; beyond, Field calls."""
    if f.q > 256:
        return _Calls(f.mul), _Calls(f.add), f.inv
    if hit := _ext_tables.get(id(exp := f._exp)):
        return hit[1]
    log, n, p, get = f._log, f.q - 1, f.p, itemgetter(*f._log)
    mul = [get(exp[la:la + 2 * n + 1]) for la in log]  # exp[log a + log b]
    step = [c + 1 - p if c % p == p - 1 else c + 1 for c in range(f.q)]  # c + 1
    inv = [exp[n - la] for la in log]  # exp[-n] = 0 for a = 0
    add = [range(f.q)] + [itemgetter(*itemgetter(*mul[inv[a]])(step))(mul[a])  # a*(1 + b/a)
                          for a in range(1, f.q)]
    if len(_ext_tables) >= _EXT_TABLE_FIELDS:
        _ext_tables.clear()
    _ext_tables[id(exp)] = exp, (ops := (mul, add, inv.__getitem__))
    return ops


def _add_ext(f: Field, a, b) -> list:
    add = _ext_ops(f)[1]
    return _with_tail([add[x][y] for x, y in zip(a, b)], a, b)


def _sub_ext(f: Field, a, b) -> list:
    neg = _ext_ops(f)[0][f.p - 1]  # a + (-1)*b, -1 the code p - 1
    return _add_ext(f, a, [neg[y] for y in b])


def _mul_ext(f: Field, a, b) -> list:
    if not a or not b:
        return []
    mul, add, _ = _ext_ops(f)
    out, calls = [0] * (len(a) + len(b) - 1), f.q > 256
    for i, x in enumerate(a):
        if x:
            row = mul[x]
            if calls:  # row is f.mul with x bound: two Field calls a term
                out[i:i + len(b)] = map(f.add, out[i:i + len(b)], map(row, b))
                continue
            for k, y in enumerate(b, i):
                if y:
                    out[k] = add[out[k]][row[y]]
    return out


def _divmod_ext(f: Field, a, b):
    mul, add, inv = _ext_ops(f)  # each quotient term qc, then -qc*b added
    dv, over, neg, calls = len(b) - 1, inv(b[-1]), mul[f.p - 1], f.q > 256
    rem = list(a)
    quot = [0] * (len(rem) - dv)
    for top in range(len(rem) - 1, dv - 1, -1):
        if c := rem[top]:
            quot[top - dv] = qc = mul[c][over]
            row = mul[neg[qc]]
            if calls:  # as in _mul_ext
                rem[top - dv:top + 1] = map(f.add, rem[top - dv:top + 1], map(row, b))
                continue
            for k, y in enumerate(b, top - dv):
                rem[k] = add[rem[k]][row[y]]
    del rem[dv:]
    return quot, _strip(rem)


def _code_kernel(add, sub, mul, divmod_) -> _Kernel:
    """The kernel on code lists with the given operations, and the fold and
    the row operations built on them: a row is the list of its entries,
    each quotient applied by one product and one difference per entry."""

    def fold(f: Field, codes, m: int):  # halving, as _fold does
        while (b := len(codes)) > m:
            k = -(-b // (2 * m)) * m
            codes = add(f, codes[:k], codes[k:])
        return codes

    def euclid(f: Field, a: list, b: list, n: int, w: int):
        c = len(a) - n
        while b[c]:
            q, r = divmod_(f, a[c], b[c])
            a, b = b, a[:c] + [r] + [sub(f, x, mul(f, q, y)) for x, y in zip(a[c + 1:], b[c + 1:])]
        if a[c] and a[c][-1] != 1:
            a = [divmod_(f, x, a[c][-1:])[0] for x in a]
        return a, b

    def divide(f: Field, a: list, b: list, n: int, w: int) -> list:
        c = len(a) - n
        q = divmod_(f, a[c], b[c])[0]
        return a[:c] + [sub(f, x, mul(f, q, y)) for x, y in zip(a[c:], b[c:])] if q else a

    def fold_row(f: Field, a: list, n: int, m: int, w: int) -> list:
        return a[:len(a) - n] + [fold(f, x, m) for x in a[len(a) - n:]]

    return _Kernel(_codes, _trusted, add, sub, mul, divmod_, fold,
                   lambda f, entries, w: list(entries), lambda f, a, n, w: a[-n:],
                   lambda f, a, n, w: a[-n], euclid, divide, fold_row)


_GF2 = _Kernel(_to_mask, _from_mask, _xor, _xor, _mul2, _divmod2, partial(_fold, _fold_row2),
               _pack2, _unpack2, lambda f, x, n, w: x >> (n - 1) * w,
               lambda f, x, y, n, w: _euclid2(x, y, (n - 1) * w),  # the gcd comes monic
               _divide2, _fold_row2)
_GF3 = _Kernel(_to_pair, _from_pair, _add3, _sub3, _mul3, partial(_divmod_pair, _euclid3, _over3),
               partial(_fold, _fold_row3), _pack_pair, _unpack_pair, _lead_pair,
               partial(_euclid_pair, _euclid3, _over3), partial(_divide_pair, _euclid3),
               _fold_row3)
_GF4 = _Kernel(_to_planes, _from_pair, _add4, _add4, _mul4,
               partial(_divmod_pair, _euclid4, _over4), partial(_fold, _fold_row4), _pack_pair,
               _unpack_pair, _lead_pair, partial(_euclid_pair, _euclid4, _over4),
               partial(_divide_pair, _euclid4), _fold_row4)
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


def _monic(g: Poly, m: int = 0):
    """(kernel, g made monic, and for an int m >= 1 the native cofactor
    (X^m - 1)/g) for a nonzero g; NotADivisor unless g divides X^m - 1."""
    f, k = g.field, _kernel(g.field)
    native = k.native(f, g.coeffs)
    if not g.is_monic:  # the quotient by the leading coefficient, a constant
        native = k.divmod(f, native, k.native(f, (g.leading,)))[0]
        g = k.poly(f, native)
    cofactor, rem = k.divmod(f, k.xm1(f, m), native) if m else (None, 0)
    if rem:
        raise NotADivisor(f"{g!r} does not divide X^{m}-1")
    return k, g, cofactor


def _divides_xm1(d: Poly, m: int) -> bool:
    """Whether d != 0 divides X^m - 1, on the kernel's native form of d: for a
    d of low degree against m, X^m = 1 (mod d) by square-and-multiply, up to
    2 bitlen(m) steps of a product and a remainder of about deg d terms
    each, where dividing X^m - 1 takes m - deg d quotient terms."""
    f, k = d.field, _kernel(d.field)
    kdivmod, n = k.divmod, k.native(f, d.coeffs)
    if 4 * d.degree * m.bit_length() >= m - d.degree:
        return not kdivmod(f, k.xm1(f, m), n)[1]
    one, x = (kdivmod(f, k.native(f, c), n)[1] for c in ((1,), (0, 1)))
    return _power(lambda a, b: kdivmod(f, k.mul(f, a, b), n)[1], x, m, one) == one


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
    f, k = u.field, _kernel(u.field)
    w = max(len(u.coeffs), len(v.coeffs))
    return k.poly(f, k.gcd(f, k.native(f, u.coeffs), k.native(f, v.coeffs), w))


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
    return _kernel(u.field).egcd(u.field, u.coeffs, v.coeffs)


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
    top = -1
    for k, c in enumerate(p.coeffs):
        if c:
            pos = (k * e + shift) % N
            out[pos] = add(out[pos], c) if out[pos] else c
            if pos > top:
                top = pos
    del out[top + 1:]  # one cut; _trusted strips a top whose codes cancelled
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
