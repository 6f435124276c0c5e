"""Univariate polynomials over a finite field.

Dense ascending coefficient representation (integer element codes, no
trailing zeros; the zero polynomial has an empty coefficient tuple and degree
``-inf``).  Everything here is exact and immutable: ring arithmetic, division
with remainder, monic (extended) gcds with a canonical cofactor convention,
and the modular substitution X -> X^e (mod X^N - 1) that the product
constructions apply with negative exponents.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BothZero,
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    NotADivisor,
)
from .field import Field, FieldElement, coeffs_to_poly_text

__all__ = [
    "Poly",
    "poly_gcd",
    "poly_egcd",
    "modular_substitute",
    "fold_mod_xm1",
    "x_pow_minus_one",
    "split_residue",
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
        codes = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.field != field:
                    raise FieldMismatch("coefficient from a different field")
                codes.append(c.code)
            else:
                code = int(c)
                if not 0 <= code < field.q:
                    raise FieldMismatch(
                        f"coefficient code {code} outside [0, {field.q})")
                codes.append(code)
        while codes and codes[-1] == 0:
            codes.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(codes))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field: Field) -> "Poly":
        return Poly(field, ())

    @staticmethod
    def one(field: Field) -> "Poly":
        return Poly(field, (1,))

    @staticmethod
    def monomial(field: Field, exp: int, coeff: int = 1) -> "Poly":
        if exp < 0:
            raise DegreeMismatch("monomial exponent must be nonnegative")
        return Poly(field, (0,) * exp + (coeff,))

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
        f = self.field
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return _trusted(f, out)

    def __sub__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        f = self.field
        a, b = self.coeffs, o.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] = f.sub(out[i], c)
        return _trusted(f, out)

    def __neg__(self):
        f = self.field
        return Poly(f, [f.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch("scalar from a different field")
            return self.scale(other.code)
        o = self._check(other)
        if o is NotImplemented:
            return o
        f = self.field
        if self.is_zero or o.is_zero:
            return Poly.zero(f)
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
            return Poly.zero(f)
        return _trusted(f, [f.mul(code, c) for c in self.coeffs])

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise DegreeMismatch("negative polynomial powers are not defined")
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        o = self._check(other)
        if o is NotImplemented:
            return o
        if o.is_zero:
            raise DivisionByZero("polynomial division by zero")
        f = self.field
        dv = len(o.coeffs) - 1
        inv_lead = f.inv(o.leading)
        rem = list(self.coeffs)
        if len(rem) - 1 < dv:
            return Poly.zero(f), self
        quot = [0] * (len(rem) - dv)
        for top in range(len(rem) - 1, dv - 1, -1):
            c = rem[top]
            if c == 0:
                continue
            qc = f.mul(c, inv_lead)
            quot[top - dv] = qc
            for j, b in enumerate(o.coeffs):
                rem[top - dv + j] = f.sub(rem[top - dv + j], f.mul(qc, b))
        return _trusted(f, quot), _trusted(f, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        return self.scale(self.field.inv(self.leading))

    def __call__(self, x: FieldElement) -> FieldElement:
        """Evaluate by Horner's rule."""
        if x.field != self.field:
            raise FieldMismatch("evaluation point from a different field")
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x.code), c)
        return FieldElement(f, acc)

    def __repr__(self):
        return f"Poly[{coeffs_to_poly_text(self.coeffs)} over {self.field!r}]"


_set_field, _set_coeffs = Poly.field.__set__, Poly.coeffs.__set__


def _trusted(field: Field, codes: list) -> Poly:
    """A Poly from codes that ``Field`` operations made out of validated
    codes: trailing zeros are stripped in place, the other checks skipped."""
    while codes and codes[-1] == 0:
        codes.pop()
    p = object.__new__(Poly)
    _set_field(p, field)
    _set_coeffs(p, tuple(codes))
    return p


def x_pow_minus_one(field: Field, m: int) -> Poly:
    """The polynomial X^m - 1 over the field."""
    if m < 1:
        raise DegreeMismatch("m must be positive")
    return Poly(field, (field.neg(1),) + (0,) * (m - 1) + (1,))


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
    """
    if u.is_zero and v.is_zero:
        raise BothZero("egcd(0, 0) is undefined")
    u._check(v)
    f = u.field
    r0, r1 = u, v
    s0, s1 = Poly.one(f), Poly.zero(f)
    t0, t1 = Poly.zero(f), Poly.one(f)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    c = f.inv(r0.leading)
    g, s, t = r0.scale(c), s0.scale(c), t0.scale(c)
    if not v.is_zero:
        vg = v // g
        q, s = divmod(s, vg)
        if not q.is_zero:
            t = t + q * (u // g)
    return g, s, t


def modular_substitute(p: Poly, e: int, N: int) -> Poly:
    """p(X^e) reduced modulo X^N - 1, with e taken as its least nonnegative
    residue mod N (so negative exponents mean inverse powers of X in the
    quotient ring).  Colliding exponents are summed in the field."""
    if N < 1:
        raise DegreeMismatch("modulus exponent N must be positive")
    f = p.field
    e_res = e % N
    out = [0] * N
    for k, c in enumerate(p.coeffs):
        if c:
            pos = (k * e_res) % N
            out[pos] = f.add(out[pos], c)
    return Poly(f, out)


def fold_mod_xm1(p: Poly, m: int) -> Poly:
    """p reduced modulo X^m - 1 by folding exponents (X^k -> X^(k mod m))."""
    return p if p.degree < m else modular_substitute(p, 1, m)


def split_residue(y: int, ell: int, m: int) -> int:
    """Given y congruent to a*ell (mod ell*m), recover a (mod m).

    The congruence forces ell to divide y's residue; anything else is
    rejected rather than silently rounded.
    """
    if ell < 1 or m < 1:
        raise DegreeMismatch("ell and m must be positive")
    y_res = y % (ell * m)
    if y_res % ell != 0:
        raise NotADivisor(f"{ell} does not divide {y} modulo {ell * m}")
    return (y_res // ell) % m
