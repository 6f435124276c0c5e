"""Finite fields GF(p^m) with exact polynomial-basis arithmetic.

A :class:`Field` owns the characteristic ``p``, extension degree ``m`` and a
monic irreducible modulus over GF(p).  Elements are represented canonically as
integer *codes*: the base-``p`` digits of the code are the polynomial-basis
coefficients, so for p = 2 the code is the familiar bitmask.  The code-level
operations (:meth:`Field.add`, :meth:`Field.mul`, ...) are the fast path used
by the polynomial layer; :class:`FieldElement` wraps a code with operator
overloading for direct use.

Three internal arithmetic strategies keep everything exact and fast enough:

* prime fields (m = 1): plain modular integer arithmetic;
* characteristic 2: carry-less integer multiplication on bitmasks;
* odd characteristic extensions: numpy convolution plus a precomputed
  reduction matrix for the modulus.

The module also carries the two text formats for polynomials over GF(p)
(sparse algebraic like ``X^8+X^4+X^3+X^2+1`` and dense ascending coefficient
lists like ``1,0,1,1,1,0,0,0,1``), which the serialization layer reuses for
polynomials over arbitrary fields.
"""

from __future__ import annotations

import functools
import itertools
import re

import numpy as np

from .errors import (
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    NoSuchRoot,
    NotIrreducible,
    NotPrime,
    PolyParseError,
)

__all__ = [
    "Field",
    "FieldElement",
    "field_new",
    "nth_root_of_unity",
    "poly_text_to_coeffs",
    "coeffs_to_poly_text",
]


# ---------------------------------------------------------------------------
# small integer number theory
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n, ascending (trial division)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return tuple(out)


# ---------------------------------------------------------------------------
# polynomials over GF(p) as coefficient tuples (internal kernel)
#
# Used only for modulus validation and the default-modulus search, before a
# Field object exists.  Coefficients ascend in degree; no trailing zeros.
# ---------------------------------------------------------------------------

def _pp_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pp_mod(u, v, p):
    """Remainder of u modulo v (v monic up to a unit), over GF(p)."""
    r = list(u)
    dv = len(v) - 1
    inv_lead = pow(v[-1], p - 2, p)
    while len(r) - 1 >= dv and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dv:
            break
        c = (r[-1] * inv_lead) % p
        shift = len(r) - 1 - dv
        for j, b in enumerate(v):
            r[shift + j] = (r[shift + j] - c * b) % p
    return _pp_trim(r)


def _pp_gcd(u, v, p):
    while v:
        u, v = v, _pp_mod(u, v, p)
    return u


def _monic_candidates(p: int, deg: int):
    """All monic polynomials of the given degree over GF(p), in the order
    induced by reading coefficients high-to-low as a base-p integer."""
    for low in itertools.product(range(p), repeat=deg):
        yield tuple(reversed(low)) + (1,)


def _trial_division_irreducible(coeffs, p) -> bool:
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for cand in _monic_candidates(p, d):
            if not _pp_mod(coeffs, cand, p):
                return False
    return True


def _frobenius_irreducible(coeffs, p) -> bool:
    """Distinct-degree irreducibility criterion: f of degree r is irreducible
    over GF(p) iff X^(p^r) == X (mod f) and gcd(X^(p^(r/s)) - X, f) = 1 for
    every prime s dividing r.  Polynomial-time, used where trial division is
    out of reach."""
    r = len(coeffs) - 1
    f = np.array(coeffs, dtype=np.int64)
    # reduction matrix: row t holds the coefficients of X^(r+t) mod f
    red = np.zeros((max(r - 1, 1), r), dtype=np.int64)
    red[0] = (-f[:r]) % p
    for t in range(1, r - 1):
        carry = red[t - 1][r - 1]
        red[t][1:] = red[t - 1][:-1]
        red[t][0] = 0
        red[t] = (red[t] + carry * red[0]) % p

    def reduce_(vec):
        while len(vec) > r:
            high = vec[r:]
            vec = (vec[:r] + high @ red[: len(high)]) % p
        out = np.zeros(r, dtype=np.int64)
        out[: len(vec)] = vec
        return out

    def mulmod(u, v):
        return reduce_(np.convolve(u, v))

    def pth_power(u):
        acc = None
        base = u
        e = p
        while e:
            if e & 1:
                acc = base if acc is None else mulmod(acc, base)
            base = mulmod(base, base)
            e >>= 1
        return acc

    x = np.zeros(r, dtype=np.int64)
    if r == 1:
        return True
    x[1] = 1
    checkpoints = {r // s for s in _prime_factors(r)}
    h = x.copy()
    for j in range(1, r + 1):
        h = pth_power(h)
        if j in checkpoints:
            diff = _pp_trim([int(c) for c in (h - x) % p])
            g = _pp_gcd(tuple(int(c) for c in f), diff, p)
            if len(g) - 1 >= 1:
                return False
    return bool(np.array_equal(h, x))


# Trial division is kept for small instances (it is the easiest code to trust)
# and cross-checked against the Frobenius criterion in the test suite; large
# internal extension fields switch to the polynomial-time test.
_TRIAL_DIVISION_LIMIT = 256


def _is_irreducible(coeffs, p) -> bool:
    deg = len(coeffs) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if coeffs[0] == 0:  # X divides f
        return False
    if p ** (deg // 2) <= _TRIAL_DIVISION_LIMIT:
        return _trial_division_irreducible(coeffs, p)
    return _frobenius_irreducible(coeffs, p)


@functools.lru_cache(maxsize=None)
def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p),
    comparing coefficients high-to-low."""
    if m == 1:
        return (0, 1)  # X
    for cand in _monic_candidates(p, m):
        if cand[0] == 0:
            continue
        if _is_irreducible(cand, p):
            return cand
    raise NotIrreducible(f"no irreducible of degree {m} over GF({p})")


# ---------------------------------------------------------------------------
# polynomial text formats over GF(p)
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^(\d+)?(\*?X(\^(\d+))?)?$")
_DENSE_RE = re.compile(r"^[\s\d,+-]*,[\s\d,+-]*$")


def poly_text_to_coeffs(text: str) -> tuple[int, ...]:
    """Parse either polynomial text format into an ascending coefficient
    tuple of raw (possibly negative) integers.

    Sparse algebraic form: ``X^8+X^4+X^3+X^2+1``, ``2*X^3+X+2``, ``X^17-1``.
    Dense ascending form: ``1,0,1,1,1,0,0,0,1``.
    The caller maps coefficients into its field (negatives become field
    negations, so ``X^17-1`` reads naturally in any characteristic).
    """
    s = text.strip()
    if not s:
        raise PolyParseError("empty polynomial text")
    if _DENSE_RE.match(s):
        try:
            coeffs = [int(part.strip()) for part in s.split(",")]
        except ValueError as exc:
            raise PolyParseError(f"bad dense coefficient list: {text!r}") from exc
        return tuple(coeffs)
    compact = s.replace(" ", "").replace("x", "X")
    if re.fullmatch(r"-?\d+", compact):
        return (int(compact),)
    # split into signed terms
    pieces = re.split(r"([+-])", compact)
    if pieces[0] == "":
        pieces = pieces[1:]
    else:
        pieces = ["+"] + pieces
    if len(pieces) % 2 != 0:
        raise PolyParseError(f"malformed polynomial: {text!r}")
    acc: dict[int, int] = {}
    for sign, term in zip(pieces[::2], pieces[1::2]):
        if sign not in "+-" or not term:
            raise PolyParseError(f"malformed polynomial: {text!r}")
        mt = _TERM_RE.match(term)
        if not mt or (mt.group(1) is None and mt.group(2) is None):
            raise PolyParseError(f"bad term {term!r} in {text!r}")
        coeff = int(mt.group(1)) if mt.group(1) is not None else 1
        if mt.group(2) is None:
            exp = 0
        elif mt.group(4) is not None:
            exp = int(mt.group(4))
        else:
            exp = 1
        if sign == "-":
            coeff = -coeff
        acc[exp] = acc.get(exp, 0) + coeff
    if not acc:
        raise PolyParseError(f"malformed polynomial: {text!r}")
    out = [0] * (max(acc) + 1)
    for exp, coeff in acc.items():
        out[exp] = coeff
    return tuple(out)


def coeffs_to_poly_text(coeffs) -> str:
    """Render an ascending coefficient sequence in sparse algebraic form,
    highest power first (coefficients are printed as nonnegative codes)."""
    terms = []
    for exp in range(len(coeffs) - 1, -1, -1):
        c = coeffs[exp]
        if c == 0:
            continue
        if exp == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            tail = "X" if exp == 1 else f"X^{exp}"
            terms.append(head + tail)
    return "+".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# the field itself
# ---------------------------------------------------------------------------

class Field:
    """Finite field GF(p^m) over a monic irreducible modulus.

    Immutable after construction; elements are integer codes in [0, p^m)
    whose base-p digits are the polynomial-basis coefficients.
    """

    __slots__ = ("p", "m", "q", "modulus", "_modmask", "_red")

    def __init__(self, p: int, m: int = 1, modulus=None):
        if not isinstance(p, int) or not _is_prime(p):
            raise NotPrime(f"characteristic must be prime, got {p!r}")
        if not isinstance(m, int) or m < 1:
            raise DegreeMismatch(f"extension degree must be a positive integer, got {m!r}")
        if modulus is None:
            coeffs = _default_modulus(p, m)
        else:
            if isinstance(modulus, str):
                raw = poly_text_to_coeffs(modulus)
            else:
                raw = tuple(int(c) for c in modulus)
            coeffs = tuple(c % p for c in raw)
            while coeffs and coeffs[-1] == 0:
                coeffs = coeffs[:-1]
            if len(coeffs) - 1 != m:
                raise DegreeMismatch(
                    f"modulus degree {len(coeffs) - 1} does not match extension degree {m}")
            if coeffs[-1] != 1:
                raise DegreeMismatch("modulus must be monic")
            if m > 1 and not _is_irreducible(coeffs, p):
                raise NotIrreducible(
                    f"{coeffs_to_poly_text(coeffs)} is reducible over GF({p})")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "q", p ** m)
        object.__setattr__(self, "modulus", coeffs)
        # precomputed helpers for the three arithmetic strategies
        if p == 2:
            mask = 0
            for i, c in enumerate(coeffs):
                if c:
                    mask |= 1 << i
            object.__setattr__(self, "_modmask", mask)
            object.__setattr__(self, "_red", None)
        else:
            object.__setattr__(self, "_modmask", None)
            if m > 1:
                f = np.array(coeffs, dtype=np.int64)
                red = np.zeros((max(m - 1, 1), m), dtype=np.int64)
                red[0] = (-f[:m]) % p
                for t in range(1, m - 1):
                    carry = red[t - 1][m - 1]
                    red[t][1:] = red[t - 1][:-1]
                    red[t][0] = 0
                    red[t] = (red[t] + carry * red[0]) % p
                object.__setattr__(self, "_red", red)
            else:
                object.__setattr__(self, "_red", None)

    # -- identity ----------------------------------------------------------

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    def __eq__(self, other):
        return (isinstance(other, Field)
                and self.p == other.p and self.m == other.m
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __reduce__(self):
        # rebuild from defining data (the slots themselves are derived)
        return (Field, (self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m}; {coeffs_to_poly_text(self.modulus)})"

    # -- element plumbing --------------------------------------------------

    def __call__(self, value) -> "FieldElement":
        """Build an element from an integer code, a coefficient sequence,
        or another element of the same field."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatch(f"{value!r} is not an element of {self!r}")
            return value
        if isinstance(value, (list, tuple)):
            code = 0
            if len(value) > self.m:
                raise DegreeMismatch(
                    f"coefficient vector longer than extension degree {self.m}")
            for i, c in enumerate(value):
                code += (int(c) % self.p) * self.p ** i
            return FieldElement(self, code)
        code = int(value)
        if not 0 <= code < self.q:
            raise FieldMismatch(f"code {code} outside [0, {self.q})")
        return FieldElement(self, code)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def coeffs_of(self, code: int) -> tuple[int, ...]:
        """Base-p digit vector (length m, ascending) of an element code."""
        out = []
        for _ in range(self.m):
            code, r = divmod(code, self.p)
            out.append(r)
        return tuple(out)

    def _unpack(self, code: int) -> np.ndarray:
        out = np.zeros(self.m, dtype=np.int64)
        i = 0
        while code:
            code, r = divmod(code, self.p)
            out[i] = r
            i += 1
        return out

    def _pack(self, vec) -> int:
        code = 0
        for i in range(len(vec) - 1, -1, -1):
            code = code * self.p + int(vec[i])
        return code

    # -- code-level arithmetic (the fast path) -----------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        return self._pack((self._unpack(a) + self._unpack(b)) % self.p)

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a - b) % self.p
        return self._pack((self._unpack(a) - self._unpack(b)) % self.p)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        return self._pack((-self._unpack(a)) % self.p)

    def smul(self, c: int, a: int) -> int:
        """Scalar multiple by a base-field (prime-field) constant c."""
        if self.p == 2:
            return a if c & 1 else 0
        if self.m == 1:
            return (c * a) % self.p
        return self._pack((c * self._unpack(a)) % self.p)

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if self.p == 2:
            # carry-less multiply, then reduce by the modulus bitmask
            r = 0
            x = a
            while b:
                if b & 1:
                    r ^= x
                x <<= 1
                b >>= 1
            mask = self._modmask
            top = mask.bit_length() - 1
            while r.bit_length() - 1 >= top:
                r ^= mask << (r.bit_length() - 1 - top)
            return r
        va, vb = self._unpack(a), self._unpack(b)
        conv = np.convolve(va, vb)
        while len(conv) > self.m:
            high = conv[self.m:]
            conv = (conv[: self.m] + high @ self._red[: len(high)]) % self.p
        vec = np.zeros(self.m, dtype=np.int64)
        vec[: len(conv)] = conv % self.p
        return self._pack(vec)

    def pow_(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"zero has no inverse in {self!r}")
        return self.pow_(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))


class FieldElement:
    """A single element of a :class:`Field`, supporting the usual operators.

    Immutable; equality and hashing follow (field, code).
    """

    __slots__ = ("field", "code")

    def __init__(self, field: Field, code: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "code", code)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.coeffs_of(self.code)

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch(
                    f"operands from different fields: {self.field!r} vs {other.field!r}")
            return other
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.field.add(self.code, o.code))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.field.sub(self.code, o.code))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.field.mul(self.code, o.code))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FieldElement(self.field, self.field.div(self.code, o.code))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow_(self.code, int(e)))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.code))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.code))

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and other.field == self.field and other.code == self.code)

    def __hash__(self):
        return hash((self.field, self.code))

    def __repr__(self):
        return f"{self.field!r}[{self.code}]"


def field_new(p: int, m: int = 1, modulus=None) -> Field:
    """Construct GF(p^m); with no modulus given, the lexicographically
    smallest monic irreducible of degree m is chosen (deterministic)."""
    return Field(p, m, modulus)


def nth_root_of_unity(field: Field, n: int) -> FieldElement:
    """A deterministic element of multiplicative order exactly n.

    Candidate generators are tried in ascending code order; each candidate g
    yields beta = g^((q-1)/n), which is accepted as soon as its order is
    exactly n (beta^n = 1 holds by construction, so only the proper divisors
    of n need checking).  The first candidate that is a primitive element
    always succeeds, so the loop terminates early and deterministically.
    """
    if not isinstance(n, int) or n < 1:
        raise NoSuchRoot(f"order must be a positive integer, got {n!r}")
    if (field.q - 1) % n != 0:
        raise NoSuchRoot(f"{n} does not divide q - 1 = {field.q - 1}")
    cofactor = (field.q - 1) // n
    primes = _prime_factors(n)
    for code in range(1, field.q):
        beta = field.pow_(code, cofactor)
        if beta == 0:
            continue
        if all(field.pow_(beta, n // s) != 1 for s in primes):
            return FieldElement(field, beta)
    raise NoSuchRoot(f"no element of order {n} found in {field!r}")
