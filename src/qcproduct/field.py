"""Finite fields GF(p^m) with exact polynomial-basis arithmetic.

A :class:`Field` owns the characteristic ``p``, extension degree ``m`` and a
monic irreducible modulus over GF(p).  Elements are represented canonically as
integer *codes*: the base-``p`` digits of the code are the polynomial-basis
coefficients, so for p = 2 the code is the familiar bitmask.  The code is the
only representation of an element: :meth:`Field.add`, :meth:`Field.mul` and
the other operations take and return codes.

Extension fields with q <= 2^12 run on exp/log tables and, for odd
characteristic, a Zech-logarithm table (Lidl and Niederreiter, *Finite
Fields*, ch. 9; the ``galois`` package does lookup-table arithmetic for small
fields the same way): multiplication, inversion and powers are lookups, and
so is odd-characteristic addition.  Prime fields keep modular integers, with
the builtin ``pow`` for inverses and powers, and characteristic 2 keeps XOR
for add.  Larger extensions, such as those behind minimal polynomials, use
:class:`_QuotientRing`, which also fills the tables and runs the Frobenius
irreducibility test.

The module also carries the two text formats for polynomials over GF(p)
(sparse algebraic like ``X^8+X^4+X^3+X^2+1`` and dense ascending coefficient
lists like ``1,0,1,1,1,0,0,0,1``), which the serialization layer reuses for
polynomials over arbitrary fields.
"""

from __future__ import annotations

import functools
import operator
import re

from .errors import (
    DegreeMismatch,
    DivisionByZero,
    NoSuchRoot,
    NotIrreducible,
    NotPrime,
    PolyParseError,
)

__all__ = [
    "Field",
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


def _monic_candidates(p: int, deg: int, start: int = 0):
    """The monic polynomials of the given degree over GF(p), one at a time,
    in the order of their coefficients read high-to-low in base p, from the
    one whose lower coefficients are the base-p digits of start."""
    for code in range(start, p ** deg):
        yield tuple(_digits(code, p, deg)) + (1,)


def _digits(code: int, p: int, m: int) -> list[int]:
    """Base-p digits (length m, ascending) of an element code."""
    out = []
    for _ in range(m):
        code, r = divmod(code, p)
        out.append(r)
    return out


def _power(mul, a: int, e: int) -> int:
    """a^e (e >= 0) by square-and-multiply with the given multiplication."""
    result = 1
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


class _QuotientRing:
    """Arithmetic on element codes of GF(p)[X]/(f), f monic of degree m,
    without tables.

    For p = 2 a code is a bitmask: mul is a carry-less product reduced by
    the modulus bitmask.  For odd p, mul is a Kronecker substitution: the
    base-p digits are spread into slots of ``bits`` bits, one integer product
    convolves them, the slots of degree >= m are folded back with the packed
    rows X^(m+t) mod f, and each slot is reduced mod p on the way back to a
    code.  No slot exceeds 2m(p-1)^2, which ``bits`` holds, so none carries.
    """

    __slots__ = ("p", "m", "modmask", "bits", "mask", "rows")

    def __init__(self, p: int, f):
        m = len(f) - 1
        self.p, self.m = p, m
        if p == 2:
            self.modmask = sum(c << i for i, c in enumerate(f))
            return
        bits = (2 * m * (p - 1) ** 2 + 1).bit_length()
        low = [(-c) % p for c in f[:m]]  # X^m mod f
        rows, r = [], low
        for _ in range(m - 1):
            rows.append(sum(d << (bits * i) for i, d in enumerate(r)))
            r = [(prev + r[-1] * c) % p for prev, c in zip([0] + r[:-1], low)]
        self.bits, self.mask, self.rows = bits, (1 << bits) - 1, rows

    def spread(self, code: int) -> int:
        p, bits = self.p, self.bits
        x = shift = 0
        while code:
            code, d = divmod(code, p)
            x |= d << shift
            shift += bits
        return x

    def collect(self, x: int) -> int:
        """The code of a packed form of degree < m, slots reduced mod p."""
        p, bits, mask = self.p, self.bits, self.mask
        code = 0
        for shift in range(bits * (self.m - 1), -1, -bits):
            code = code * p + ((x >> shift) & mask) % p
        return code

    def lin(self, a: int, b: int, c: int) -> int:
        """a + c*b digit by digit (odd p, 0 <= c < p)."""
        return self.collect(self.spread(a) + c * self.spread(b))

    def mul(self, a: int, b: int) -> int:
        if self.p == 2:
            r = 0
            while b:
                if b & 1:
                    r ^= a
                a <<= 1
                b >>= 1
            mask = self.modmask
            top = mask.bit_length() - 1
            while r.bit_length() - 1 >= top:
                r ^= mask << (r.bit_length() - 1 - top)
            return r
        p, bits, mask = self.p, self.bits, self.mask
        c = self.spread(a) * self.spread(b)
        high = c >> (bits * self.m)
        c &= (1 << (bits * self.m)) - 1
        for row in self.rows:
            if not high:
                break
            c += (high & mask) % p * row
            high >>= bits
        return self.collect(c)


def _frobenius_irreducible(coeffs, p) -> bool:
    """Distinct-degree irreducibility criterion: f of degree r is irreducible
    over GF(p) iff X^(p^r) == X (mod f) and gcd(X^(p^(r/s)) - X, f) = 1 for
    every prime s dividing r.  The test suite checks it against trial
    division."""
    from .polyring import Poly, poly_gcd  # polyring imports this module

    r = len(coeffs) - 1
    if r == 1:
        return True
    prime = _prime_field(p)
    f = Poly(prime, coeffs)
    mul = _QuotientRing(p, coeffs).mul
    h = x = p  # the code of X
    checkpoints = {r // s for s in _prime_factors(r)}
    for j in range(1, r + 1):
        h = _power(mul, h, p)
        if j in checkpoints:
            diff = _digits(h, p, r)
            diff[1] = (diff[1] - 1) % p
            if poly_gcd(f, Poly(prime, diff)).degree > 0:
                return False
    return h == x


@functools.lru_cache(maxsize=64)  # bounded: p may come from untrusted input
def _prime_field(p: int) -> "Field":
    return Field(p)


@functools.lru_cache(maxsize=None)
def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p),
    comparing coefficients high-to-low.

    The first p candidates are the binomials X^m + c.  Some X^m - a is
    irreducible iff every prime factor of m divides p - 1 and, when 4 | m,
    p = 1 (mod 4) (Lidl and Niederreiter, *Finite Fields*, Thm 3.75, taking a
    primitive); otherwise the walk skips them and starts at X^m + X."""
    if m == 1:
        return (0, 1)  # X
    binomials = (all((p - 1) % s == 0 for s in _prime_factors(m))
                 and (m % 4 or p % 4 == 1))
    for cand in _monic_candidates(p, m, 0 if binomials else p):
        if cand[0] == 0:
            continue
        if _frobenius_irreducible(cand, p):
            return cand
    raise NotIrreducible(f"no irreducible of degree {m} over GF({p})")


# ---------------------------------------------------------------------------
# polynomial text formats over GF(p)
# ---------------------------------------------------------------------------

# Bounds on untrusted input, checked before allocating: the largest exponent
# in polynomial text, and a characteristic that keeps trial division short.
_MAX_EXPONENT = 1 << 20
_MAX_CHARACTERISTIC = 1 << 31

_TERM_RE = re.compile(r"^(\d+)?(\*?X(\^(\d+))?)?$")
_DENSE_RE = re.compile(r"^[\s\d,+-]*,[\s\d,+-]*$")


def _parse_int(digits: str) -> int:
    """int() of untrusted decimal text; Python's digit limit is a parse error."""
    try:
        return int(digits)
    except ValueError:
        raise PolyParseError(
            f"integer of {len(digits)} characters is too long to read") from None


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
        coeff = _parse_int(mt.group(1)) if mt.group(1) is not None else 1
        if mt.group(2) is None:
            exp = 0
        elif mt.group(4) is not None:
            digits = mt.group(4).lstrip("0")
            if len(digits) > len(str(_MAX_EXPONENT)) or int(digits or 0) > _MAX_EXPONENT:
                raise PolyParseError(
                    f"exponent in {term!r} exceeds the limit {_MAX_EXPONENT}")
            exp = int(digits or 0)
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
# the field itself: tables up to _TABLE_LIMIT, _QuotientRing beyond
# ---------------------------------------------------------------------------

# Tables cover every field that product and minimal-distance work touches,
# internal extensions included (the largest is GF(2^12), for m = 13 over
# GF(2) and GF(4)); bigger fields are used too few times to pay for one.
_TABLE_LIMIT = 1 << 12


@functools.lru_cache(maxsize=256)  # bounded: moduli come from untrusted documents
def _is_irreducible(coeffs: tuple, p: int) -> bool:
    """The Frobenius verdict on a modulus handed to Field, kept so that a
    modulus is tested once, however many times a field is rebuilt on it."""
    return len(coeffs) > 1 and _frobenius_irreducible(coeffs, p)


@functools.lru_cache(maxsize=64)
def _tables(p: int, m: int, modulus: tuple[int, ...]):
    """(exp, log, zech) for GF(p^m), m > 1, n = q - 1, g the first primitive
    element in code order: exp[i] = g^(i mod n) for i < 2n, then 2n + 1
    zeros, and log[0] = 2n, so an index built from the logarithm of zero
    reads a zero.  For odd p zech[k] = log(1 + g^k), doubled so a
    difference of logarithms indexes it directly; None for p = 2."""
    q = p ** m
    n = q - 1
    mul = _QuotientRing(p, modulus).mul
    primes = _prime_factors(n)
    g = next(g for g in range(1, q) if all(_power(mul, g, n // s) != 1 for s in primes))
    cycle = [1]
    for _ in range(n - 1):
        cycle.append(mul(cycle[-1], g))
    log = [2 * n] * q
    for i, a in enumerate(cycle):
        log[a] = i
    zech = None
    if p > 2:  # adding 1 changes the lowest digit only
        zech = tuple(log[a + 1 - p if a % p == p - 1 else a + 1] for a in cycle) * 2
    return tuple(cycle) * 2 + (0,) * (2 * n + 1), tuple(log), zech


class Field:
    """Finite field GF(p^m) over a monic irreducible modulus.

    Immutable after construction; elements are integer codes in [0, p^m)
    whose base-p digits are the polynomial-basis coefficients.  `add`,
    `sub`, `neg`, `mul`, `inv` and `pow_` trust their codes, with no check
    per call on this hot path: a code outside [0, q) may raise IndexError
    or give a wrong code.  `Poly`, `Poly.__call__`, `LinearCodeView` and
    `CodewordMatrix` check the codes a caller gives them (FieldMismatch).
    """

    __slots__ = ("p", "m", "q", "modulus", "_exp", "_log", "_zech", "_half", "_ring")

    def __init__(self, p: int, m: int = 1, modulus=None):
        if not isinstance(p, int) or not 0 <= p < _MAX_CHARACTERISTIC or not _is_prime(p):
            raise NotPrime(
                f"characteristic must be a prime below {_MAX_CHARACTERISTIC}, got {p!r}")
        if not isinstance(m, int) or m < 1:
            raise DegreeMismatch(f"extension degree must be a positive integer, got {m!r}")
        if modulus is None:
            coeffs = _default_modulus(p, m)
        else:
            # a sequence of integers; text is poly_from_text's to parse
            coeffs = tuple(operator.index(c) % p for c in modulus)
            while coeffs and coeffs[-1] == 0:
                coeffs = coeffs[:-1]
            if len(coeffs) - 1 != m:
                raise DegreeMismatch(
                    f"modulus degree {len(coeffs) - 1} does not match extension degree {m}")
            if coeffs[-1] != 1:
                raise DegreeMismatch("modulus must be monic")
            if m == 1:  # every monic X + c gives GF(p) itself
                coeffs = (0, 1)
            elif not _is_irreducible(coeffs, p):
                raise NotIrreducible(
                    f"{coeffs_to_poly_text(coeffs)} is reducible over GF({p})")
        q = p ** m
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "modulus", coeffs)
        # prime fields need neither tables nor a quotient ring
        exp = log = zech = ring = None
        if 1 < m and q <= _TABLE_LIMIT:
            exp, log, zech = _tables(p, m, coeffs)
        elif m > 1:
            ring = _QuotientRing(p, coeffs)
        object.__setattr__(self, "_exp", exp)
        object.__setattr__(self, "_log", log)
        object.__setattr__(self, "_zech", zech)
        object.__setattr__(self, "_half", (q - 1) // 2)  # log(-1) for odd q
        object.__setattr__(self, "_ring", ring)

    # -- identity ----------------------------------------------------------

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    def __eq__(self, other):
        if self is other:
            return True
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

    # -- code-level arithmetic (the fast path) -----------------------------
    # Prime fields and characteristic 2 take the first branches.  In an
    # extension, a None _log or _zech marks a field beyond _TABLE_LIMIT (the
    # generic path).

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        zech = self._zech
        if zech is None:
            return self._ring.lin(a, b, 1)
        if not a or not b:
            return a or b
        log = self._log
        la = log[a]
        return self._exp[la + zech[log[b] - la]]

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a - b) % self.p
        zech = self._zech
        if zech is None:
            return self._ring.lin(a, b, self.p - 1)
        if not b:
            return a
        log = self._log
        lb = log[b] + self._half  # log(-b)
        if not a:
            return self._exp[lb]
        la = log[a]
        return self._exp[la + zech[lb - la]]

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        if self._zech is None:
            return self._ring.lin(0, a, self.p - 1)
        return self._exp[self._log[a] + self._half]

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        log = self._log
        if log is None:
            return self._ring.mul(a, b)
        return self._exp[log[a] + log[b]]

    def pow_(self, a: int, e: int) -> int:
        if a == 0:
            if e < 0:
                raise DivisionByZero(f"zero has no inverse in {self!r}")
            return 0 if e else 1
        if self.m == 1:
            return pow(a, e, self.p)
        if self._log is not None:
            return self._exp[self._log[a] * e % (self.q - 1)]
        return _power(self._ring.mul, a, e % (self.q - 1))

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"zero has no inverse in {self!r}")
        if self.m == 1:
            return pow(a, -1, self.p)
        if self._log is None:
            return self.pow_(a, -1)
        return self._exp[self.q - 1 - self._log[a]]


def field_new(p: int, m: int = 1, modulus=None) -> Field:
    """Construct GF(p^m); with no modulus given, the lexicographically
    smallest monic irreducible of degree m is chosen (deterministic)."""
    return Field(p, m, modulus)


def nth_root_of_unity(field: Field, n: int) -> int:
    """The code of a deterministic element of multiplicative order exactly n.

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
    # codes below p form GF(p), which has no element of order n unless n | p - 1
    start = 1 if (field.p - 1) % n == 0 else field.p
    for code in range(start, field.q):
        beta = field.pow_(code, cofactor)
        if beta == 0:
            continue
        if all(field.pow_(beta, n // s) != 1 for s in primes):
            return beta
    raise NoSuchRoot(f"no element of order {n} found in {field!r}")
