"""Finite fields GF(p^m) with exact polynomial-basis arithmetic.

A :class:`Field` owns the characteristic ``p``, extension degree ``m`` and a
monic irreducible modulus over GF(p).  Elements are represented canonically as
integer *codes*: the base-``p`` digits of the code are the polynomial-basis
coefficients, so for p = 2 the code is the familiar bitmask.  The code is the
only representation of an element: :meth:`Field.add`, :meth:`Field.mul` and
the other operations take and return codes.

Extension fields with q <= 2^12 run on exp/log tables (Lidl and
Niederreiter, *Finite Fields*, ch. 9; the ``galois`` package does
lookup-table arithmetic for small fields the same way): multiplication,
inversion and powers are lookups.  Prime fields keep modular integers, with
the builtin ``pow`` for inverses and powers, and characteristic 2 keeps XOR
for add.  Every other extension-field operation, such as the products
behind minimal polynomials and every odd-characteristic sum, runs on
polyring's kernel for GF(p) (`_ring`): GF(p^m) is GF(p)[X]/(f), so a sum is
the kernel's sum and a product the kernel's product and remainder by the
modulus, on a code's base-p digits.  The table builds and Ben-Or's
irreducibility test run on it too: X^(p^j) is one p-th power of the last,
and the modulus search rejects a reducible candidate at the degree of its
smallest factor.

Each piece of number theory is written once: `_prime_factors` is the only
trial division (primality is ``_prime_factors(p) == (p,)``), `_order` the
only element-order computation (primitive elements, roots of unity, and the
order of X when GF(q) is embedded), `_power` the only square-and-multiply
(field codes, X^m modulo a divisor in ``polyring._divides_xm1``, and
``Poly.__pow__``), and `_frobenius_irreducible` the only irreducibility test.

The module also carries the two text formats for polynomials over GF(p)
(sparse algebraic like ``X^8+X^4+X^3+X^2+1`` and dense ascending coefficient
lists like ``1,0,1,1,1,0,0,0,1``), which the serialization layer reuses for
polynomials over arbitrary fields.  Sparse text is split at its signs, and
each term text ("X^19", "-2*X", "5") is looked up in a per-process memo of
its exponent and signed coefficient, bounded in entries and in key length;
only a term missing from it is matched with the signed-term pattern.
"""

from __future__ import annotations

import functools
import itertools
import math
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

def _integer(name: str, value, error: type, kind: str = "an integer") -> int:
    """value as an int; error unless it is an integer (a float, a string
    or a bool is refused, never truncated or read as 0 or 1)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} = {value!r} is not {kind}")


def _positive(name: str, value, error: type) -> int:
    """value as an int; error unless it is an integer >= 1."""
    v = _integer(name, value, error, "a positive integer")
    if v < 1:
        raise error(f"{name} = {value!r} is not a positive integer")
    return v


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


def _order(pow_, a, n: int, one=1) -> int:
    """The multiplicative order of a, given a^n = one: n less every prime
    factor whose removal keeps the power at one."""
    for s in _prime_factors(n):
        while n % s == 0 and pow_(a, n // s) == one:
            n //= s
    return n


def _monic_candidates(p: int, deg: int, start: int = 0):
    """The monic polynomials of the given degree over GF(p), one at a time,
    in the order of their coefficients read high-to-low in base p, from the
    one whose lower coefficients are the base-p digits of start."""
    for code in range(start, p ** deg):
        digits = []
        for _ in range(deg):
            code, d = divmod(code, p)
            digits.append(d)
        yield tuple(digits) + (1,)


def _power(mul, a, e: int, one=1):
    """a^e (e >= 0) by square-and-multiply with the given multiplication
    and identity: field codes by default, polynomials for Poly.__pow__."""
    result = one
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


def _ring(p: int, modulus):
    """GF(p)[X]/(f), f the monic modulus, on polyring's kernel k for GF(p):
    (k, prime, mul, native, code), with mul k's product and remainder by f.
    native and code read a code's base-p digits as k's native form and
    back, without a Poly: a GF(2) code is k's bitmask, GF(3) digits reach
    k's mask pair as bytes and each mask's binary digits read in base 3
    give the code back, and for p >= 5 the digits are k's code list."""
    from .polyring import _kernel  # polyring imports this module

    prime = _prime_field(p)
    k = _kernel(prime)
    kmul, kdivmod, f = k.mul, k.divmod, k.native(prime, modulus)

    def mul(a, b):
        return kdivmod(prime, kmul(prime, a, b), f)[1]

    def native(code):
        digits = []
        while code:
            code, d = divmod(code, p)
            digits.append(d)
        return k.native(prime, digits)

    def code(x):
        if p == 3:
            return x and int(f"{x[0]:b}", 3) + 2 * int(f"{x[1]:b}", 3)
        out = 0
        for d in reversed(x):
            out = out * p + d
        return out

    if p == 2:  # int is the identity on k's bitmasks
        native = code = int
    return k, prime, mul, native, code


def _frobenius_irreducible(coeffs, p) -> bool:
    """Ben-Or's distinct-degree test: f of degree r is irreducible over GF(p)
    iff gcd(X^(p^j) - X, f) = 1 for j = 1, ..., r // 2, so a reducible f is
    rejected at the degree of its smallest factor; on the native form of
    :func:`_ring`.  The tests check it against trial division and Rabin's test."""
    r = len(coeffs) - 1
    k, prime, mul, native, _ = _ring(p, coeffs)
    f, one, x = k.native(prime, coeffs), native(1), native(p)  # the code p is X
    h = x
    for _ in range(r // 2):
        h = _power(mul, h, p, one)
        if k.poly(prime, k.gcd(prime, f, k.sub(prime, h, x), r + 1)).degree:
            return False
    return True


@functools.lru_cache(maxsize=64)  # bounded: p may come from untrusted input
def _prime_field(p: int) -> "Field":
    return Field(p)


@functools.lru_cache(maxsize=64)  # bounded: p and m may come from untrusted input
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
        if cand[0] and _frobenius_irreducible(cand, p):
            return cand
    raise NotIrreducible(f"no irreducible of degree {m} over GF({p})")


# ---------------------------------------------------------------------------
# polynomial text formats over GF(p)
# ---------------------------------------------------------------------------

# Bounds on untrusted input, checked before allocating: the largest exponent
# in polynomial text, and a characteristic that keeps trial division short.
_MAX_EXPONENT = 1 << 20
_MAX_CHARACTERISTIC = 1 << 31

# One signed term of the sparse form: sign, coefficient digits, "X" with an
# optional "*" before it, and exponent digits.  The text is matched with
# every ASCII whitespace character deleted and "x" read as "X".
_TERM_RE = re.compile(r"([+-])(\d*)(?:(\*?X)(?:\^(\d+))?)?")
_OTHER_WHITESPACE = str.maketrans("", "", "\t\n\r\v\f")
_DENSE_RE = re.compile(r"^[\s\d,+-]*,[\s\d,+-]*$")
_MAX_EXPONENT_DIGITS = len(str(_MAX_EXPONENT))

# Accepted term texts and their (exponent, signed coefficient): at most
# _TERM_MEMO of them, emptied when full, each at most _TERM_MEMO_KEY
# characters, so the memo's memory is bounded whatever a document holds.
_TERM_MEMO = 1024
_TERM_MEMO_KEY = 16
_terms: dict[str, tuple[int, int]] = {}


def _parse_int(digits: str) -> int:
    """int() of untrusted decimal text; Python's digit limit is a parse error."""
    try:
        return int(digits)
    except ValueError:
        raise PolyParseError(
            f"integer of {len(digits)} characters is too long to read") from None


def _read_terms(found: list, terms: list, compact: str, text: str) -> None:
    """Fill each None in found with the (exponent, signed coefficient) of
    the term text of the same index, read with the term pattern, and keep
    each short one in the memo.  PolyParseError names the first place in
    compact where no signed term starts, as one scan of it would."""
    match, memo = _TERM_RE.match, _terms
    for i, term in enumerate(terms):
        if found[i] is not None:
            continue
        signed = term if term[:1] == "-" else "+" + term
        mt = match(signed)  # a signed text always matches, if only its sign
        sign, coeff, x, digits = mt.groups()
        if not (coeff or x):
            _no_term(terms, i, 0, compact, text)
        coeff = _parse_int(coeff) if coeff else 1
        if digits is None:
            exp = 1 if x else 0
        else:
            digits = digits.lstrip("0")
            if (len(digits) > _MAX_EXPONENT_DIGITS
                    or (exp := int(digits or 0)) > _MAX_EXPONENT):
                raise PolyParseError(
                    f"exponent in {mt[0]!r} exceeds the limit {_MAX_EXPONENT}")
        if mt.end() < len(signed):
            _no_term(terms, i, mt.end(), compact, text)
        found[i] = value = exp, -coeff if sign == "-" else coeff
        if len(term) <= _TERM_MEMO_KEY:
            if len(memo) >= _TERM_MEMO:
                memo.clear()
            memo[term] = value


def _no_term(terms: list, i: int, read: int, compact: str, text: str):
    """PolyParseError after the first `read` characters of terms[i]; each
    term before it fills its text in compact, and a positive one a "+"."""
    pos = sum(len(t) + (t[:1] != "-") for t in terms[:i]) + read
    raise PolyParseError(f"no term at {compact[pos:pos + 12]!r} in {text!r}")


def poly_text_to_coeffs(text: str) -> tuple[int, ...]:
    """Parse either polynomial text format into an ascending coefficient
    tuple of raw (possibly negative) integers.

    Sparse algebraic form: ``X^8+X^4+X^3+X^2+1``, ``2*X^3+X+2``, ``X^17-1``.
    Every ASCII whitespace character is ignored, ``x`` reads as ``X``, the
    first sign may be left out, and the terms of one exponent are summed;
    PolyParseError names the first place where no signed term starts.
    Dense ascending form: ``1,0,1,1,1,0,0,0,1``.  Either reads up to X^_MAX_EXPONENT.
    The caller maps coefficients into its field (negatives become field
    negations, so ``X^17-1`` reads naturally in any characteristic).
    """
    s = text.strip()
    if not s:
        raise PolyParseError("empty polynomial text")
    if "," in s and _DENSE_RE.match(s):
        if s.count(",") > _MAX_EXPONENT:
            raise PolyParseError(f"dense list longer than {_MAX_EXPONENT + 1} codes")
        try:
            coeffs = [int(part.strip()) for part in s.split(",")]
        except ValueError as exc:
            raise PolyParseError(f"bad dense coefficient list: {text!r}") from exc
        return tuple(coeffs)
    compact = s.replace(" ", "").replace("x", "X")
    if not compact.isprintable():  # the rest of ASCII whitespace is rare
        compact = compact.translate(_OTHER_WHITESPACE)
    if compact[0] not in "+-":
        compact = "+" + compact
    terms = compact.replace("-", "+-").split("+")
    del terms[0]  # before the leading sign
    found = list(map(_terms.get, terms))
    if None in found:
        _read_terms(found, terms, compact, text)
    acc = dict(found)
    if len(acc) < len(found):  # an exponent repeats: sum its terms
        acc = {}
        for exp, coeff in found:
            acc[exp] = acc.get(exp, 0) + coeff
    out = [0] * (max(acc) + 1)
    for exp, coeff in acc.items():
        out[exp] = coeff
    return tuple(out)


@functools.cache
def _x_texts() -> tuple:  # "X^e" for e < 1024, made on the first render
    return ("", "X") + tuple(f"X^{e}" for e in range(2, 1024))


def coeffs_to_poly_text(coeffs) -> str:
    """Render an ascending coefficient sequence in sparse algebraic form,
    highest power first (coefficients are printed as nonnegative codes),
    from its nonzero coefficients only."""
    exps, texts = list(itertools.compress(range(len(coeffs)), coeffs))[::-1], _x_texts()
    if exps and exps[0] >= len(texts):
        texts = {e: f"X^{e}" if e > 1 else texts[e] for e in exps}
    terms = [texts[e] if coeffs[e] == 1 else f"{coeffs[e]}*{texts[e]}" for e in exps]
    if exps and not exps[-1]:  # the constant term is its code alone
        terms[-1] = str(coeffs[0])
    return "+".join(terms) or "0"


# ---------------------------------------------------------------------------
# the field itself: tables up to _TABLE_LIMIT, polyring's GF(p) kernel beyond
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
    """(exp, log) for GF(p^m), m > 1, n = q - 1, g the first primitive
    element in code order: exp[i] = g^(i mod n) for i < 2n, then 2n + 1
    zeros, and log[0] = 2n, so an index built from the logarithm of zero
    reads a zero."""
    q = p ** m
    n = q - 1
    _, _, mul, native, code = _ring(p, modulus)
    one = native(1)
    pow_ = functools.partial(_power, mul, one=one)
    # codes below p are constants, whose orders divide p - 1 < n
    g = next(g for g in map(native, range(p, q)) if _order(pow_, g, n, one) == n)
    x, cycle = one, [1]
    for _ in range(n - 1):  # the powers of g in native form, kept as codes
        x = mul(x, g)
        cycle.append(code(x))
    log = [2 * n] * q
    for i, a in enumerate(cycle):
        log[a] = i
    return tuple(cycle) * 2 + (0,) * (2 * n + 1), tuple(log)


class Field:
    """Finite field GF(p^m) over a monic irreducible modulus.

    Immutable after construction; elements are integer codes in [0, p^m)
    whose base-p digits are the polynomial-basis coefficients.  `add`,
    `sub`, `neg`, `mul`, `inv` and `pow_` trust their codes, with no check
    per call on this hot path: a code outside [0, q) may raise IndexError
    or give a wrong code.  `Poly`, `Poly.__call__` and `LinearCodeView`
    check the codes a caller gives them (FieldMismatch).
    """

    __slots__ = ("p", "m", "q", "modulus", "_exp", "_log", "_ring")

    def __init__(self, p: int, m: int = 1, modulus=None):
        p = _integer("characteristic p", p, NotPrime)
        if not 0 <= p < _MAX_CHARACTERISTIC or _prime_factors(p) != (p,):
            raise NotPrime(
                f"characteristic must be a prime below {_MAX_CHARACTERISTIC}, got {p!r}")
        m = _positive("extension degree m", m, DegreeMismatch)
        if modulus is None:
            coeffs = _default_modulus(p, m)
        else:
            # a sequence of integers; text is poly_from_text's to parse
            try:
                codes = iter(modulus)
            except TypeError:
                raise DegreeMismatch(f"modulus = {modulus!r} is not a sequence of codes") from None
            coeffs = tuple(_integer("modulus code", c, DegreeMismatch) % p for c in codes)
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
        # prime fields need neither tables nor a kernel ring
        exp = log = ring = None
        if m > 1:
            ring = _ring(p, coeffs)
            if q <= _TABLE_LIMIT:
                exp, log = _tables(p, m, coeffs)
        object.__setattr__(self, "_exp", exp)
        object.__setattr__(self, "_log", log)
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
    # Prime fields and characteristic 2 take the first branches.  Sums in
    # any other extension take the kernel ring; products, powers and
    # inverses read the tables, and a None _log marks a field beyond
    # _TABLE_LIMIT (the kernel ring again).

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        k, prime, _, native, code = self._ring
        return code(k.add(prime, native(a), native(b)))

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a - b) % self.p
        k, prime, _, native, code = self._ring
        return code(k.sub(prime, native(a), native(b)))

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return (-a) % self.p
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        log = self._log
        if log is None:
            _, _, mul, native, code = self._ring
            return code(mul(native(a), native(b)))
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
        _, _, mul, native, code = self._ring
        return code(_power(mul, native(a), e % (self.q - 1), native(1)))

    def inv(self, a: int) -> int:
        return self.pow_(a, -1)


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
    n = _positive("order n", n, NoSuchRoot)
    if (field.q - 1) % n != 0:
        raise NoSuchRoot(f"{n} does not divide q - 1 = {field.q - 1}")
    cofactor = (field.q - 1) // n
    # codes below p form GF(p), whose g^cofactor have orders dividing
    # (p - 1)/gcd(p - 1, cofactor): unless n divides that, skip them all
    p1 = field.p - 1
    start = 1 if p1 // math.gcd(p1, cofactor) % n == 0 else field.p
    for code in range(start, field.q):
        beta = field.pow_(code, cofactor)
        if _order(field.pow_, beta, n) == n:
            return beta
    raise NoSuchRoot(f"no element of order {n} found in {field!r}")
