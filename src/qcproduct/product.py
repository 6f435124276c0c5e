"""Product of a quasi-cyclic row code with a cyclic column code.

The key objects are the Bezout parameters (a, b) with
a*ell_A*m_A + b*m_B = 1, the index maps f(i, j) and g(i, j) they induce, and
the two construction routes for the product code's generating basis:

* :func:`unreduced_product_basis` -- the direct substitution matrix whose
  rows are g^B(X^(a*ell_A*m_A)) * g^A_ij(X^(b*m_B)) * X^(-j*a*m_A);
* :func:`one_level_product_rgb` -- the closed-form canonical row for 1-level
  row codes, with shared divisor gcd(X^(m_A*m_B)-1,
  g^A(X^(b*m_B)) * g^B(X^(a*ell_A*m_A))).

Both reduce to the same canonical basis, as the tests check.  They and
:class:`OneLevelCode` run in the field's kernel: one conversion per input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cyclic import CyclicCode
from .errors import (
    DivisionByZero,
    FieldMismatch,
    IndexOutOfRange,
    NotADivisor,
    NotCoprime,
    NotOneLevel,
    ParamMismatch,
    ShapeMismatch,
)
from .field import Field, _integer, _positive
from .polyring import (Poly, _divides_xm1, _kernel, _monic, _native, modular_substitute,
                       x_pow_minus_one)
from .qcmodule import GeneratingMatrix, RgbPotBasis, _trusted_matrix, level

__all__ = [
    "ProductParams",
    "OneLevelCode",
    "bezout_pair",
    "map_f",
    "map_g",
    "unreduced_product_basis",
    "one_level_product_rgb",
]


@dataclass(frozen=True, slots=True)
class ProductParams:
    """Shape and Bezout data for a product construction: row-code shape
    (ell_a, m_a), column-code length m_b, and integers a, b satisfying
    a*ell_a*m_a + b*m_b = 1.  Each is read as an integer (ParamMismatch
    for a float, a string or a bool, or for a shape below 1)."""

    ell_a: int
    m_a: int
    m_b: int
    a: int
    b: int

    def __post_init__(self):
        for name in ("ell_a", "m_a", "m_b", "a", "b"):
            read = _integer if name in ("a", "b") else _positive
            object.__setattr__(self, name, read(name, getattr(self, name), ParamMismatch))
        ell_a, m_a, m_b, a, b = self.ell_a, self.m_a, self.m_b, self.a, self.b
        if math.gcd(ell_a * m_a, m_b) != 1:
            raise NotCoprime(f"gcd({ell_a * m_a}, {m_b}) != 1")
        if a * ell_a * m_a + b * m_b != 1:
            raise ParamMismatch(
                f"{a}*{ell_a * m_a} + {b}*{m_b} != 1: not a Bezout pair")

    @property
    def n(self) -> int:
        """Total product length ell_a * m_a * m_b."""
        return self.ell_a * self.m_a * self.m_b

    @property
    def big_m(self) -> int:
        """Co-index m_a * m_b of the product code."""
        return self.m_a * self.m_b


def bezout_pair(ell_a: int, m_a: int, m_b: int) -> ProductParams:
    """Canonical Bezout parameters: a is the least positive inverse of
    ell_a*m_a modulo m_b (a = 1 when m_b = 1), b follows.  ParamMismatch
    unless each shape is an integer >= 1."""
    ell_a = _positive("ell_a", ell_a, ParamMismatch)
    m_a = _positive("m_a", m_a, ParamMismatch)
    m_b = _positive("m_b", m_b, ParamMismatch)
    base = ell_a * m_a
    if math.gcd(base, m_b) != 1:
        raise NotCoprime(f"gcd({base}, {m_b}) != 1")
    a = 1 if m_b == 1 else pow(base % m_b, -1, m_b)
    b = (1 - a * base) // m_b
    return ProductParams(ell_a, m_a, m_b, a, b)


def _indices(i, j, rows: int, columns: int) -> tuple[int, int]:
    """(i, j) as ints; IndexOutOfRange unless they are integers in
    [0, rows) and [0, columns)."""
    i = _integer("row index", i, IndexOutOfRange)
    j = _integer("column index", j, IndexOutOfRange)
    if not 0 <= i < rows:
        raise IndexOutOfRange(f"row index {i} outside [0, {rows})")
    if not 0 <= j < columns:
        raise IndexOutOfRange(f"column index {j} outside [0, {columns})")
    return i, j


def map_f(i: int, j: int, p: ProductParams) -> int:
    """Serialization index of matrix entry (i, j): the bijection
    [m_b) x [ell_a*m_a) -> [ell_a*m_a*m_b) under which the product code is
    quasi-cyclic of index ell_a.  IndexOutOfRange unless i and j are
    integers in range."""
    i, j = _indices(i, j, p.m_b, p.ell_a * p.m_a)
    return (i * p.a * p.ell_a * p.m_a * p.ell_a + j * p.b * p.m_b) % p.n


def map_g(i: int, j: int, p: ProductParams) -> int:
    """Component-level serialization index on [m_b) x [m_a) -> [m_a*m_b);
    IndexOutOfRange unless i and j are integers in range."""
    i, j = _indices(i, j, p.m_b, p.m_a)
    return (i * p.a * p.ell_a * p.m_a + j * p.b * p.m_b) % p.big_m


@dataclass(frozen=True, slots=True, init=False, repr=False)
class OneLevelCode:
    """A 1-level quasi-cyclic code: canonical row
    (g, g*f_1, ..., g*f_(ell-1)) with g | X^m - 1 and every f_j reduced
    modulo (X^m - 1)/g so the row entries stay below degree m."""

    field: Field
    ell: int
    m: int
    g: Poly
    fs: tuple

    def __init__(self, g: Poly, fs, ell: int, m: int):
        fs = tuple(fs)
        if not all(isinstance(x, Poly) for x in (g,) + fs):
            raise ShapeMismatch("the shared divisor and multipliers must be polynomials")
        field = g.field
        ell, m = _positive("ell", ell, ShapeMismatch), _positive("m", m, ShapeMismatch)
        if len(fs) != ell - 1:
            raise ShapeMismatch(
                f"need {ell - 1} multiplier polynomials for ell={ell}, got {len(fs)}")
        if g.is_zero:
            raise NotADivisor("the shared divisor g must be nonzero")
        k, g, cofactor = _monic(g, m if fs else 0)  # ell = 1 needs no cofactor
        if not (fs or _divides_xm1(g, m)):
            raise NotADivisor(f"{g!r} does not divide X^{m}-1")
        canon = []
        for fj in fs:
            if fj.field != field:
                raise FieldMismatch("multiplier over a different field")
            folded = k.fold(field, _native(k, fj), m)
            canon.append(k.poly(field, k.divmod(field, folded, cofactor)[1]))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "fs", tuple(canon))

    @property
    def k(self) -> int:
        return self.m - self.g.degree

    def row(self) -> tuple[Poly, ...]:
        """The generating row (g, g*f_1, ..., g*f_(ell-1))."""
        f, k = self.field, _kernel(self.field)
        g = _native(k, self.g)
        return (self.g,) + tuple(k.poly(f, k.mul(f, g, _native(k, fj)))
                                 for fj in self.fs)

    def basis(self) -> RgbPotBasis:
        """The full canonical basis: the generating row on top, rows
        (X^m-1)e_i below."""
        f, ell = self.field, self.ell
        xm1, zero = x_pow_minus_one(f, self.m), Poly.zero(f)
        rows = (self.row(),) + tuple((zero,) * i + (xm1,) + (zero,) * (ell - 1 - i)
                                     for i in range(1, ell))
        return _trusted_matrix(RgbPotBasis, f, ell, self.m, rows)

    @classmethod
    def from_basis(cls, b: RgbPotBasis) -> "OneLevelCode":
        """Extract (g, f_j) from a canonical basis of level exactly 1."""
        if level(b) != 1:
            raise NotOneLevel(f"basis has level {level(b)}, expected 1")
        f, k, g = b.field, _kernel(b.field), b.matrix[0][0]
        if g.is_zero and b.ell > 1:
            raise DivisionByZero("polynomial division by zero")
        native, fs = _native(k, g), []
        for j in range(1, b.ell):
            # g | X^m - 1 (checked below): folding keeps r and q mod (X^m - 1)/g
            q, r = k.divmod(f, k.fold(f, _native(k, b.matrix[0][j]), b.m), native)
            if r:
                raise NotADivisor(f"entry (0, {j}) is not a multiple of the shared divisor")
            fs.append(k.poly(f, q))
        return cls(g, fs, b.ell, b.m)

    def __repr__(self):
        return f"OneLevelCode(ell={self.ell}, m={self.m}, k={self.k})"


def _check_product_inputs(ell_a: int, m_a: int, field_a, B: CyclicCode,
                          p: ProductParams):
    if (ell_a, m_a) != (p.ell_a, p.m_a):
        raise ParamMismatch(
            f"row code shape ({ell_a}, {m_a}) does not match params "
            f"({p.ell_a}, {p.m_a})")
    if B.m != p.m_b:
        raise ParamMismatch(
            f"column code length {B.m} does not match params m_b={p.m_b}")
    if B.field != field_a:
        raise FieldMismatch("row and column codes over different fields")


def unreduced_product_basis(G_A: RgbPotBasis, B: CyclicCode,
                            p: ProductParams) -> GeneratingMatrix:
    """The direct product generating matrix over co-index m_a*m_b: entry
    (i, j) is g^B(X^(a*ell_a*m_a)) * g^A_ij(X^(b*m_b)) * X^(-j*a*m_a), all
    reduced mod X^(m_a*m_b) - 1.  The (X^(m_a*m_b)-1)e_j rows stay implicit
    in the returned GeneratingMatrix."""
    _check_product_inputs(G_A.ell, G_A.m, G_A.field, B, p)
    f, k, N = G_A.field, _kernel(G_A.field), p.big_m
    gB_sub = _native(k, modular_substitute(B.g, p.a * p.ell_a * p.m_a, N))

    def entry(j: int, e: Poly):
        sub = modular_substitute(e, p.b * p.m_b, N, -j * p.a * p.m_a)
        return k.poly(f, k.fold(f, k.mul(f, gB_sub, _native(k, sub)), N))
    rows = tuple(tuple([e if e.is_zero else entry(j, e) for j, e in enumerate(row)])
                 for row in G_A.matrix)
    return _trusted_matrix(GeneratingMatrix, f, p.ell_a, N, rows)


def one_level_product_rgb(A: OneLevelCode, B: CyclicCode,
                          p: ProductParams) -> OneLevelCode:
    """Closed-form canonical row of the product of a 1-level row code with a
    cyclic column code: shared divisor
    g = gcd(X^(m_a*m_b)-1, g^A(X^(b*m_b)) * g^B(X^(a*ell_a*m_a))) and
    multipliers f_j^A(X^(b*m_b)) * X^(-j*a*m_a), reduced canonically."""
    _check_product_inputs(A.ell, A.m, A.field, B, p)
    f, k, N = A.field, _kernel(A.field), p.big_m
    gA_sub = _native(k, modular_substitute(A.g, p.b * p.m_b, N))
    gB_sub = _native(k, modular_substitute(B.g, p.a * p.ell_a * p.m_a, N))
    g = k.gcd(f, k.xm1(f, N), k.fold(f, k.mul(f, gA_sub, gB_sub), N), N + 1)
    multipliers = [modular_substitute(A.fs[j - 1], p.b * p.m_b, N, -j * p.a * p.m_a)
                   for j in range(1, p.ell_a)]
    return OneLevelCode(k.poly(f, g), multipliers, p.ell_a, N)
