"""Quasi-cyclic codes as submodules of F_q[X]^ell.

A length-ell*m code closed under cyclic shifts by ell positions corresponds
to an F_q[X]-submodule of F_q[X]^ell that contains K = <(X^m-1)e_j>.  This
module provides:

* :class:`GeneratingMatrix` -- an arbitrary set of generating rows (the
  (X^m-1)e_j rows are always implicitly present);
* :func:`rgb_pot_reduce` -- reduction to the canonical upper-triangular
  basis (a Hermite-style triangularization over the principal ideal domain
  F_q[X], followed by monic/degree normalization), unique per submodule;
* the four structural conditions of that canonical form
  (:func:`is_rgb_pot`), dimension, level and membership reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegreeMismatch,
    DegreeOverflow,
    DivisionByZero,
    FieldMismatch,
    NonPrefixPattern,
    ShapeMismatch,
)
from .field import Field, _positive
from .polyring import Poly, _divides_xm1, _kernel, x_pow_minus_one

__all__ = [
    "PolyVector",
    "GeneratingMatrix",
    "RgbPotBasis",
    "rgb_pot_reduce",
    "is_rgb_pot",
    "dimension",
    "level",
    "reduce_vector",
]


@dataclass(frozen=True, slots=True, init=False, repr=False)
class PolyVector:
    """An ell-tuple of component polynomials, each of degree < m."""

    components: tuple
    m: int

    def __init__(self, components, m: int):
        m = _positive("m", m, ShapeMismatch)
        comps = tuple(components)
        if not comps:
            raise ShapeMismatch("a component vector needs at least one component")
        field = comps[0].field
        for c in comps:
            if not isinstance(c, Poly):
                raise ShapeMismatch("components must be polynomials")
            if c.field != field:
                raise FieldMismatch("components over different fields")
            if c.degree >= m:
                raise DegreeOverflow(
                    f"component degree {c.degree} exceeds the bound m-1 = {m - 1}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "m", m)

    @property
    def ell(self) -> int:
        return len(self.components)

    @property
    def field(self) -> Field:
        return self.components[0].field

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i):
        return self.components[i]

    def __repr__(self):
        return f"PolyVector(m={self.m}, {list(self.components)!r})"


def _check_rows(field: Field, ell: int, rows) -> tuple:
    checked = []
    for row in rows:
        row = tuple(row)
        if len(row) != ell:
            raise ShapeMismatch(f"row has {len(row)} entries, expected {ell}")
        for p in row:
            if not isinstance(p, Poly):
                raise ShapeMismatch("matrix entries must be polynomials")
            if p.field != field:
                raise FieldMismatch("matrix entries over different fields")
        checked.append(row)
    return tuple(checked)


def _trusted_matrix(cls: type, field: Field, ell: int, m: int, rows: tuple):
    """A GeneratingMatrix or RgbPotBasis of rows the library made, tuples of
    ell Polys over the field in a tuple (of ell for a basis), unchecked."""
    out = object.__new__(cls)
    for name, value in zip(cls.__slots__, (field, ell, m, rows)):
        object.__setattr__(out, name, value)
    return out


@dataclass(frozen=True, slots=True, init=False, repr=False)
class GeneratingMatrix:
    """Explicit generating rows of a submodule of F_q[X]^ell containing
    K = <(X^m-1)e_j>; the K rows are always implicitly present, so the empty
    row set generates exactly the zero code's preimage."""

    field: Field
    ell: int
    m: int
    rows: tuple

    def __init__(self, field: Field, ell: int, m: int, rows=()):
        ell, m = _positive("ell", ell, ShapeMismatch), _positive("m", m, ShapeMismatch)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "rows", _check_rows(field, ell, rows))

    def __repr__(self):
        return (f"GeneratingMatrix(ell={self.ell}, m={self.m}, "
                f"{len(self.rows)} explicit rows)")


@dataclass(frozen=True, slots=True, init=False, repr=False)
class RgbPotBasis:
    """An ell x ell matrix of polynomials intended as a canonical basis.

    Construction checks only shape, so invalid bases can be built and
    diagnosed with :func:`is_rgb_pot`; :func:`rgb_pot_reduce` always emits
    valid ones.
    """

    field: Field
    ell: int
    m: int
    matrix: tuple

    def __init__(self, field: Field, ell: int, m: int, matrix):
        ell, m = _positive("ell", ell, ShapeMismatch), _positive("m", m, ShapeMismatch)
        rows = _check_rows(field, ell, matrix)
        if len(rows) != ell:
            raise ShapeMismatch(f"basis must be {ell}x{ell}, got {len(rows)} rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "matrix", rows)

    def diagonal(self) -> tuple[Poly, ...]:
        return tuple(self.matrix[i][i] for i in range(self.ell))

    def __repr__(self):
        return f"RgbPotBasis(ell={self.ell}, m={self.m})"


# ---------------------------------------------------------------------------
# reduction to canonical form
# ---------------------------------------------------------------------------

def rgb_pot_reduce(gen: GeneratingMatrix) -> RgbPotBasis:
    """Canonical upper-triangular basis of the submodule generated by the
    explicit rows together with the (X^m-1)e_j rows.

    Triangularization runs column by column: all rows active at a column
    are folded into a single pivot, each fold a unimodular row transform,
    so the row span never changes.  A fold is the kernel's `euclid` on the
    pivot row and the row at the column: Euclid's algorithm on the two
    entries there, every quotient term applied to the whole row, ends with
    the monic gcd leading the new pivot row and zero leading the other
    row, which returns to the pending rows.  When the pivot divides the
    entry that is one step.  Every diagonal is a monic divisor of X^m - 1:
    the (X^m-1)e_j row always reaches its own column untouched, so the
    pivot there is that row or a gcd with it.  While column col is
    processed every (X^m-1)e_k row with k > col is still pending, so
    reducing the entries right of the column modulo X^m - 1 after each fold
    changes neither the submodule nor the result.  The last column has no
    entries right of it: nothing is reduced modulo X^m - 1 there, and the
    all-zero rows its folds leave are dropped.  Entries above each
    diagonal are then reduced modulo it by the kernel's `divide`, and those
    right of it folded again, row by row from the top (`_reduce_row`):
    (X^m-1)e_k for k > col lies in the span of pivots k, ..., ell-1, so the
    row stays in the submodule with the same entries up to the column.  A
    diagonal is all of X^m - 1 only where the (X^m-1)e_i row was alone at
    its column, with a zero tail.  The result is unique per submodule.

    Each row is packed once in the field's kernel (``polyring._kernel``),
    at w = 2m + 1 coefficients an entry, each nonzero entry converted once,
    and unpacked once for the result, all its zeros one shared Poly.
    A fold starts from leading entries of degree at most m and others below
    m, and its rows are s*a + t*b with deg s, deg t <= m, so no entry passes
    degree 2m - 1; above a diagonal, quotient and entries are below m.  So
    w, the m + 1 coefficients of a leading entry and the m of any other,
    has one to spare.
    """
    f, ell, m = gen.field, gen.ell, gen.m
    k, w = _kernel(f), 2 * m + 1
    native, pack, lead, euclid, fold_row = k.native, k.pack, k.lead, k.euclid, k.fold_row
    zero, full = native(f, ()), k.xm1(f, m)
    pending = [pack(f, [(native(f, c) if len(c) <= m else k.fold(f, native(f, c), m))
                        if (c := p.coeffs) else zero for p in row], w)
               for row in gen.rows]
    pending += (pack(f, [zero] * j + [full] + [zero] * (ell - 1 - j), w) for j in range(ell))

    pivots = []
    for col in range(ell):
        n = ell - col
        active, pending, rest = [], [], pending
        for r in rest:
            (active if lead(f, r, n, w) else pending).append(r)
        acc = active[0]
        for row in active[1:]:
            acc, low = euclid(f, acc, row, n, w)
            if n > 1:
                acc = fold_row(f, acc, n - 1, m, w)
                pending.append(fold_row(f, low, n - 1, m, w))
        pivots.append(acc)

    # leftover rows have zeros at every position; nothing to keep
    for i in range(ell - 1):
        pivots[i] = _reduce_row(k, f, pivots[i], pivots[i + 1:], m, w)
    zero_poly = Poly.zero(f)
    return _trusted_matrix(RgbPotBasis, f, ell, m, tuple(
        tuple([k.poly(f, x) if x else zero_poly for x in k.unpack(f, row, ell, w)])
        for row in pivots))


def _reduce_row(k, f: Field, x, rows: list, m: int, w: int):
    """x reduced by `divide` at each of the last len(rows) columns by the row
    of that column, and folded right of it: no entry passes degree 2m - 2."""
    for n, row in zip(range(len(rows), 0, -1), rows):
        x = k.divide(f, x, row, n, w)
        if n > 1:
            x = k.fold_row(f, x, n - 1, m, w)
    return x


def is_rgb_pot(b: RgbPotBasis):
    """Check the structural conditions of the canonical form.

    Returns (ok, violations): upper triangularity, above-diagonal degree
    reduction, diagonals dividing X^m - 1, zero tails next to full
    diagonals, and monic diagonals.
    """
    ell, mat, xm1 = b.ell, b.matrix, x_pow_minus_one(b.field, b.m)
    violations = ["condition 1: nonzero entry below the diagonal"] if any(
        not mat[i][j].is_zero for i in range(ell) for j in range(i)) else []
    violations += [f"condition 2: deg g[{j}][{i}] >= deg g[{i}][{i}]" for i in range(ell)
                   for j in range(i) if mat[j][i].degree >= mat[i][i].degree]
    violations += [f"condition 3: g[{i}][{i}] does not divide X^{b.m}-1"
                   for i, d in enumerate(b.diagonal()) if d.is_zero or not _divides_xm1(d, b.m)]
    violations += [f"condition 4: full diagonal at row {i} with a nonzero tail" for i in range(ell)
                   if mat[i][i] == xm1 and any(not e.is_zero for e in mat[i][i + 1:])]
    violations += [f"normalization: g[{i}][{i}] is not monic" for i in range(ell)
                   if not mat[i][i].is_monic]
    return (not violations), violations


def dimension(b: RgbPotBasis) -> int:
    """k = ell*m - sum of diagonal degrees."""
    total = 0
    for i, d in enumerate(b.diagonal()):
        if d.is_zero:
            raise DegreeMismatch(f"zero diagonal entry at row {i}: not a valid basis")
        total += d.degree
    return b.ell * b.m - total


def level(b: RgbPotBasis) -> int:
    """Number of diagonal entries different from X^m - 1, which must form a
    prefix of the diagonal."""
    xm1 = x_pow_minus_one(b.field, b.m)
    flags = [d == xm1 for d in b.diagonal()]
    r = sum(1 for fl in flags if not fl)
    if any(flags[:r]) or not all(flags[r:]):
        raise NonPrefixPattern(
            "diagonal mixes proper divisors and X^m-1 in a non-prefix pattern")
    return r


def reduce_vector(b: RgbPotBasis, v: PolyVector) -> PolyVector:
    """Normal form of v against the basis (sequential division position by
    position); the zero vector comes back exactly when v is a codeword.
    Each row is packed once, its tail right of the diagonal folded."""
    if v.ell != b.ell or v.m != b.m:
        raise ShapeMismatch("vector shape does not match the basis")
    f, ell, m, k = b.field, b.ell, b.m, _kernel(b.field)
    if any(d.is_zero for d in b.diagonal()):  # the kernels' division never ends
        raise DivisionByZero("polynomial division by zero")
    native, w = k.native, max(2 * m, *(len(d.coeffs) for d in b.diagonal())) + 1
    rows = [k.pack(f, [native(f, ())] * i + [native(f, row[i].coeffs)] +
                   [k.fold(f, native(f, p.coeffs), m) for p in row[i + 1:]], w)
            for i, row in enumerate(b.matrix)]
    x = _reduce_row(k, f, k.pack(f, [native(f, c.coeffs) for c in v.components], w), rows, m, w)
    return PolyVector([k.poly(f, e) for e in k.unpack(f, x, ell, w)], m)
