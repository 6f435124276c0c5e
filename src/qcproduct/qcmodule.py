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
  (:func:`is_rgb_pot`), dimension, level, encoding, membership reduction;
* the interleaving bijection between component vectors and single
  univariate polynomials of degree < ell*m.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegreeMismatch,
    DegreeOverflow,
    FieldMismatch,
    MessageDegreeTooLarge,
    NonPrefixPattern,
    ShapeMismatch,
)
from .field import Field
from .polyring import Poly, fold_mod_xm1, poly_egcd, x_pow_minus_one

__all__ = [
    "PolyVector",
    "GeneratingMatrix",
    "RgbPotBasis",
    "rgb_pot_reduce",
    "is_rgb_pot",
    "dimension",
    "level",
    "encode",
    "reduce_vector",
    "vector_to_univariate",
    "univariate_to_vector",
]


@dataclass(frozen=True, slots=True, init=False, repr=False)
class PolyVector:
    """An ell-tuple of component polynomials, each of degree < m."""

    components: tuple
    m: int

    def __init__(self, components, m: int):
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
        object.__setattr__(self, "m", int(m))

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
        if ell < 1 or m < 1:
            raise ShapeMismatch("ell and m must be positive")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ell", int(ell))
        object.__setattr__(self, "m", int(m))
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
        if ell < 1 or m < 1:
            raise ShapeMismatch("ell and m must be positive")
        rows = _check_rows(field, ell, matrix)
        if len(rows) != ell:
            raise ShapeMismatch(f"basis must be {ell}x{ell}, got {len(rows)} rows")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "ell", int(ell))
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "matrix", rows)

    def diagonal(self) -> tuple[Poly, ...]:
        return tuple(self.matrix[i][i] for i in range(self.ell))

    def to_generating_matrix(self) -> GeneratingMatrix:
        return GeneratingMatrix(self.field, self.ell, self.m, self.matrix)

    def __repr__(self):
        return f"RgbPotBasis(ell={self.ell}, m={self.m})"


# ---------------------------------------------------------------------------
# reduction to canonical form
# ---------------------------------------------------------------------------

def rgb_pot_reduce(gen: GeneratingMatrix) -> RgbPotBasis:
    """Canonical upper-triangular basis of the submodule generated by the
    explicit rows together with the (X^m-1)e_j rows.

    Triangularization runs column by column: all rows active at a column
    are folded into a single pivot via extended gcds (each fold is a
    determinant -1 row transform, so the row span never changes), which
    makes every diagonal a monic divisor of X^m - 1 because the (X^m-1)e_j
    row always reaches its own column untouched.  Those rows also keep the
    work in F_q[X]/(X^m-1): the submodule contains K = <(X^m-1)e_k>, and
    while column col is processed every (X^m-1)e_k row with k > col is
    still pending, so reducing entries right of col modulo X^m - 1 changes
    neither the submodule nor the result, and keeps operands below degree
    2m.  Entries above each diagonal are then reduced modulo it, and any
    row whose diagonal is the whole of X^m - 1 is replaced by (X^m-1)e_i.
    The result is unique per submodule.
    """
    f, ell, m = gen.field, gen.ell, gen.m
    xm1 = x_pow_minus_one(f, m)
    zero = Poly.zero(f)

    pending = [[fold_mod_xm1(p, m) for p in row] for row in gen.rows]
    for j in range(ell):
        imp = [zero] * ell
        imp[j] = xm1
        pending.append(imp)

    pivots: list[list[Poly]] = []
    for col in range(ell):
        active = [r for r in pending if not r[col].is_zero]
        pending = [r for r in pending if r[col].is_zero]
        acc = active[0]
        for row in active[1:]:
            g, s, t = poly_egcd(acc[col], row[col])
            co_acc = acc[col] // g
            co_row = row[col] // g
            folded = [s * a + t * b for a, b in zip(acc, row)]
            annihilated = [co_row * a - co_acc * b for a, b in zip(acc, row)]
            folded[col + 1:] = [fold_mod_xm1(p, m) for p in folded[col + 1:]]
            annihilated[col + 1:] = [fold_mod_xm1(p, m) for p in annihilated[col + 1:]]
            acc = folded
            pending.append(annihilated)
        if not acc[col].is_monic:
            inv = f.inv(acc[col].leading)
            acc = [p.scale(inv) for p in acc]
        pivots.append(acc)

    # leftover rows have zeros at every position; nothing to keep
    # reduce above-diagonal entries modulo the diagonal, left to right
    for col in range(1, ell):
        for j in range(col):
            q, r = divmod(pivots[j][col], pivots[col][col])
            if not q.is_zero:
                for k in range(col, ell):
                    pivots[j][k] = pivots[j][k] - q * pivots[col][k]
    # rows whose diagonal is all of X^m - 1 carry no information beyond it
    for i in range(ell - 1, -1, -1):
        if pivots[i][i] == xm1:
            pivots[i] = [zero] * ell
            pivots[i][i] = xm1
    return RgbPotBasis(f, ell, m, pivots)


def is_rgb_pot(b: RgbPotBasis):
    """Check the structural conditions of the canonical form.

    Returns (ok, violations): upper triangularity, above-diagonal degree
    reduction, diagonals dividing X^m - 1, zero tails next to full
    diagonals, and monic diagonals.
    """
    xm1 = x_pow_minus_one(b.field, b.m)
    violations = []
    mat = b.matrix
    if any(not mat[i][j].is_zero for i in range(b.ell) for j in range(i)):
        violations.append("condition 1: nonzero entry below the diagonal")
    for i in range(b.ell):
        for j in range(i):
            if mat[j][i].degree >= mat[i][i].degree:
                violations.append(
                    f"condition 2: deg g[{j}][{i}] >= deg g[{i}][{i}]")
    for i in range(b.ell):
        d = mat[i][i]
        if d.is_zero or not (xm1 % d).is_zero:
            violations.append(f"condition 3: g[{i}][{i}] does not divide X^{b.m}-1")
    for i in range(b.ell):
        if mat[i][i] == xm1 and any(not mat[i][j].is_zero
                                    for j in range(i + 1, b.ell)):
            violations.append(
                f"condition 4: full diagonal at row {i} with a nonzero tail")
    for i in range(b.ell):
        if not mat[i][i].is_monic:
            violations.append(f"normalization: g[{i}][{i}] is not monic")
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


def encode(b: RgbPotBasis, message) -> PolyVector:
    """c(X) = i(X) G(X): each message component j must have degree
    < m - deg g_jj (rows with a full diagonal admit only zero)."""
    comps = tuple(message.components) if isinstance(message, PolyVector) \
        else tuple(message)
    if len(comps) != b.ell:
        raise ShapeMismatch(f"message needs {b.ell} components, got {len(comps)}")
    for j, i_j in enumerate(comps):
        bound = b.m - b.matrix[j][j].degree
        if i_j.degree >= bound:
            raise MessageDegreeTooLarge(
                f"message component {j} has degree {i_j.degree}, bound is < {bound}")
    out = []
    for col in range(b.ell):
        acc = Poly.zero(b.field)
        for row in range(b.ell):
            if not comps[row].is_zero and not b.matrix[row][col].is_zero:
                acc = acc + comps[row] * b.matrix[row][col]
        out.append(fold_mod_xm1(acc, b.m))
    return PolyVector(out, b.m)


def reduce_vector(b: RgbPotBasis, v: PolyVector) -> PolyVector:
    """Normal form of v against the basis (sequential division position by
    position); the zero vector comes back exactly when v is a codeword."""
    if v.ell != b.ell or v.m != b.m:
        raise ShapeMismatch("vector shape does not match the basis")
    w = [fold_mod_xm1(c, b.m) for c in v.components]
    for i in range(b.ell):
        q, r = divmod(w[i], b.matrix[i][i])
        w[i] = r
        if not q.is_zero:
            for k in range(i + 1, b.ell):
                w[k] = fold_mod_xm1(w[k] - q * b.matrix[i][k], b.m)
    return PolyVector(w, b.m)


# ---------------------------------------------------------------------------
# interleaving between vectors and univariate polynomials
# ---------------------------------------------------------------------------

def vector_to_univariate(c: PolyVector) -> Poly:
    """Interleave the components into one polynomial of degree < ell*m:
    coefficient k of component i lands on X^(ell*k + i)."""
    ell, m = c.ell, c.m
    out = [0] * (ell * m)
    for i, comp in enumerate(c.components):
        for k, coeff in enumerate(comp.coeffs):
            out[ell * k + i] = coeff
    return Poly(c.field, out)


def univariate_to_vector(p: Poly, ell: int, m: int) -> PolyVector:
    """Inverse interleaving: component i collects the coefficients at
    positions congruent to i mod ell."""
    if p.degree >= ell * m:
        raise DegreeOverflow(
            f"degree {p.degree} does not fit length {ell}*{m}")
    f = p.field
    comps = []
    for i in range(ell):
        comps.append(Poly(f, [p.coeff(ell * k + i) for k in range(m)]))
    return PolyVector(comps, m)
