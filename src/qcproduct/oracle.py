"""Independent linear-algebra checks for the polynomial constructions.

Everything here works on plain generator matrices over GF(q): expanding a
polynomial basis into one, exhaustive minimum-distance search, shift-closure
and membership tests.  These routines deliberately avoid the canonical-form
machinery (no division, no gcd) so they can serve as ground truth for it.
"""

from __future__ import annotations

import itertools
import operator
import os
from dataclasses import dataclass

from .cyclic import CyclicCode
from .errors import (
    FieldMismatch,
    RankMismatch,
    ShapeMismatch,
    TooLarge,
)
from .field import Field
from .polyring import Poly
from .product import (
    CodewordMatrix,
    ProductParams,
    _check_matrix,
    _check_product_inputs,
)
from .qcmodule import (
    GeneratingMatrix,
    RgbPotBasis,
    dimension,
    encode,
    reduce_vector,
    rgb_pot_reduce,
    univariate_to_vector,
    vector_to_univariate,
)

__all__ = [
    "LinearCodeView",
    "expand_to_linear",
    "min_distance",
    "is_quasi_cyclic",
    "modules_equal",
    "check_product_membership",
]


# ---------------------------------------------------------------------------
# row reduction over an arbitrary finite field
# ---------------------------------------------------------------------------

def _rref(field: Field, rows):
    """Reduced row echelon form over the field; returns (rows, pivot
    columns) with zero rows dropped."""
    work = [list(r) for r in rows]
    if not work:
        return [], []
    n = len(work[0])
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = field.inv(work[r][col])
        if inv != 1:
            work[r] = [field.mul(inv, c) for c in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                s = work[i][col]
                work[i] = [field.sub(a, field.mul(s, b))
                           for a, b in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def _in_rowspace(field: Field, rref, pivots, vec) -> bool:
    v = list(vec)
    for row, col in zip(rref, pivots):
        if v[col]:
            s = v[col]
            v = [field.sub(a, field.mul(s, b)) for a, b in zip(v, row)]
    return not any(v)


@dataclass(frozen=True, slots=True, init=False, repr=False)
class LinearCodeView:
    """An [n, k] linear code given by a full-rank k x n generator matrix of
    field element codes, held as a tuple of k row tuples of ints.  The
    length n is read from the rows; a matrix without rows must state it."""

    field: Field
    n: int
    k: int
    matrix: tuple

    def __init__(self, field: Field, matrix, n: int | None = None):
        try:
            rows = tuple(tuple(map(operator.index, row)) for row in matrix)
        except TypeError:
            raise ShapeMismatch(
                "generator matrix must be rows of integer codes") from None
        if n is None and rows:
            n = len(rows[0])
        if n is None or n < 0 or any(len(row) != n for row in rows):
            raise ShapeMismatch("rows must share one length n (give n if no rows)")
        if any(not 0 <= c < field.q for row in rows for c in row):
            raise FieldMismatch("matrix entries outside the field's code range")
        k = len(rows)
        rank = len(_rref(field, rows)[0])
        if rank != k:
            raise RankMismatch(f"generator matrix has rank {rank}, not {k}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "matrix", rows)

    def __repr__(self):
        return f"LinearCodeView[{self.n}, {self.k}] over {self.field!r}"


def _serialize(vec) -> list[int]:
    """Flatten a polynomial vector into ell*m field codes via the
    interleaving serialization."""
    poly = vector_to_univariate(vec)
    out = list(poly.coeffs)
    out.extend([0] * (vec.ell * vec.m - len(out)))
    return out


def expand_to_linear(b: RgbPotBasis) -> LinearCodeView:
    """Expand a canonical basis into a generator matrix over GF(q): the
    rows are the serializations of X^t * (row i) for
    0 <= t < m - deg(g_ii).  The rank check in LinearCodeView then verifies
    independently that the basis dimension is honest."""
    f = b.field
    rows = []
    for i in range(b.ell):
        free = b.m - b.matrix[i][i].degree
        for t in range(free):
            message = [Poly.monomial(f, t) if j == i else Poly.zero(f)
                       for j in range(b.ell)]
            rows.append(_serialize(encode(b, message)))
    k = dimension(b)
    if len(rows) != k:
        raise RankMismatch(f"expanded {len(rows)} rows for stated dimension {k}")
    return LinearCodeView(f, rows, b.ell * b.m)


# ---------------------------------------------------------------------------
# exhaustive minimum distance
# ---------------------------------------------------------------------------

def _packed_rows(field: Field, rows) -> tuple[int, list[int]]:
    """Pack the code as a GF(p)-linear code of dimension k*m, p the
    characteristic and m the extension degree; returns (bits, rows).

    Generator row r becomes the m rows X^t * r (t < m), so a message index
    read in base p names the same codeword as read in base q over the
    original rows.  Each row is one integer: digit t of position i sits in
    slot t*n + i of `bits` bits, one bit for p = 2, else room for the sum
    of two digits plus a guard bit above it.
    """
    p, m, n = field.p, field.m, len(rows[0])
    bits = 1 if p == 2 else (2 * p - 2).bit_length() + 1
    packed = []
    for row in rows:
        for t in range(m):
            word = 0
            for i, c in enumerate(row):
                c = field.mul(p ** t, c)
                for slot in range(i, m * n, n):
                    c, digit = divmod(c, p)
                    word |= digit << (slot * bits)
            packed.append(word)
    return bits, packed


def _range_min(p: int, m: int, n: int, bits: int, rows, start: int,
               stop: int) -> int:
    """Minimum Hamming weight over message indices in [start, stop) for a
    code packed by `_packed_rows`, the index read as base-p digits over the
    rows.

    Going from idx-1 to idx raises digit v = v_p(idx) by one and wraps the
    digits below it from p-1 to 0; each of those adds its row once, so the
    step adds the precomputed prefix sum of rows 0..v.  Addition is XOR for
    p = 2 and slot-parallel mod p otherwise.  The weight sets the guard bit
    of every nonzero slot, ORs each position's m slots together and counts
    the guard bits.  Over GF(2) it is one XOR and one popcount per codeword.
    """
    top = bits - 1
    width = bits * n
    ones = ((1 << (width * m)) - 1) // ((1 << bits) - 1)  # bit 0 of each slot
    guard = ones << top
    fix = ones * ((1 << top) - p)  # s + fix sets the guard bit iff s >= p
    low = ones * ((1 << top) - 1)  # x + low sets the guard bit iff x != 0
    mask = guard & ((1 << width) - 1)  # the guard bits of digit 0

    def add(x, y):
        if p == 2:
            return x ^ y
        s = x + y
        return s - (((s + fix) & guard) >> top) * p

    # start from the codeword of index first - 1, d * row by doubling
    first = max(start, 1)
    cur, rest = 0, first - 1
    for row in rows:
        rest, d = divmod(rest, p)
        while d:
            if d & 1:
                cur = add(cur, row)
            row, d = add(row, row), d >> 1
    prefix = list(itertools.accumulate(rows, add))
    best = 1 << 62
    if p == 2 and m == 1:
        for idx in range(first, stop):
            cur ^= prefix[(idx & -idx).bit_length() - 1]
            w = cur.bit_count()
            if w < best:
                best = w
        return best
    shifts = [t * width for t in range(1, m)]
    for idx in range(first, stop):
        v, i = 0, idx
        while not i % p:
            i //= p
            v += 1
        cur = add(cur, prefix[v])
        g = (cur + low) & guard
        for sh in shifts:
            g |= g >> sh
        w = (g & mask).bit_count()
        if w < best:
            best = w
    return best


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def min_distance(view: LinearCodeView, workers: int = 1,
                 limit: int = 1 << 26):
    """Exact minimum distance by exhausting all q^k - 1 nonzero messages.

    Returns None for the zero code (k = 0).  Raises TooLarge when q^k
    exceeds `limit`; raise the limit explicitly to go bigger.  The rows are
    packed into ints once; with workers > 1 the message range is split into
    contiguous chunks walked in separate processes, at most one per CPU this
    process may run on and one per chunk.
    """
    f = view.field
    if view.k == 0:
        return None
    total = f.q ** view.k
    if total > limit:
        raise TooLarge(
            f"{f.q}^{view.k} = {total} messages exceeds the limit {limit}")
    args = (f.p, f.m, view.n, *_packed_rows(f, view.matrix))
    workers = min(max(1, int(workers)), _usable_cpus())
    if workers == 1 or total < (1 << 16):
        return _range_min(*args, 0, total)
    bounds = [total * i // workers for i in range(workers + 1)]
    chunks = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [pool.submit(_range_min, *args, lo, hi)
                   for lo, hi in chunks]
        return min(fut.result() for fut in futures)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def is_quasi_cyclic(view: LinearCodeView, ell: int) -> bool:
    """True when the code is closed under the shift by ell positions, i.e.
    the shift of every generator row stays in the row space."""
    if view.n % ell:
        raise ShapeMismatch(f"length {view.n} is not a multiple of {ell}")
    if view.k == 0:
        return True
    rref, pivots = _rref(view.field, view.matrix)
    for row in view.matrix:
        shifted = row[-ell:] + row[:-ell]
        if not _in_rowspace(view.field, rref, pivots, shifted):
            return False
    return True


def modules_equal(a, b) -> bool:
    """Whether two sets of generating rows span the same submodule,
    decided by comparing canonical forms."""
    if isinstance(a, RgbPotBasis):
        a = a.to_generating_matrix()
    if isinstance(b, RgbPotBasis):
        b = b.to_generating_matrix()
    if not isinstance(a, GeneratingMatrix) or not isinstance(b, GeneratingMatrix):
        raise ShapeMismatch("expected generating matrices or canonical bases")
    if (a.ell, a.m) != (b.ell, b.m):
        raise ShapeMismatch(
            f"shape ({a.ell}, {a.m}) vs ({b.ell}, {b.m}) cannot span equal modules")
    if a.field != b.field:
        raise FieldMismatch("modules over different fields")
    return rgb_pot_reduce(a).matrix == rgb_pot_reduce(b).matrix


def check_product_membership(M: CodewordMatrix, row_basis: RgbPotBasis,
                             B: CyclicCode, p: ProductParams) -> bool:
    """Whether every row of the codeword matrix lies in the row code and
    every column is a multiple of the column code's generator."""
    _check_matrix(M, p)
    _check_product_inputs(row_basis.ell, row_basis.m, row_basis.field, B, p)
    if M.field != row_basis.field:
        raise FieldMismatch("codeword matrix over a different field")
    f = M.field
    for row in M.entries:
        vec = univariate_to_vector(Poly(f, row), p.ell_a, p.m_a)
        if not reduce_vector(row_basis, vec).is_zero:
            return False
    for j in range(p.ell_a * p.m_a):
        col = Poly(f, [M.entries[i][j] for i in range(p.m_b)])
        if not (col % B.g).is_zero:
            return False
    return True
