"""Independent linear-algebra checks for the polynomial constructions.

Everything here works on plain generator matrices over GF(q): expanding a
polynomial basis into one, exhaustive minimum-distance search, shift-closure
and membership tests.  These routines deliberately avoid the canonical-form
machinery (no division, no gcd) so they can serve as ground truth for it.
"""

from __future__ import annotations

import os

from .cyclic import CyclicCode
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    ParamMismatch,
    RankMismatch,
    ShapeMismatch,
    TooLarge,
)
from .field import Field
from .polyring import Poly
from .product import CodewordMatrix, ProductParams
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


class LinearCodeView:
    """An [n, k] linear code given by a full-rank k x n generator matrix of
    field element codes, held as a read-only numpy array."""

    __slots__ = ("field", "n", "k", "matrix")

    def __init__(self, field: Field, matrix):
        import numpy as np
        arr = np.asarray(matrix, dtype=np.int64)
        if arr.ndim != 2:
            raise ShapeMismatch("generator matrix must be two-dimensional")
        if arr.size and (arr.min() < 0 or arr.max() >= field.q):
            raise FieldMismatch("matrix entries outside the field's code range")
        k, n = arr.shape
        rank = len(_rref(field, arr.tolist())[0])
        if rank != k:
            raise RankMismatch(f"generator matrix has rank {rank}, not {k}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "matrix", arr)

    def __setattr__(self, name, value):
        raise AttributeError("LinearCodeView is immutable")

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
    import numpy as np
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
    if not rows:
        return LinearCodeView(f, np.zeros((0, b.ell * b.m), dtype=np.int64))
    return LinearCodeView(f, rows)


# ---------------------------------------------------------------------------
# exhaustive minimum distance
# ---------------------------------------------------------------------------

def _gf2_range_min(packed_rows, start: int, stop: int) -> int:
    """Minimum Hamming weight over message indices in [start, stop) for a
    GF(2) code with rows packed into integers bit-per-position.

    Incrementing the index flips a suffix of message bits, and the combined
    contribution of those rows is a precomputed prefix XOR, so the walk
    costs one XOR and one popcount per codeword.
    """
    prefix = []
    acc = 0
    for row in packed_rows:
        acc ^= row
        prefix.append(acc)
    cur = 0
    for j, row in enumerate(packed_rows):
        if (start >> j) & 1:
            cur ^= row
    best = cur.bit_count() if start else (1 << 62)
    first = start + 1 if start else 1
    for idx in range(first, stop):
        cur ^= prefix[(idx & -idx).bit_length() - 1]
        w = cur.bit_count()
        if w < best:
            best = w
    return best


def _generic_range_min(p: int, m: int, modulus, rows, start: int,
                       stop: int) -> int:
    """Minimum Hamming weight over message indices in [start, stop) for a
    code over any GF(q), message index read as base-q digits (= field
    element codes) over the rows.

    Keeps the current codeword and patches it per step with precomputed
    scalar multiples of the changed row, so field multiplications never
    happen inside the walk.
    """
    import numpy as np
    field = Field(p, m, modulus)
    q = field.q
    k = len(rows)
    n = len(rows[0])
    scaled = [
        [np.array([field.mul(c, x) for x in row], dtype=np.int64)
         for c in range(q)]
        for row in rows
    ]
    if field.m == 1:
        swap = lambda cur, j, old, new: (cur - scaled[j][old]
                                         + scaled[j][new]) % p
    elif field.p == 2:
        swap = lambda cur, j, old, new: cur ^ scaled[j][old] ^ scaled[j][new]
    else:
        sub, add = field.sub, field.add
        swap = lambda cur, j, old, new: np.array(
            [add(sub(int(v), int(a)), int(b))
             for v, a, b in zip(cur, scaled[j][old], scaled[j][new])],
            dtype=np.int64)
    digits = []
    idx = start
    for _ in range(k):
        digits.append(idx % q)
        idx //= q
    cur = np.zeros(n, dtype=np.int64)
    for j, d in enumerate(digits):
        if d:
            cur = swap(cur, j, 0, d)
    best = int(np.count_nonzero(cur)) if start else (1 << 62)
    first = start + 1 if start else 1
    for idx in range(first, stop):
        j = 0
        while digits[j] == q - 1:
            cur = swap(cur, j, q - 1, 0)
            digits[j] = 0
            j += 1
        cur = swap(cur, j, digits[j], digits[j] + 1)
        digits[j] += 1
        w = int(np.count_nonzero(cur))
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
    exceeds `limit`; raise the limit explicitly to go bigger.  With
    workers > 1 the message range is split into contiguous chunks searched
    in separate processes; the worker count is clamped to the CPUs this
    process may run on and to the number of chunks.
    """
    f = view.field
    if view.k == 0:
        return None
    total = f.q ** view.k
    if total > limit:
        raise TooLarge(
            f"{f.q}^{view.k} = {total} messages exceeds the limit {limit}")
    rows = view.matrix.tolist()
    if f.q == 2:
        packed = [sum(c << pos for pos, c in enumerate(row)) for row in rows]
        args = (packed,)
        worker = _gf2_range_min
    else:
        args = (f.p, f.m, f.modulus, rows)
        worker = _generic_range_min
    workers = min(max(1, int(workers)), _usable_cpus())
    if workers == 1 or total < (1 << 16):
        return worker(*args, 0, total)
    bounds = [total * i // workers for i in range(workers + 1)]
    chunks = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [pool.submit(worker, *args, lo, hi) for lo, hi in chunks]
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
    rows = view.matrix.tolist()
    rref, pivots = _rref(view.field, rows)
    for row in rows:
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
    if M.shape != (p.m_b, p.ell_a * p.m_a):
        raise DimensionMismatch(
            f"matrix shape {M.shape} does not match params "
            f"({p.m_b}, {p.ell_a * p.m_a})")
    if (row_basis.ell, row_basis.m) != (p.ell_a, p.m_a):
        raise ParamMismatch(
            f"row code shape ({row_basis.ell}, {row_basis.m}) does not "
            f"match params ({p.ell_a}, {p.m_a})")
    if B.m != p.m_b:
        raise ParamMismatch(
            f"column code length {B.m} does not match params m_b={p.m_b}")
    if M.field != row_basis.field or M.field != B.field:
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
