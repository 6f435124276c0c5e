"""Independent linear-algebra checks for the polynomial constructions.

Everything here works on plain generator matrices over GF(q): expanding a
polynomial basis into one, exhaustive minimum-distance search, shift-closure
and membership tests.  These routines deliberately avoid the canonical-form
machinery (no division, no gcd) so they can serve as ground truth for it.
"""

from __future__ import annotations

import functools
import itertools
import math
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
from .polyring import Poly, modular_substitute
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
    reduce_vector,
    rgb_pot_reduce,
    univariate_to_vector,
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
    if field.m == 1:  # row operations on integers mod p
        p = field.p

        def scale(s, row):
            return [s * c % p for c in row]

        def sub_scaled(row, s, other):
            return [(a - s * b) % p for a, b in zip(row, other)]
    else:
        mul, sub = field.mul, field.sub

        def scale(s, row):
            return [mul(s, c) for c in row]

        def sub_scaled(row, s, other):
            return [sub(a, mul(s, b)) for a, b in zip(row, other)]
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
            work[r] = scale(inv, work[r])
        for i in range(len(work)):
            if i != r and work[i][col]:
                work[i] = sub_scaled(work[i], work[i][col], work[r])
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


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
        index = operator.index
        try:
            rows = tuple(tuple([index(c) for c in row]) for row in matrix)
        except TypeError:
            raise ShapeMismatch(
                "generator matrix must be rows of integer codes") from None
        if n is None and rows:
            n = len(rows[0])
        if n is None or n < 0 or any(len(row) != n for row in rows):
            raise ShapeMismatch("rows must share one length n (give n if no rows)")
        if n and rows and not (
                0 <= min(map(min, rows)) <= max(map(max, rows)) < field.q):
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


def expand_to_linear(b: RgbPotBasis) -> LinearCodeView:
    """Expand a canonical basis into a generator matrix over GF(q): the
    rows are the serializations of X^t * (row i) for
    0 <= t < m - deg(g_ii), coefficient e of entry j landing on position
    ell*e + j.  The rank check in LinearCodeView then verifies
    independently that the basis dimension is honest."""
    k = dimension(b)  # raises on a zero diagonal entry before any row is built
    ell, m = b.ell, b.m
    rows = []
    for i, entries in enumerate(b.matrix):
        for t in range(m - entries[i].degree):
            row = [0] * (ell * m)
            for j, entry in enumerate(entries):
                for e, c in enumerate(modular_substitute(entry, 1, m, t).coeffs):
                    row[ell * e + j] = c
            rows.append(row)
    if len(rows) != k:
        raise RankMismatch(f"expanded {len(rows)} rows for stated dimension {k}")
    return LinearCodeView(b.field, rows, ell * m)


# ---------------------------------------------------------------------------
# minimum distance on packed words: the exhaustive walk and Brouwer-Zimmermann
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
    slots = []  # each word's digits, the highest slot first
    for row in rows:
        for t in range(m):
            codes = ([field.mul(p ** t, c) for c in reversed(row)] if t
                     else row[::-1])
            slots.append([c // p ** s % p for s in reversed(range(m))
                          for c in codes])
    numeral = {d: format(d, f"0{bits}b") for d in set().union(*slots)}
    return bits, [int("".join([numeral[d] for d in word]), 2)
                  for word in slots]


def _slot_ops(p: int, m: int, n: int, bits: int):
    """(add, support) on words packed by `_packed_rows`.

    `add` is XOR for p = 2 and slot-parallel addition mod p otherwise.
    `support` sets the guard bit of every nonzero slot and ORs each
    position's m slots onto those of digit 0, so bit i*bits + bits-1 is set
    iff position i is nonzero: its popcount is the Hamming weight.  Over
    GF(2) the support is the word itself.
    """
    if p == 2 and m == 1:
        return operator.xor, int
    top = bits - 1
    width = bits * n
    ones = ((1 << (width * m)) - 1) // ((1 << bits) - 1)  # bit 0 of each slot
    guard = ones << top
    fix = ones * ((1 << top) - p)  # s + fix sets the guard bit iff s >= p
    low = ones * ((1 << top) - 1)  # x + low sets the guard bit iff x != 0
    mask = guard & ((1 << width) - 1)  # the guard bits of digit 0
    shifts = [t * width for t in range(1, m)]

    if p == 2:
        add = operator.xor
    else:
        def add(x, y):
            s = x + y
            return s - (((s + fix) & guard) >> top) * p

    def support(x):
        g = (x + low) & guard
        for sh in shifts:
            g |= g >> sh
        return g & mask

    return add, support


def _times(add, x: int, c: int) -> int:
    """c * x for an integer c >= 0, by doubling."""
    out = 0
    while c:
        if c & 1:
            out = add(out, x)
        x, c = add(x, x), c >> 1
    return out


def _range_min(p: int, m: int, n: int, bits: int, rows, start: int,
               stop: int) -> int:
    """Minimum Hamming weight over message indices in [start, stop) for a
    code packed by `_packed_rows`, the index read as base-p digits over the
    rows.

    Going from idx-1 to idx raises digit v = v_p(idx) by one and wraps the
    digits below it from p-1 to 0; each of those adds its row once, so the
    step adds the precomputed prefix sum of rows 0..v.  Over GF(2) it is
    one XOR and one popcount per codeword.
    """
    add, support = _slot_ops(p, m, n, bits)
    # start from the codeword of index first - 1
    first = max(start, 1)
    cur, rest = 0, first - 1
    for row in rows:
        rest, d = divmod(rest, p)
        cur = add(cur, _times(add, row, d))
    prefix = list(itertools.accumulate(rows, add))
    best = 1 << 62
    if p == 2 and m == 1:
        for idx in range(first, stop):
            cur ^= prefix[(idx & -idx).bit_length() - 1]
            w = cur.bit_count()
            if w < best:
                best = w
        return best
    for idx in range(first, stop):
        v, i = 0, idx
        while not i % p:
            i //= p
            v += 1
        cur = add(cur, prefix[v])
        w = support(cur).bit_count()
        if w < best:
            best = w
    return best


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _exhaustive_min(view: LinearCodeView, workers: int = 1) -> int:
    """Minimum weight over all q^k - 1 nonzero messages of a code with
    k > 0.  With workers > 1 the message range is split into contiguous
    chunks walked in separate processes, at most one per CPU this process
    may run on and one per chunk."""
    f = view.field
    total = f.q ** view.k
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


def _information_sets(p: int, m: int, n: int, bits: int, rows, add,
                      support) -> list:
    """Systematic generator matrices on greedily disjoint information sets
    of a code packed by `_packed_rows`, as (r, words) pairs.

    Each matrix comes from GF(p) row reduction of the k*m packed rows,
    pivoting on every slot of one position at a time, lowest position
    first: first on positions no earlier matrix pivoted on (r of them),
    then, if fewer than k were found, on earlier ones.  Because the code
    is GF(q)-linear, a position either takes all m pivots or none, and the
    row pivoted on digit t of the a-th position is X^t * g_a, where g_a is
    the codeword that is 1 at that position and 0 on the rest of the
    information set; `words[a*m + t]` holds it.  Matrices are built while
    some unused position still gives a pivot.
    """
    top, dmask, km = bits - 1, (1 << bits) - 1, len(rows)
    everywhere = sum(1 << (i * bits + top) for i in range(n))

    def clear(row, piv, shift):
        """row less the multiple of piv that zeroes its slot at shift"""
        d = row >> shift & dmask
        return add(row, _times(add, piv, p - d)) if d else row

    unused = everywhere
    sets = []
    while unused:
        free, done, new = list(rows), [], 0
        for fresh, allowed in ((True, unused), (False, everywhere)):
            while len(done) < km:
                # a slot of the OR is nonzero iff it is in some free row
                cand = support(functools.reduce(operator.or_, free, 0)) & allowed
                if not cand:
                    break
                low = (cand & -cand).bit_length() - 1
                i = low // bits
                if fresh:
                    new += 1
                    unused ^= 1 << low
                for t in range(m):
                    shift = (t * n + i) * bits
                    piv = next(row for row in free if row >> shift & dmask)
                    free.remove(piv)
                    piv = _times(add, piv, pow(piv >> shift & dmask, -1, p))
                    free = [clear(row, piv, shift) for row in free]
                    done = [clear(row, piv, shift) for row in done]
                    done.append(piv)
        if not new:
            break
        sets.append((new, done))
    return sets


def _bz_bound(k: int, rs, reached) -> int:
    """Brouwer-Zimmermann lower bound on the weight of any codeword not
    yet found, when matrix j (r_j new positions) has had every message of
    weight <= reached[j] enumerated: such a word has weight > reached[j]
    on that information set, so at least reached[j] + 1 - (k - r_j) on
    its r_j new positions, and those are disjoint between matrices."""
    return sum(max(0, w + 1 - (k - r)) for r, w in zip(rs, reached))


def _bz_worst_count(q: int, k: int, rs, lightest: int) -> int:
    """Messages Brouwer-Zimmermann enumerates at most: C(k, w) (q-1)^(w-1)
    per matrix for every w up to the first weight at which the lower
    bound reaches the lightest systematic row (or up to k, where the first
    matrix alone has covered every message)."""
    total = 0
    for w in range(1, k + 1):
        total += len(rs) * math.comb(k, w) * (q - 1) ** (w - 1)
        if _bz_bound(k, rs, [w] * len(rs)) >= lightest:
            break
    return total


def _bz_min(q: int, p: int, m: int, k: int, sets, add, support):
    """(d, messages enumerated) by Brouwer-Zimmermann.

    For w = 1, 2, ... each matrix in turn enumerates its messages of weight
    w whose first nonzero coefficient is 1 (scalar multiples weigh the
    same), depth first with one packed add per message; the c * g_a for
    c in GF(q)* come from a table built by adds of the X^t * g_a.  It stops
    as soon as the lightest word found meets the lower bound of
    `_bz_bound`, or when one matrix has covered every message.
    """
    rs = [r for r, _ in sets]
    reached = [0] * len(sets)
    best, enumerated = 1 << 62, 0
    tables = [None] * len(sets)
    for w in range(1, k + 1):
        for j, (_, words) in enumerate(sets):
            if w == 1:
                best = min(best, *(support(g).bit_count() for g in words[::m]))
            else:
                if tables[j] is None:
                    tables[j] = [_multiples(p, m, q, add, words[a * m:a * m + m])
                                 for a in range(k)]
                best = min(best, _weight_block(tables[j], w, add, support))
            enumerated += math.comb(k, w) * (q - 1) ** (w - 1)
            reached[j] = w
            if w == k or best <= _bz_bound(k, rs, reached):
                return best, enumerated


def _multiples(p: int, m: int, q: int, add, powers) -> list:
    """[c * g for c = 1 .. q-1] from powers = [X^t * g for t < m]: c takes
    the multiple of c - p^v and adds X^v * g, v the lowest nonzero base-p
    digit of c."""
    out = [0]
    for c in range(1, q):
        v = 0
        while not c // p ** v % p:
            v += 1
        out.append(add(out[c - p ** v], powers[v]))
    return out[1:]


def _weight_block(tables, w: int, add, support) -> int:
    """Lightest sum over all messages of weight w >= 2 whose first nonzero
    coefficient is 1, table a listing the nonzero multiples of row a."""
    k, c = len(tables), len(tables[0])
    flat = [x for row in tables for x in row]

    def descend(cur, start, depth):
        if depth == 1:
            return min(map(int.bit_count, map(support, map(
                add, itertools.repeat(cur), flat[start * c:]))))
        return min(descend(add(cur, x), a + 1, depth - 1)
                   for a in range(start, k - depth + 1) for x in tables[a])

    return min(descend(tables[a][0], a + 1, w - 1) for a in range(k - w + 1))


def _brouwer_zimmermann(view: LinearCodeView):
    """(worst-case count, search) for a code with k > 0, where search()
    runs Brouwer-Zimmermann and returns (d, messages enumerated).  The
    packing and the information sets are built here, before any
    enumeration."""
    f, k = view.field, view.k
    p, m = f.p, f.m
    bits, rows = _packed_rows(f, view.matrix)
    add, support = _slot_ops(p, m, view.n, bits)
    sets = _information_sets(p, m, view.n, bits, rows, add, support)
    lightest = min(support(g).bit_count() for _, words in sets
                   for g in words[::m])
    worst = _bz_worst_count(f.q, k, [r for r, _ in sets], lightest)
    return worst, lambda: _bz_min(f.q, p, m, k, sets, add, support)


def _distance_search(view: LinearCodeView, workers: int = 1,
                     limit: int = 1 << 26):
    """(d, messages enumerated, search name) for `min_distance`, which
    documents the choice between the two searches."""
    f = view.field
    if view.k == 0:
        return None, 0, "exhaustive"
    total = f.q ** view.k
    if total > limit:
        raise TooLarge(
            f"{f.q}^{view.k} = {total} messages exceeds the limit {limit}")
    worst, search = _brouwer_zimmermann(view)
    if worst < total - 1:
        return (*search(), "Brouwer-Zimmermann")
    return _exhaustive_min(view, workers), total - 1, "exhaustive"


def min_distance(view: LinearCodeView, workers: int = 1,
                 limit: int = 1 << 26):
    """Exact minimum distance of the code; None for the zero code (k = 0).

    Raises TooLarge when q^k exceeds `limit`, before any search; raise the
    limit explicitly to go bigger.  The rows are packed into ints once and
    the search is chosen from them before enumerating.  Brouwer-Zimmermann
    (Grassl, "Searching for linear codes with large minimum distance",
    2006) runs when its worst-case count is below the q^k - 1 nonzero
    messages; otherwise every message is walked, and with workers > 1 the
    walk is split across processes, at most one per CPU this process may
    run on.
    """
    return _distance_search(view, workers, limit)[0]


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def is_quasi_cyclic(view: LinearCodeView, ell: int) -> bool:
    """True when the code is closed under the shift by ell positions, i.e.
    the generator rows and their shifts together still have rank k."""
    if view.n % ell:
        raise ShapeMismatch(f"length {view.n} is not a multiple of {ell}")
    shifted = [row[-ell:] + row[:-ell] for row in view.matrix]
    return len(_rref(view.field, [*view.matrix, *shifted])[0]) == view.k


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
