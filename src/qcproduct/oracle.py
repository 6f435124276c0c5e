"""Independent linear-algebra checks for the polynomial constructions.

Everything here works on plain generator matrices over GF(q): expanding a
polynomial basis into one, exact minimum distance (a walk over every message
for tiny codes, Brouwer-Zimmermann for the rest, which gets the shifts of
its information sets for free on a quasi-cyclic code once it has checked
the closure), shift-closure and membership tests.  These routines
deliberately avoid the canonical-form machinery (no division, no gcd) so
they can serve as ground truth for it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
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
    length n is read from the rows; a matrix without rows must state it.
    `ell`, when given, claims that the code is closed under the shift by
    ell positions; `min_distance` checks the claim before relying on it."""

    field: Field
    n: int
    k: int
    matrix: tuple
    ell: int | None

    def __init__(self, field: Field, matrix, n: int | None = None,
                 ell: int | None = None):
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
        if ell is not None and (index(ell) < 1 or n % ell):
            raise ShapeMismatch(f"length {n} is not a multiple of ell = {ell}")
        k = len(rows)
        rank = len(_rref(field, rows)[0])
        if rank != k:
            raise RankMismatch(f"generator matrix has rank {rank}, not {k}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "matrix", rows)
        object.__setattr__(self, "ell", ell)

    def __repr__(self):
        return f"LinearCodeView[{self.n}, {self.k}] over {self.field!r}"


def expand_to_linear(b: RgbPotBasis) -> LinearCodeView:
    """Expand a canonical basis into a generator matrix over GF(q): the
    rows are the serializations of X^t * (row i) for
    0 <= t < m - deg(g_ii), coefficient e of entry j landing on position
    ell*e + j.  The rank check in LinearCodeView then verifies
    independently that the basis dimension is honest.  The view's `ell` is
    the basis's: the module is closed under multiplication by X."""
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
    return LinearCodeView(b.field, rows, ell * m, ell)


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


def _range_min(p: int, m: int, n: int, bits: int, rows) -> int:
    """Minimum Hamming weight over every nonzero message of a code packed
    by `_packed_rows`, message index idx read as base-p digits over the
    rows.

    Going from idx-1 to idx raises digit v = v_p(idx) by one and wraps the
    digits below it from p-1 to 0; each of those adds its row once, so the
    step adds the precomputed prefix sum of rows 0..v.  Over GF(2) it is
    one XOR and one popcount per codeword.
    """
    add, support = _slot_ops(p, m, n, bits)
    prefix = list(itertools.accumulate(rows, add))
    total = p ** len(rows)
    cur, best = 0, 1 << 62
    if p == 2 and m == 1:
        for idx in range(1, total):
            cur ^= prefix[(idx & -idx).bit_length() - 1]
            w = cur.bit_count()
            if w < best:
                best = w
        return best
    for idx in range(1, total):
        v, i = 0, idx
        while not i % p:
            i //= p
            v += 1
        cur = add(cur, prefix[v])
        w = support(cur).bit_count()
        if w < best:
            best = w
    return best


def _brouwer_zimmermann(q: int, p: int, m: int, n: int, bits: int, rows,
                        ell: int | None, limit: int):
    """(d, messages enumerated) by Brouwer-Zimmermann on a code of
    dimension k packed by `_packed_rows`, ell a claimed quasi-cyclic index
    or None.

    Each systematic matrix comes from GF(p) row reduction of the k*m packed
    rows, pivoting on every slot of one position at a time, lowest position
    first: first on positions no earlier set covers (r of them), then on
    covered ones.  Because the code is GF(q)-linear, a position takes all m
    pivots or none, and the row pivoted on digit t of the a-th position is
    X^t * g_a, g_a the codeword that is 1 there and 0 on the rest of the
    information set; `words[a*m + t]` holds it.  If every g_a of the first
    matrix, rotated by ell positions, reduces to zero against that matrix,
    the code is closed under the shift, so every shift of a set is an
    information set whose light words are the set's own, shifted.  Each set
    then also covers the shifts of its r new positions by multiples of ell
    that miss everything covered so far; a shift is never enumerated.  The
    next set is built while some position is uncovered.

    For w = 1, 2, ... each set whose term max(0, w + 1 - (k - r)) of the
    lower bound is positive enumerates its messages of every weight up to
    w whose first nonzero coefficient is 1 (scalar multiples weigh the
    same), depth first with one packed add per message.  A codeword lighter
    than every word found weighs more than w on each set and shift, so at
    least that term on its r positions, and those are disjoint: the search
    stops once the lightest word found is at most the sum of the terms,
    times one plus the shifts of each set, or when the first set has
    covered every message.  TooLarge is raised before a weight block that
    would take the count enumerated past `limit`.
    """
    add, support = _slot_ops(p, m, n, bits)
    top, dmask, km, k = bits - 1, (1 << bits) - 1, len(rows), len(rows) // m
    everywhere = sum(1 << (i * bits + top) for i in range(n))

    def clear(row, piv, shift):
        """row less the multiple of piv that zeroes its slot at shift"""
        d = row >> shift & dmask
        return add(row, _times(add, piv, p - d)) if d else row

    def systematic(uncovered):
        """(guard-bit mask of the new positions, words, pivot slots)"""
        free, done, slots, new = list(rows), [], [], 0
        for allowed in (uncovered, everywhere):
            while len(done) < km:
                # a slot of the OR is nonzero iff it is in some free row
                cand = support(functools.reduce(operator.or_, free, 0)) & allowed
                if not cand:
                    break
                low = (cand & -cand).bit_length() - 1
                new |= (1 << low) & uncovered
                for t in range(m):
                    shift = (t * n + low // bits) * bits
                    piv = next(row for row in free if row >> shift & dmask)
                    free.remove(piv)
                    piv = _times(add, piv, pow(piv >> shift & dmask, -1, p))
                    free = [clear(row, piv, shift) for row in free]
                    done = [clear(row, piv, shift) for row in done]
                    done.append(piv)
                    slots.append(shift)
        return new, done, slots

    def rotate(x):
        """x with position i moved to i + ell mod n, in every digit slot"""
        return (x & low_part) << e | (x ^ (x & low_part)) >> (width - e)

    covered, sets, shifts = 0, [], 0  # sets: (r, 1 + shifts, words)
    while covered != everywhere:
        new, words, slots = systematic(everywhere ^ covered)
        if not new:
            break
        if not sets and ell:
            width, e = n * bits, ell * bits
            low_part = ((1 << width - e) - 1) * (((1 << width * m) - 1)
                                                 // ((1 << width) - 1))
            closed = not any(functools.reduce(
                lambda y, ps: clear(y, *ps), zip(words, slots), rotate(g))
                for g in words[::m])
            shifts = n // ell - 1 if closed else 0
        covered, x, copies = covered | new, new, 1
        for _ in range(shifts):
            x = rotate(x)
            if not x & covered:
                covered, copies = covered | x, copies + 1
        sets.append((new.bit_count(), copies, words))

    reached = [0] * len(sets)
    best, enumerated = 1 << 62, 0
    tables = [None] * len(sets)
    for w in range(1, k + 1):
        for j, (r, _, words) in enumerate(sets):
            if w < k - r:  # its term of the bound is still 0
                continue
            for v in range(reached[j] + 1, w + 1):
                count = math.comb(k, v) * (q - 1) ** (v - 1)
                if enumerated + count > limit:
                    raise TooLarge(f"Brouwer-Zimmermann would enumerate more "
                                   f"than the limit of {limit} messages")
                if v == 1:
                    tables[j] = [_multiples(p, m, q, add, words[a * m:a * m + m])
                                 for a in range(k)]
                best = min(best, _weight_block(tables[j], v, add, support))
                enumerated += count
            reached[j] = w
            if w == k or best <= sum(c * max(0, v + 1 - (k - r))
                                     for (r, c, _), v in zip(sets, reached)):
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
    """Lightest sum over all messages of weight w whose first nonzero
    coefficient is 1, table a listing the nonzero multiples of row a."""
    k, c = len(tables), len(tables[0])
    flat = [x for row in tables for x in row]

    def descend(cur, start, depth):
        if depth == 1:
            return min(map(int.bit_count, map(support, map(
                add, itertools.repeat(cur), flat[start * c:]))))
        return min(descend(add(cur, x), a + 1, depth - 1)
                   for a in range(start, k - depth + 1) for x in tables[a])

    if w == 1:  # every multiple of every row: k * (q - 1) words
        return descend(0, 0, 1)
    return min(descend(tables[a][0], a + 1, w - 1) for a in range(k - w + 1))


# Codes with at most this many messages q^k are walked.  On codes this small
# the walk and Brouwer-Zimmermann take about the same time (the summed search
# time over the mindist benchmark's codes is flat from 2^9 to 2^13), and the
# walk reports the plain count q^k - 1.
_WALK_MAX = 1 << 10


def _distance_search(view: LinearCodeView, limit: int = 1 << 26):
    """(d, messages enumerated, search name) for `min_distance`, which
    documents the rule that picks the search."""
    f, k, n = view.field, view.k, view.n
    if k == 0:
        return None, 0, "exhaustive"
    total = f.q ** k
    if total <= _WALK_MAX:
        if total - 1 > limit:
            raise TooLarge(f"{f.q}^{k} - 1 = {total - 1} messages exceeds "
                           f"the limit {limit}")
        return (_range_min(f.p, f.m, n, *_packed_rows(f, view.matrix)),
                total - 1, "exhaustive")
    return (*_brouwer_zimmermann(f.q, f.p, f.m, n, *_packed_rows(f, view.matrix),
                                 view.ell, limit), "Brouwer-Zimmermann")


def min_distance(view: LinearCodeView, workers: int = 1,
                 limit: int = 1 << 26):
    """Exact minimum distance of the code; None for the zero code (k = 0).

    The rows are packed into ints once.  A code with q^k <= 2^10 messages
    is walked message by message; any larger one runs Brouwer-Zimmermann
    (Grassl, "Searching for linear codes with large minimum distance",
    2006) on greedily disjoint information sets.  When the view has an
    `ell` that passes the closure check, each set also brings its disjoint
    shifts by multiples of ell, which raise the lower bound without being
    enumerated; a set is enumerated only once its term of the bound is
    positive.  The search stops once that bound meets the lightest word
    found.  `limit` bounds the messages enumerated: TooLarge is raised
    before the walk when q^k - 1 exceeds it, and before a weight block that
    would take Brouwer-Zimmermann's count past it.  Everything runs in this
    process: `workers` is ignored until the benchmark stops passing it.
    """
    return _distance_search(view, limit)[0]


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
