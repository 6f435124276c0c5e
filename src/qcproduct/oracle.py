"""Independent linear-algebra checks for the polynomial constructions.

Everything here works on plain generator matrices over GF(q): expanding a
polynomial basis into one, exact minimum distance (a walk over one message
per 1-dimensional subspace for tiny codes, Brouwer-Zimmermann for the rest,
which gets the shifts of its information sets for free on a quasi-cyclic
code once it has checked the closure) and the shift-closure test.
A `LinearCodeView` checks its rows and packs them into ints once, by byte
tables for q <= 256 (`expand_to_linear` packs each basis row once, rotates
it and trusts the rows it built); one packed GF(p) elimination serves its rank
check, `is_quasi_cyclic` and both searches, and Brouwer-Zimmermann weighs a
word in one call.  The tests keep list-based references.  No canonical-form
machinery (no division, no gcd) is used, so this can be ground truth for it.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator

from .errors import (
    FieldMismatch,
    RankMismatch,
    ShapeMismatch,
    TooLarge,
)
from .field import Field
from .polyring import _integer, _positive, fold_mod_xm1
from .qcmodule import RgbPotBasis, dimension

__all__ = [
    "LinearCodeView",
    "expand_to_linear",
    "min_distance",
    "is_quasi_cyclic",
]


def _check_ell(n: int, ell) -> int:
    """ell as an int; ShapeMismatch unless it is an integer >= 1 dividing n."""
    e = _positive("ell", ell, ShapeMismatch)
    if n % e:
        raise ShapeMismatch(f"ell = {ell!r} does not divide the length {n}")
    return e


@dataclasses.dataclass(frozen=True, slots=True, init=False, repr=False)
class LinearCodeView:
    """An [n, k] linear code given by a full-rank k x n generator matrix of
    field element codes, held as a tuple of k row tuples of ints.  The
    integer length n is read from the rows; a matrix without rows must
    state it.  `ell`, when given, claims that the code is closed under the
    shift by ell positions; `min_distance` checks the claim before relying
    on it.  The rows are packed once: `packed` holds (bits, words, pivot
    slots) of their systematic matrix from `_systematic`, which the rank
    check counts and `is_quasi_cyclic` and both searches reuse; it is not
    compared."""

    field: Field
    n: int
    k: int
    matrix: tuple
    ell: int | None
    packed: tuple = dataclasses.field(compare=False)

    def __init__(self, field: Field, matrix, n: int | None = None,
                 ell: int | None = None):
        index = operator.index
        try:
            rows = tuple(tuple([index(c) for c in row]) for row in matrix)
        except TypeError:
            raise ShapeMismatch(
                "generator matrix must be rows of integer codes") from None
        try:
            n = index(len(rows[0]) if n is None and rows else n)
        except TypeError:
            n = -1
        if n < 0 or any(len(row) != n for row in rows):
            raise ShapeMismatch("rows must share one length n (give n if no rows)")
        if n and rows and not (
                0 <= min(map(min, rows)) <= max(map(max, rows)) < field.q):
            raise FieldMismatch("matrix entries outside the field's code range")
        ell = None if ell is None else _check_ell(n, ell)
        _settle(self, field, rows, n, ell, _packed_rows(field, rows if n else ()))

    def __repr__(self):
        return f"LinearCodeView[{self.n}, {self.k}] over {self.field!r}"


def _settle(view: LinearCodeView, field: Field, rows: tuple, n: int,
            ell: int | None, packed: tuple) -> None:
    """Fill in `view` from checked rows and their packing: eliminate, check rank."""
    k, bits = len(rows), packed[0]
    _, words, slots = _systematic(field.p, field.m, n, *packed)
    if len(words) != k * field.m:
        raise RankMismatch(f"generator matrix has rank "
                           f"{len(words) // field.m}, not {k}")
    for name, value in zip(("field", "n", "k", "matrix", "ell", "packed"), (
            field, n, k, rows, ell, (bits, tuple(words), tuple(slots)))):
        object.__setattr__(view, name, value)


# At most this many bits in the k*m packed words of an expanded generator
# matrix (k*n over GF(2)), which bounds an elimination's adds: a [1024, 1023]
# code (GF(2), ell 1, row X + 1) is verified in about 0.9 s (2 vCPU Xeon).
_EXPAND_LIMIT = 1 << 20


def expand_to_linear(b: RgbPotBasis) -> LinearCodeView:
    """Expand a canonical basis into a generator matrix over GF(q): the
    rows are the serializations of X^t * (row i) for
    0 <= t < m - deg(g_ii), coefficient e of entry j (folded mod X^m - 1)
    landing on position ell*e + j, so X^t * (row i) is the t = 0 row
    rotated right by t*ell positions.  Only the t = 0 rows are packed; the
    packed words of every other row are those rotated by `_rotation`, so
    the view equals the one `LinearCodeView` builds from the same rows.
    The rank check then verifies independently that the basis dimension
    is honest.  The view's `ell` is the basis's: the module is closed
    under multiplication by X.  TooLarge is raised before any row is
    built when the packed words would hold more than 2^20 bits (k x n
    entries over GF(2)).  `_settle` trusts the rows built here."""
    k = dimension(b)  # raises on a zero diagonal entry before any row is built
    f, ell, m = b.field, b.ell, b.m
    n = ell * m
    if (size := k * n * f.m ** 2 * _slot_bits(f.p)) > _EXPAND_LIMIT:
        raise TooLarge(f"a [{n}, {k}] generator matrix has {k * n} entries, "
                       f"{size} bits packed, over the limit {_EXPAND_LIMIT}")
    firsts = []
    for entries in b.matrix:
        row = [0] * n
        for j, entry in enumerate(entries):
            codes = fold_mod_xm1(entry, m).coeffs
            row[j:ell * len(codes):ell] = codes
        firsts.append(tuple(row))
    bits, base = _packed_rows(f, firsts)
    rotate = _rotation(f.m, n, bits, ell)
    rows, words = [], []
    for i, (row, entries) in enumerate(zip(firsts, b.matrix)):
        count = m - entries[i].degree
        rows += (row[n - ell * t:] + row[:n - ell * t] for t in range(count))
        for t in range(count):  # X^t * row i: the t - 1 row's words rotated
            words += map(rotate, words[-f.m:]) if t else base[i * f.m:i * f.m + f.m]
    if len(rows) != k:
        raise RankMismatch(f"expanded {len(rows)} rows for stated dimension {k}")
    view = object.__new__(LinearCodeView)
    _settle(view, f, tuple(rows), n, ell, (bits, words))
    return view


# ---------------------------------------------------------------------------
# minimum distance on packed words: the exhaustive walk and Brouwer-Zimmermann
# ---------------------------------------------------------------------------

def _slot_bits(p: int) -> int:
    """Bits per digit slot: 1 for p = 2, else room for 2p - 2 and a guard bit."""
    return 1 if p == 2 else (2 * p - 2).bit_length() + 1


@functools.lru_cache(maxsize=16)  # bounded: fields come from documents
def _digit_tables(field: Field, bits: int) -> list:
    """tables[t][j][s]: the `bytes.translate` table taking each code of a
    field with q <= 256 to bit bits-1-j, as b"0" or b"1", of digit m-1-s
    of X^t times the code."""
    p, m = field.p, field.m
    return [[[bytes(b"01"[x // p ** s % p >> bits - 1 - j & 1] for x in prod)
              .ljust(256, b"0") for s in reversed(range(m))] for j in range(bits)]
            for prod in ([field.mul(p ** t, c) for c in range(field.q)]
                         for t in range(m))]


def _packed_rows(field: Field, rows) -> tuple[int, list[int]]:
    """Pack the code as a GF(p)-linear code of dimension k*m, p the
    characteristic and m the extension degree; returns (bits, rows).

    Generator row r becomes the m rows X^t * r (t < m), so a message index
    read in base p names the same codeword as read in base q over the
    original rows.  Each row is one integer: digit t of position i sits in
    slot t*n + i of `_slot_bits` bits.  When the codes fit in a byte (q <=
    256), bit j of every slot of its binary numeral is one `bytes.translate`
    per digit plane (`_digit_tables`) and one strided copy; above that each
    digit is formatted on its own.
    """
    p, m = field.p, field.m
    bits = _slot_bits(p)
    if field.q > 256:
        return bits, [int("".join([format(field.mul(p ** t, c) // p ** s % p, f"0{bits}b")
                                   for s in reversed(range(m)) for c in reversed(row)]), 2)
                      for row in rows for t in range(m)]
    words = []
    for row in rows:
        rev = bytes(row[::-1])
        for planes in _digit_tables(field, bits):
            numeral = bytearray(len(rev) * m * bits)
            for j, plane in enumerate(planes):
                numeral[j::bits] = b"".join([rev.translate(t) for t in plane])
            words.append(int(numeral, 2))
    return bits, words


def _slot_ops(p: int, m: int, n: int, bits: int):
    """(add, support, weigh) on words packed by `_packed_rows`.

    `add` is XOR for p = 2 and slot-parallel addition mod p otherwise.
    `support` sets the guard bit of every nonzero slot and ORs each
    position's m slots onto those of digit 0, so bit i*bits + bits-1 is set
    iff position i is nonzero: its popcount is the Hamming weight.  Over
    GF(2) the support is the word itself.  `weigh(x, y)` is the Hamming
    weight of x + y.
    """
    if p == 2 and m == 1:
        return operator.xor, int, lambda x, y: (x ^ y).bit_count()
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

    def weigh(x, y):  # support(add(x, y)).bit_count() in one call
        s = x ^ y if p == 2 else (t := x + y) - (((t + fix) & guard) >> top) * p
        g = (s + low) & guard
        for sh in shifts:
            g |= g >> sh
        return (g & mask).bit_count()

    return add, support, weigh


class _Negatives(dict):
    """neg[d] = -d * x = (p - d) * x for a packed word x: x for d = p - 1,
    else formed by doubling when slot value d is first looked up, O(log p)
    adds for each value that occurs, however large p is."""

    def __init__(self, p: int, add, x: int):
        self.p, self.add, self.x, self[0], self[p - 1] = p, add, x, 0, x

    def __missing__(self, d: int) -> int:
        out, x, c = 0, self.x, self.p - d
        while c:
            out, x, c = self.add(out, x) if c & 1 else out, self.add(x, x), c >> 1
        return self.setdefault(d, out)


def _systematic(p: int, m: int, n: int, bits: int, rows, covered: int = 0):
    """(guard-bit mask of the new positions, words, pivot slots): GF(p)
    Gauss-Jordan elimination of words packed by `_packed_rows`, the only
    row reduction in this module.

    It pivots on every slot of one position at a time, lowest position
    first: first on positions outside `covered` (a guard-bit mask like the
    result's), then on covered ones.  The packed rows span a GF(q)-linear
    space, even when they are dependent, so a position takes all m pivots
    or none and the GF(q) rank is len(words) // m.  `words[a*m + t]` is
    X^t * g_a, g_a the codeword that is 1 on the a-th pivot position and 0
    on the others; dependent rows are dropped.  A row holding d in the
    pivot slot gets -d * pivot added (`_Negatives`; (0, pivot) for p = 2).
    """
    add, support, _ = _slot_ops(p, m, n, bits)
    top, dmask = bits - 1, (1 << bits) - 1
    everywhere = ((1 << n * bits) - 1) // dmask << top
    free, done, slots, new = list(rows), [], [], 0
    for allowed in (everywhere ^ covered, everywhere):
        while free:
            # a slot of the OR is nonzero iff it is in some free row
            cand = support(functools.reduce(operator.or_, free, 0)) & allowed
            if not cand:
                break
            low = (cand & -cand).bit_length() - 1
            new |= (1 << low) & ~covered
            for t in range(m):
                shift = (t * n + low // bits) * bits
                piv = next(row for row in free if row >> shift & dmask)
                free.remove(piv)
                inv = pow(piv >> shift & dmask, -1, p)
                piv = piv if inv == 1 else _Negatives(p, add, piv)[p - inv]
                neg = (0, piv) if p == 2 else _Negatives(p, add, piv)
                free = [add(row, neg[row >> shift & dmask]) for row in free]
                done = [add(row, neg[row >> shift & dmask]) for row in done]
                done.append(piv)
                slots.append(shift)
    return new, done, slots


def _rotation(m: int, n: int, bits: int, ell: int):
    """The map that moves position i of a packed word to i + ell mod n, in
    every digit slot."""
    width, e = n * bits, ell * bits
    low = ((1 << width - e) - 1) * (((1 << width * m) - 1) // ((1 << width) - 1))
    return lambda x: (x & low) << e | (x ^ (x & low)) >> (width - e)


def _steps(p: int, add, rows) -> list:
    """The words a base-p count over the rows adds, for c = 1 ..
    p^len(rows) - 1 in order: going from c-1 to c raises digit v = v_p(c)
    by one and wraps the digits below it from p-1 to 0; each of those adds
    its row once, so the step adds the prefix sum of rows 0..v."""
    prefix = list(itertools.accumulate(rows, add))
    ruler = []  # v_p(c)
    for v in range(len(rows)):
        ruler = (ruler + [v]) * (p - 1) + ruler
    return list(map(prefix.__getitem__, ruler))


def _range_min(p: int, m: int, n: int, bits: int, rows):
    """(lightest weight, messages walked) over the messages of a code
    packed by `_packed_rows` whose first nonzero coefficient is 1: one per
    1-dimensional subspace, as scalar multiples weigh the same.  For each
    a the walk counts from rows[a*m] = g_a over the rows after g_a's:
    q^(k-1-a) messages, (q^k - 1)/(q - 1) in all.  Over GF(2) it is one
    XOR and one popcount per codeword."""
    add, support, _ = _slot_ops(p, m, n, bits)
    best, walked = 1 << 62, 0
    for a in range(0, len(rows), m):
        cur, steps = rows[a], _steps(p, add, rows[a + m:])
        walked += len(steps) + 1
        best = min(best, support(cur).bit_count())
        if p == 2 and m == 1:
            for x in steps:
                cur ^= x
                w = cur.bit_count()
                if w < best:
                    best = w
            continue
        for x in steps:
            cur = add(cur, x)
            w = support(cur).bit_count()
            if w < best:
                best = w
    return best, walked


def _brouwer_zimmermann(view: LinearCodeView, limit: int):
    """(d, messages enumerated) by Brouwer-Zimmermann on a view of
    dimension k.

    The systematic matrix of the first set is the view's packing; each
    later one comes from `_systematic`, pivoting first on the positions no
    earlier set covers (r of them).  If the view's ell passes
    `is_quasi_cyclic`, every shift of a set is an information set whose
    light words are the set's own, shifted.  Each set then also
    covers the shifts of its r new positions by multiples of ell that miss
    everything covered so far; a shift is never enumerated.  The next set
    is built while some position is uncovered.

    For w = 1, 2, ... each set whose term max(0, w + 1 - (k - r)) of the
    lower bound is positive enumerates its messages of every weight up to
    w whose first nonzero coefficient is 1 (scalar multiples weigh the
    same), depth first with one packed add per message.  A codeword lighter
    than every word found weighs more than w on each set and shift, so at
    least that term on its r positions, and those are disjoint: the search
    stops once the lightest word found is at most the sum of the terms,
    times one plus the shifts of each set, or when the first set has
    covered every message.  Weight 1 takes the k rows g_a themselves, and
    weight 2 builds the tables of their multiples.  TooLarge is raised
    before a weight block that would take the count past `limit`.
    """
    f, n, k, ell = view.field, view.n, view.k, view.ell
    q, p, m = f.q, f.p, f.m
    bits, rows, slots = view.packed
    add, support, weigh = _slot_ops(p, m, n, bits)
    everywhere = ((1 << n * bits) - 1) // ((1 << bits) - 1) << bits - 1
    closed = ell is not None and is_quasi_cyclic(view, ell)
    rotate = _rotation(m, n, bits, ell) if closed else None
    # the first set is the view's packing, its positions those of its pivots
    new = sum(1 << (s + bits - 1) for s in slots[::m])
    covered, sets, words = 0, [], rows  # sets: (r, 1 + shifts, words)
    while new:
        covered, x, copies = covered | new, new, 1
        for _ in range(n // ell - 1 if closed else 0):
            x = rotate(x)
            if not x & covered:
                covered, copies = covered | x, copies + 1
        sets.append((new.bit_count(), copies, words))
        if covered == everywhere:
            break
        new, words, _ = _systematic(p, m, n, bits, rows, covered)

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
                if v == 2:  # c * g_a for c = 1 .. q-1
                    tables[j] = [list(itertools.accumulate(_steps(
                        p, add, words[a * m:a * m + m]), add)) for a in range(k)]
                best = min(best, _weight_block(tables[j], v, add, weigh) if v > 1
                           else min(map(int.bit_count, map(support, words[::m]))))
                enumerated += count
            reached[j] = w
            if w == k or best <= sum(c * max(0, v + 1 - (k - r))
                                     for (r, c, _), v in zip(sets, reached)):
                return best, enumerated


def _weight_block(tables, w: int, add, weigh) -> int:
    """Lightest sum over all messages of weight w >= 2 whose first nonzero
    coefficient is 1, table a listing the nonzero multiples of row a.  The
    last level is one `weigh` per word, or over GF(2) C-level XOR and popcount."""
    k, c = len(tables), len(tables[0])
    flat = [x for row in tables for x in row]

    def descend(cur, start, depth):
        if depth == 1:
            return min(map(weigh, itertools.repeat(cur), flat[start * c:]) if c > 1
                       else map(int.bit_count, map(add, itertools.repeat(cur), flat[start:])))
        return min(descend(add(cur, x), a + 1, depth - 1)
                   for a in range(start, k - depth + 1) for x in tables[a])

    return min(descend(tables[a][0], a + 1, w - 1) for a in range(k - w + 1))


# Codes with at most this many messages q^k are walked.  The summed search
# time over the mindist benchmark's codes was flat from 2^9 to 2^13 while the
# walk still took every message; it reports the plain count (q^k - 1)/(q - 1).
_WALK_MAX = 1 << 10

# The default bound on the messages either search enumerates, and the CLI's
# `--limit`, sized to seconds: the [102, 18] worked example read over GF(7)
# is refused after 2.4 s (2 vCPU Xeon), where 2^24 let it run 11 s to d.
_MESSAGE_LIMIT = 1 << 22


def _distance_search(view: LinearCodeView, limit: int = _MESSAGE_LIMIT):
    """(d, messages the search walked, search name) for `min_distance`,
    which documents the rule that picks the search."""
    limit = _integer("limit", limit, TooLarge)
    f, k = view.field, view.k
    if k == 0:
        return None, 0, "exhaustive"
    total = f.q ** k
    if total <= _WALK_MAX:
        if (count := (total - 1) // (f.q - 1)) > limit:
            raise TooLarge(f"({f.q}^{k} - 1)/({f.q} - 1) = {count} messages "
                           f"exceeds the limit {limit}")
        return (*_range_min(f.p, f.m, view.n, *view.packed[:2]), "exhaustive")
    return (*_brouwer_zimmermann(view, limit), "Brouwer-Zimmermann")


def min_distance(view: LinearCodeView, workers: int = 1,
                 limit: int = _MESSAGE_LIMIT):
    """Exact minimum distance of the code; None for the zero code (k = 0).

    Both searches start from the view's packing (rotated words of its
    first rows, for a view from `expand_to_linear`), the systematic matrix
    its rank check built; nothing is packed again.  A code with q^k <=
    2^10 messages is walked, one message per 1-dimensional subspace; any
    larger one runs
    Brouwer-Zimmermann (Grassl, "Searching for linear codes with large
    minimum distance", 2006) on greedily disjoint information sets.  When
    the view has an `ell` that passes `is_quasi_cyclic`, the same
    elimination's closure test, each set also brings its disjoint
    shifts by multiples of ell, which raise the lower bound without being
    enumerated; a set is enumerated only once its term of the bound is
    positive.  The search stops once that bound meets the lightest word
    found.  `limit` bounds the messages enumerated: TooLarge is raised
    before the walk when (q^k - 1)/(q - 1) exceeds it, and before a weight
    block that would take Brouwer-Zimmermann's count past it.  `workers`
    is ignored until the benchmark stops passing it.
    """
    return _distance_search(view, limit)[0]


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def is_quasi_cyclic(view: LinearCodeView, ell: int) -> bool:
    """True when the code is closed under the shift by ell positions: each
    g_a of the view's packed systematic matrix, rotated by ell positions,
    reduces to zero against that matrix (the rotations of X^t * g_a then
    lie in the code too, as it is GF(q)-linear)."""
    ell = _check_ell(view.n, ell)
    f, n = view.field, view.n
    bits, words, slots = view.packed
    if not words:  # the zero code
        return True
    add = _slot_ops(f.p, f.m, n, bits)[0]
    rotate, dmask = _rotation(f.m, n, bits, ell), (1 << bits) - 1
    pivots = [((0, g) if f.p == 2 else _Negatives(f.p, add, g), s)
              for g, s in zip(words, slots)]
    return not any(functools.reduce(
        lambda y, ps: add(y, ps[0][y >> ps[1] & dmask]), pivots, rotate(g))
        for g in words[::f.m])
