"""Independent linear-algebra checks for the polynomial constructions.

Everything here works on plain generator matrices over GF(q): expanding a
polynomial basis into one, exact minimum distance (a walk over one message
per 1-dimensional subspace for tiny codes, Brouwer-Zimmermann for the rest,
which gets the shifts of its information sets for free on a quasi-cyclic
code once it has checked the closure) and the shift-closure test.
A `LinearCodeView` checks its rows and packs them into ints once,
position-major (`_layout`; `expand_to_linear` packs each basis row once,
rotates it and trusts the rows it built; a row whose diagonal has degree m
yields none and is never folded or packed).  One packed GF(p) row reduction
(`_systematic`, insertion into a reduced basis; XOR alone for p = 2)
gives its rank check and every information set; `is_quasi_cyclic` runs
its reduce step on each rotated row.  Both searches weigh y added to x
inline as its distance to -x (`_slot_ops`; it and `_reducer` are cached
per (p, m, n)); the walk and Brouwer-Zimmermann's row multiples take
their GF(p) spans from `_span`, and Brouwer-Zimmermann scans a weight
block's last two levels in a table of pair sums bounded by
`_EXPAND_LIMIT`.  The tests keep list-based references.  No
canonical-form machinery (no division, no gcd) is used, so this can be
ground truth for it.
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
from .field import Field, _integer, _positive
from .polyring import fold_mod_xm1
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
    on it.  The rows are packed once: `packed` holds (words, pivot slots)
    of their reduced row echelon form from `_systematic`, whose pivots
    the rank check counts and which `is_quasi_cyclic` and both searches
    reuse; it is not compared."""

    field: Field
    n: int
    k: int
    matrix: tuple
    ell: int | None
    packed: tuple = dataclasses.field(compare=False)

    def __init__(self, field: Field, matrix, n: int | None = None,
                 ell: int | None = None):
        index = operator.index
        try:  # an int passes on its type; _integer refuses a bool
            rows = tuple(tuple([c if type(c) is int else _integer("code", c, TypeError)
                                for c in row]) for row in matrix)
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
    """Fill in `view` from checked rows and their packing: row-reduce, check rank."""
    k = len(rows)
    _, words, slots = _systematic(field.p, field.m, n, packed) if packed else (0, [], [])
    if len(words) != k * field.m:
        raise RankMismatch(f"generator matrix has rank "
                           f"{len(words) // field.m}, not {k}")
    for name, value in zip(("field", "n", "k", "matrix", "ell", "packed"), (
            field, n, k, rows, ell, (tuple(words), tuple(slots)))):
        object.__setattr__(view, name, value)


# At most this many bits in the k*m packed words of an expanded generator
# matrix (k*n over GF(2)), which bounds a row reduction's adds: a [1024, 1023]
# code (GF(2), ell 1, row X + 1) is expanded in about 0.1 s (2 vCPU Xeon).
# A Brouwer-Zimmermann table of pair sums is built only within it too.
_EXPAND_LIMIT = 1 << 20


def expand_to_linear(b: RgbPotBasis) -> LinearCodeView:
    """Expand a canonical basis into a generator matrix over GF(q): the
    rows are the serializations of X^t * (row i) for 0 <= t < m - deg(g_ii),
    none for a diagonal of degree m such as X^m - 1 (that row is never
    folded or packed), coefficient e of entry j (folded mod X^m - 1)
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
    width = _layout(f.p, f.m)[1]
    if (size := k * n * f.m * width) > _EXPAND_LIMIT:
        raise TooLarge(f"a [{n}, {k}] generator matrix has {k * n} entries, "
                       f"{size} bits packed, over the limit {_EXPAND_LIMIT}")
    counts, firsts = [], []
    for i, entries in enumerate(b.matrix):
        if (count := m - entries[i].degree) > 0:  # a degree-m diagonal adds no row
            row = [0] * n
            for j, entry in enumerate(entries):
                codes = fold_mod_xm1(entry, m).coeffs
                row[j:ell * len(codes):ell] = codes
            counts.append(count)
            firsts.append(tuple(row))
    base = _packed_rows(f, firsts)
    rotate = _rotation(width, n, ell)
    rows, words = [], []
    for i, (row, count) in enumerate(zip(firsts, counts)):
        rows += (row[n - ell * t:] + row[:n - ell * t] for t in range(count))
        for t in range(count):  # X^t * row i: the t - 1 row's words rotated
            words += map(rotate, words[-f.m:]) if t else base[i * f.m:i * f.m + f.m]
    if len(rows) != k:
        raise RankMismatch(f"expanded {len(rows)} rows for stated dimension {k}")
    view = object.__new__(LinearCodeView)
    _settle(view, f, tuple(rows), n, ell, words)
    return view


# ---------------------------------------------------------------------------
# minimum distance on packed words: the exhaustive walk and Brouwer-Zimmermann
# ---------------------------------------------------------------------------

def _layout(p: int, m: int) -> tuple[int, int]:
    """(bits per digit slot, bits per position) of `_packed_rows`: a slot
    has room for 2p - 2 and a guard bit (1 bit for p = 2), and a position
    holds m slots and a guard bit above them (none for p = 2, m = 1)."""
    bits = 1 if p == 2 else (2 * p - 2).bit_length() + 1
    return bits, m * bits + (p > 2 or m > 1)


def _numeral(field: Field, t: int, c: int) -> str:
    """The binary numeral of the position `_packed_rows` packs for X^t * c."""
    (bits, width), p, x = _layout(field.p, field.m), field.p, field.mul(field.p ** t, c)
    return format(sum(x // p ** s % p << s * bits for s in range(field.m)), f"0{width}b")


@functools.lru_cache(maxsize=16)  # bounded: fields come from documents
def _numerals(field: Field) -> list:
    """numerals[t][c]: `_numeral(field, t, c)` as bytes, for q <= 256."""
    return [[_numeral(field, t, c).encode() for c in range(field.q)]
            for t in range(field.m)]


def _packed_rows(field: Field, rows) -> list[int]:
    """Pack the code as a GF(p)-linear code of dimension k*m, p the
    characteristic and m the extension degree, position-major.

    Generator row r becomes the m words X^t * r (t < m), so a message index
    read in base p names the same codeword as read in base q over the
    original rows.  Position i of a word takes the bits i*width ..
    i*width + width - 1 (`_layout`): its m digit slots, digit s from bit
    s*bits up, and the guard bit on top, which is 0.  When the codes fit
    in a byte (q <= 256), a word is one join of per-code numerals
    (`_numerals`); above that each position is formatted on its own.
    """
    if field.q > 256:
        return [int("".join([_numeral(field, t, c) for c in reversed(row)]), 2)
                for row in rows for t in range(field.m)]
    return [int(b"".join(map(numerals.__getitem__, reversed(row))), 2)
            for row in rows for numerals in _numerals(field)]


# Stateless word toolkits, built once per shape (p, m, n): at most 32 entries of
# a few masks of n*W bits each (`_layout`), n*W <= 2^20 for an expanded document.
@functools.lru_cache(maxsize=32)
def _slot_ops(p: int, m: int, n: int):
    """(low, guard, add, neg, lightest) on n-position words packed by
    `_packed_rows`.

    `add` is XOR for p = 2 and slot-parallel addition mod p otherwise,
    `neg` the slot-parallel negation (for odd p, neg(x, y) = y - x in one
    slot-parallel sum and fix-up).  A position of a word is below
    2^(width-1), so adding low = 2^(width-1) - 1 sets its guard bit iff it
    is nonzero: support(x) = (x + low) & guard has one bit per nonzero
    position (x itself for p = 2, m = 1, where low = 0), and its popcount
    is the Hamming weight.  Digits are below p, so the XOR of two words is
    0 exactly where their digits agree, and weight(x + y) = support(-x XOR
    y).bit_count(): `lightest(c, ys)`, the least weight of c XOR y over
    the words ys, weighs a scan inline.
    """
    bits, width = _layout(p, m)
    ones = ((1 << width * n) - 1) // ((1 << width) - 1)  # bit 0 of each position
    low, guard = ones * ((1 << width - 1) - 1), ones << width - 1
    if p == 2:
        add, neg = operator.xor, int
    else:
        digits = ones * (((1 << m * bits) - 1) // ((1 << bits) - 1))  # bit 0 of each slot
        top, all_p = bits - 1, digits * p
        fix, carry = digits * ((1 << top) - p), digits << top  # s + fix carries iff s >= p

        def add(x, y):
            s = x + y
            return s - (((s + fix) & carry) >> top) * p

        def neg(x, y=0):  # slot value y_s + p - x_s, then p folded to 0
            s = all_p - x + y
            return s - (((s + fix) & carry) >> top) * p
    return low, guard, add, neg, (
        (lambda c, ys: min([((c ^ y) + low & guard).bit_count() for y in ys])) if low
        else lambda c, ys: min(map(int.bit_count, map(operator.xor, itertools.repeat(c), ys))))


@functools.lru_cache(maxsize=32)  # per shape, as `_slot_ops`
def _reducer(p: int, m: int, n: int):
    """(minus, reduce, doubled) on n-position words packed by `_packed_rows`.

    minus(x, g, d, twos) = x - d * g for a slot value d: one add for d =
    p - 1 and d = 1 (`_slot_ops`' neg), else (p - d) * g summed from the
    words g, 2g, 4g, ... (doubled(g)): O(log p) adds however large p is.
    twos, if given, returns them (made once, on its first call), else they
    are made for the call.  reduce(x, basis, pivots) is x less d * g for
    each word g of a reduced basis, which maps g's pivot slot to g, d the
    digit of x there; `pivots` masks those slots.  Each g is 0 on the
    other pivot slots, so each d is read off x as it was, highest slot
    first, and only the nonzero ones cost an add: for p = 2 each is 1, and
    reduce XORs in g with no digit read."""
    bits, width = _layout(p, m)
    _, _, add, neg, _ = _slot_ops(p, m, n)

    def doubled(g, c=p - 1):  # g, 2g, 4g, ...: the words the bits of c pick
        return list(itertools.accumulate(range(c.bit_length() - 1), lambda y, _: add(y, y), initial=g))

    def minus(x, g, d, twos=None):
        if d == p - 1:  # every d for p = 2
            return add(x, g)
        if d == 1:
            return neg(g, x)
        c = p - d
        for i, y in enumerate(twos() if twos else doubled(g, c)):
            if c >> i & 1:
                x = add(x, y)
        return x

    def reduce(x, basis, pivots):
        hits = x & pivots
        while hits:
            b = hits.bit_length() - 1
            s = b - b % width % bits
            x, hits = minus(x, basis[s], x >> s & (1 << bits) - 1), hits & (1 << s) - 1
        return x

    def xor_reduce(x, basis, pivots):  # p = 2: each digit is a bit, each step an XOR
        hits = x & pivots
        while hits:
            s = hits.bit_length() - 1
            x, hits = x ^ basis[s], hits ^ 1 << s
        return x
    return minus, xor_reduce if p == 2 else reduce, doubled


def _systematic(p: int, m: int, n: int, rows, covered: int = 0):
    """(guard-bit mask of the new positions, words, pivot slots): the
    reduced row echelon form of words packed by `_packed_rows`, the only
    row reduction in this module, by inserting them one at a time into a
    reduced basis.  A word that `_reducer`'s reduce leaves nonzero pivots
    on its first nonzero slot, positions outside `covered` (a guard-bit
    mask like the result's) before covered ones, lowest first; it is
    scaled to 1 there and that slot is cleared from the earlier words:
    for p = 2 by XORing it into each word with that bit set, else by
    `_reducer`'s minus, from doublings of it formed at most once.
    The echelon form for that column order is unique, whatever the order
    of the rows, and the basis is sorted in it.  The packed rows span a
    GF(q)-linear space, even when they are dependent, so a position takes
    all m pivots or none and the GF(q) rank is len(words) // m.
    `words[a*m + t]` is X^t * g_a, g_a the codeword that is 1 on the a-th
    pivot position and 0 on the others; dependent rows are dropped.
    """
    bits, width = _layout(p, m)
    (minus, reduce, doubled), dmask = _reducer(p, m, n), (1 << bits) - 1
    outside = ~((covered >> width - 1) * ((1 << width) - 1))  # uncovered positions' bits
    basis, pivots = {}, 0
    for x in rows:
        if x := reduce(x, basis, pivots):
            low = x & outside or x
            b = (low & -low).bit_length() - 1
            s = b - b % width % bits
            if p == 2:  # x is 1 at bit s: XOR it into the words set there
                for t, g in basis.items():
                    if g >> s & 1:
                        basis[t] = g ^ x
            else:
                if (d := x >> s & dmask) > 1:  # x / d = 0 - (p - 1/d) * x
                    x = minus(0, x, p - pow(d, -1, p))
                # p = 3 clears with digits 1 and 2 alone, and building this
                # per pivot there slowed GF(3) and GF(9) searches by a fifth
                twos = functools.cache(functools.partial(doubled, x)) if p > 3 else None
                for t, g in basis.items():
                    if e := g >> s & dmask:
                        basis[t] = minus(g, x, e, twos)
            basis[s], pivots = x, pivots | dmask << s
    slots = sorted(basis, key=lambda s: (not outside >> s & 1, s))
    new = sum(1 << s + width - 1 for s in slots[::m] if outside >> s & 1)
    return new, [basis[s] for s in slots], slots


def _rotation(width: int, n: int, ell: int):
    """The map that moves position i of a packed word to i + ell mod n."""
    size, e = n * width, ell * width
    low = (1 << size - e) - 1
    return lambda x: (x & low) << e | x >> size - e


def _span(p: int, add, rows, words=(0,)) -> list:
    """`words`, 0 first, then their sums with every nonzero GF(p)
    combination of the rows, one add per new word: for each row r its
    multiples r, 2r, ..., (p-1)r come from one accumulate, then each of
    them plus each nonzero word before r's from one starmap.  From (0,)
    the second word is rows[0]."""
    span = list(words)
    for r in rows:
        multiples = list(itertools.accumulate(itertools.repeat(r, p - 1), add))
        span += [*multiples, *itertools.starmap(add, itertools.product(multiples, span[1:]))]
    return span


def _range_min(p: int, m: int, n: int, rows):
    """(lightest weight, messages walked) over the messages of a code
    packed by `_packed_rows` whose first nonzero coefficient is 1: one per
    1-dimensional subspace, as scalar multiples weigh the same.  For a
    from the last row g_a = rows[a*m] down, the walk weighs g_a plus each
    word of the `_span` of the rows after g_a's, q^(k-1-a) messages and
    (q^k - 1)/(q - 1) in all, in one `lightest` call against -g_a
    (weight(g_a + s) = support(-g_a XOR s), `_slot_ops`), then grows that
    span by g_a's m rows, except after g_a = rows[0]."""
    _, _, add, neg, lightest = _slot_ops(p, m, n)
    best, walked, span = 1 << 62, 0, [0]
    for i in range(len(rows) - m, -1, -m):  # i = a*m
        best, walked = min(best, lightest(neg(rows[i]), span)), walked + len(span)
        if i:
            span = _span(p, add, rows[i:i + m], span)
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
    covered every message.  Weight 1 takes the k rows g_a themselves;
    weight 2 builds the tables of their multiples, the one-level tail of
    `_weight_block`, and weight 3 the pair tail when its C(k, 2)(q - 1)^2
    words hold at most `_EXPAND_LIMIT` bits.  TooLarge is raised before a
    weight block that would take the count past `limit`, so before any
    table it would build.
    """
    f, n, k, ell = view.field, view.n, view.k, view.ell
    q, p, m = f.q, f.p, f.m
    rows, slots = view.packed
    width = _layout(p, m)[1]
    _, everywhere, add, neg, lightest = _slot_ops(p, m, n)
    closed = ell is not None and is_quasi_cyclic(view, ell)
    rotate = _rotation(width, n, ell) if closed else None
    # the first set is the view's packing, its positions those of its pivots
    new = sum(1 << (s + width - 1) for s in slots[::m])
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
        new, words, _ = _systematic(p, m, n, rows, covered)

    reached = [0] * len(sets)
    best, enumerated = 1 << 62, 0
    tables = [None] * len(sets)  # (multiples, tail) of each set
    pairs_fit = math.comb(k, 2) * (q - 1) ** 2 * n * width <= _EXPAND_LIMIT  # pair tail bits
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
                    multiples = [_span(p, add, words[a * m:a * m + m])[1:] for a in range(k)]
                    tables[j] = multiples, _tail(multiples, add, 1)
                elif v == 3 and pairs_fit:
                    tables[j] = tables[j][0], _tail(tables[j][0], add, 2)
                best = min(best, _weight_block(*tables[j], v, add, neg, lightest)
                           if v > 1 else lightest(0, words[::m]))
                enumerated += count
            reached[j] = w
            if w == k or best <= sum(c * max(0, v + 1 - (k - r))
                                     for (r, c, _), v in zip(sets, reached)):
                return best, enumerated


def _tail(multiples, add, depth: int) -> tuple:
    """(words, starts, depth): the sums of `depth` rows with nonzero
    coefficients, c * g_a for depth 1 and c * g_a + c' * g_b (a < b) for
    depth 2, multiples[a] listing the c * g_a, in the order of their first
    row a; words[starts[a]:] are those whose first row is a or later."""
    groups = multiples if depth == 1 else [
        [add(x, y) for b in range(a + 1, len(multiples)) for x in xs for y in multiples[b]]
        for a, xs in enumerate(multiples)]
    return [x for g in groups for x in g], [0, *itertools.accumulate(map(len, groups))], depth


def _weight_block(multiples, tail, w: int, add, neg, lightest) -> int:
    """Lightest sum over all messages of weight w >= 2 whose first nonzero
    coefficient is 1, multiples[a] listing the nonzero multiples of row a.

    The descent adds one row multiple per level for the first w - depth
    rows (the first row's coefficient is 1), depth that of the `_tail`:
    2 for the pair table, which Brouwer-Zimmermann builds for w >= 3 when
    it fits in `_EXPAND_LIMIT` bits, else 1.  Each such prefix then scans
    the tail words whose rows all come after its own, one slice, and
    weighs each word y inline as weight(prefix + y) = support(-prefix XOR
    y).bit_count() (`_slot_ops`' `lightest`)."""
    words, starts, depth = tail
    k = len(multiples)

    def descend(cur, start, left):
        if left == depth:
            return lightest(neg(cur), words[starts[start]:])
        return min(descend(add(cur, x), a + 1, left - 1)
                   for a in range(start, k - left + 1) for x in multiples[a])

    return min(descend(multiples[a][0], a + 1, w - 1) for a in range(k - w + 1))


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
        return (*_range_min(f.p, f.m, view.n, view.packed[0]), "exhaustive")
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
    reduction's closure test, each set also brings its disjoint
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
    g_a of the view's packed echelon form, rotated by ell positions,
    reduces to zero against it by `_reducer`'s reduce, the step that
    builds it (the rotations of X^t * g_a then lie in the code too, as it
    is GF(q)-linear)."""
    ell = _check_ell(view.n, ell)
    f, n = view.field, view.n
    words, slots = view.packed
    if not words:  # the zero code is closed, at n = 0 too, where nothing rotates
        return True
    bits, width = _layout(f.p, f.m)
    reduce, rotate = _reducer(f.p, f.m, n)[1], _rotation(width, n, ell)
    basis, pivots = dict(zip(slots, words)), sum((1 << bits) - 1 << s for s in slots)
    return not any(reduce(rotate(g), basis, pivots) for g in words[::f.m])
