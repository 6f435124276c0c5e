"""Packing, elimination and the exhaustive walk on plain loops: the
tests' references for `_packed_rows`, `_systematic` and `_range_min` in
`qcproduct.oracle`.

`packed_rows` reads each code's base-p digits one code and one digit at a
time into the position-major layout; `systematic` forms the multiple of
the pivot that clears a row by doubling, once for every row it clears;
`range_min` walks every nonzero message, scalar multiples included;
`weight` counts the nonzero positions of a word one digit at a time.
They share only the layout (`_layout`) and the slot arithmetic
(`_slot_ops`' add, and its support for the walk) with the package.
"""

import functools
import itertools
import operator

from qcproduct.field import Field
from qcproduct.oracle import _layout, _slot_ops


def packed_rows(field: Field, rows):
    """The words X^t * r (t < m) of each row r: digit s of position i in
    bits i*width + s*bits .. i*width + s*bits + bits - 1."""
    p, m = field.p, field.m
    bits, width = _layout(p, m)
    words = []
    for row in rows:
        for t in range(m):
            word = 0
            for i, c in enumerate(row):
                x = field.mul(p ** t, c)
                for s in range(m):
                    word |= x // p ** s % p << i * width + s * bits
            words.append(word)
    return words


def _nonzero(p: int, m: int, x: int, i: int) -> bool:
    """Whether position i of a packed word has a nonzero digit."""
    bits, width = _layout(p, m)
    return any(x >> i * width + s * bits & (1 << bits) - 1 for s in range(m))


def weight(p: int, m: int, n: int, x: int) -> int:
    """The number of nonzero positions of a packed word."""
    return sum(_nonzero(p, m, x, i) for i in range(n))


def _times(add, x: int, c: int) -> int:
    """c * x for an integer c >= 0, by doubling."""
    out = 0
    while c:
        if c & 1:
            out = add(out, x)
        x, c = add(x, x), c >> 1
    return out


def _clear(add, p: int, bits: int, row: int, piv: int, shift: int) -> int:
    """row less the multiple of piv that zeroes its slot at `shift`, piv
    being 1 there."""
    d = row >> shift & ((1 << bits) - 1)
    return add(row, _times(add, piv, p - d)) if d else row


def systematic(p: int, m: int, n: int, rows, covered: int = 0):
    """(guard-bit mask of the new positions, words, pivot slots), pivoting
    on positions outside `covered` first, lowest position first."""
    bits, width = _layout(p, m)
    add = _slot_ops(p, m, n)[2]
    dmask = (1 << bits) - 1
    free, done, slots, new = list(rows), [], [], 0
    for outside in (True, False):
        while free:
            union = functools.reduce(operator.or_, free, 0)
            nonzero = [i for i in range(n) if _nonzero(p, m, union, i) and not (
                outside and covered >> i * width + width - 1 & 1)]
            if not nonzero:
                break
            i = nonzero[0]
            new |= (1 << i * width + width - 1) & ~covered
            for t in range(m):
                shift = i * width + t * bits
                piv = next(row for row in free if row >> shift & dmask)
                free.remove(piv)
                piv = _times(add, piv, pow(piv >> shift & dmask, -1, p))
                free = [_clear(add, p, bits, row, piv, shift) for row in free]
                done = [_clear(add, p, bits, row, piv, shift) for row in done]
                done.append(piv)
                slots.append(shift)
    return new, done, slots


def range_min(p: int, m: int, n: int, rows) -> int:
    """Minimum Hamming weight over every nonzero message of a packed code,
    message index idx read as base-p digits over the rows: the step from
    idx-1 to idx adds the prefix sum of rows 0..v_p(idx)."""
    low, guard, add, _, _ = _slot_ops(p, m, n)
    prefix = list(itertools.accumulate(rows, add))
    cur, best = 0, 1 << 62
    for idx in range(1, p ** len(rows)):
        v, i = 0, idx
        while not i % p:
            i //= p
            v += 1
        cur = add(cur, prefix[v])
        best = min(best, (cur + low & guard).bit_count())
    return best
