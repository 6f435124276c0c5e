"""Packing, elimination and the exhaustive walk on plain loops: the
tests' references for `_packed_rows`, `_systematic` and `_range_min` in
`qcproduct.oracle`.

`packed_rows` reads each code's base-p digits one code and one digit at a
time; `systematic` forms the multiple of the pivot that clears a row by
doubling, once for every row it clears; `range_min` walks every nonzero
message, scalar multiples included.  All three share only the slot
arithmetic (`_slot_ops`) with the package.
"""

import functools
import itertools
import operator

from qcproduct.field import Field
from qcproduct.oracle import _slot_ops


def packed_rows(field: Field, rows):
    """(bits, words): row r becomes the words X^t * r (t < m), digit s of
    position i in slot s*n + i."""
    p, m = field.p, field.m
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


def systematic(p: int, m: int, n: int, bits: int, rows, covered: int = 0):
    """(guard-bit mask of the new positions, words, pivot slots), pivoting
    on positions outside `covered` first, lowest position first."""
    add, support = _slot_ops(p, m, n, bits)
    top, dmask = bits - 1, (1 << bits) - 1
    everywhere = sum(1 << (i * bits + top) for i in range(n))
    free, done, slots, new = list(rows), [], [], 0
    for allowed in (everywhere ^ covered, everywhere):
        while free:
            cand = support(functools.reduce(operator.or_, free, 0)) & allowed
            if not cand:
                break
            low = (cand & -cand).bit_length() - 1
            new |= (1 << low) & ~covered
            for t in range(m):
                shift = (t * n + low // bits) * bits
                piv = next(row for row in free if row >> shift & dmask)
                free.remove(piv)
                piv = _times(add, piv, pow(piv >> shift & dmask, -1, p))
                free = [_clear(add, p, bits, row, piv, shift) for row in free]
                done = [_clear(add, p, bits, row, piv, shift) for row in done]
                done.append(piv)
                slots.append(shift)
    return new, done, slots


def range_min(p: int, m: int, n: int, bits: int, rows) -> int:
    """Minimum Hamming weight over every nonzero message of a packed code,
    message index idx read as base-p digits over the rows: the step from
    idx-1 to idx adds the prefix sum of rows 0..v_p(idx)."""
    add, support = _slot_ops(p, m, n, bits)
    prefix = list(itertools.accumulate(rows, add))
    cur, best = 0, 1 << 62
    for idx in range(1, p ** len(rows)):
        v, i = 0, idx
        while not i % p:
            i //= p
            v += 1
        cur = add(cur, prefix[v])
        best = min(best, support(cur).bit_count())
    return best
