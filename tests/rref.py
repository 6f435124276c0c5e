"""Reduced row echelon form over GF(q) on plain lists: the tests' reference
for the packed GF(p) elimination in `qcproduct.oracle`, which shares none of
its code."""

from qcproduct.field import Field


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
