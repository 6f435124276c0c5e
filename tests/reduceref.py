"""Canonical reduction with an extended gcd at every fold: the tests'
reference for `rgb_pot_reduce` in `qcproduct.qcmodule`.

Every row active at a column is folded into the pivot by an egcd of the
two entries there, two cofactor divisions and four products per entry
right of it, the fold `rgb_pot_reduce` ran before it carried Euclid's
algorithm on whole rows (`polyring._Kernel.euclid`).  The egcd is
`egcdref.egcd`, so the reference shares no code with `euclid`.  It shares
the rest of the field kernel (`polyring._kernel`, looked up on every call,
so a test can count the kernel's calls in both) and `RgbPotBasis` with the
package.
"""

import egcdref
from qcproduct.polyring import _kernel
from qcproduct.qcmodule import RgbPotBasis


def rgb_pot_reduce(gen):
    f, ell, m = gen.field, gen.ell, gen.m
    k = _kernel(f)
    native, add, sub, mul, div, fold = k.native, k.add, k.sub, k.mul, k.divmod, k.fold
    zero = native(f, ())
    full = k.xm1(f, m)
    pending = [[fold(f, native(f, p.coeffs), m) for p in row] for row in gen.rows]
    pending += ([zero] * j + [full] + [zero] * (ell - 1 - j) for j in range(ell))

    pivots = []
    for col in range(ell):
        active = [r for r in pending if r[col]]
        pending = [r for r in pending if not r[col]]
        acc = active[0]
        for row in active[1:]:
            g, s, t = egcdref.egcd(f, acc[col], row[col])
            co_acc = div(f, acc[col], g)[0]
            co_row = div(f, row[col], g)[0]
            tails = list(zip(acc[col + 1:], row[col + 1:]))
            acc = [zero] * col + [g] + [
                fold(f, add(f, mul(f, s, a), mul(f, t, b)), m) for a, b in tails]
            pending.append([zero] * (col + 1) + [
                fold(f, sub(f, mul(f, co_row, a), mul(f, co_acc, b)), m) for a, b in tails])
        pivots.append(acc)

    for col in range(1, ell):
        d = pivots[col]
        for row in pivots[:col]:
            q = div(f, row[col], d[col])[0]
            if q:
                row[col:] = [sub(f, x, mul(f, q, y)) for x, y in zip(row[col:], d[col:])]
    return RgbPotBasis(f, ell, m, [[k.poly(f, x) for x in row] for row in pivots])
