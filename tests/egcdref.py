"""Extended gcds on the kernels' native forms, one loop per kind of field:
the tests' reference for the kernels' `egcd` and for `reduceref`.

These are the egcd loops that the kernels ran before Euclid's algorithm
learned to carry whole packed rows (`polyring._Kernel.euclid`).  Each
returns (g, s, t) with g monic, as `poly_egcd` does, on the native form
of `polyring._kernel(f)`.  Over GF(2), GF(3) and GF(4) each quotient term
of r0 / r1 is applied to r0, s0 and t0 at once, without forming the
quotient; the code-list loop divides, then takes s0 - q*s1 and t0 - q*t1
with the kernel's own operations.  None of them calls `euclid`.
"""

from kernelref import _lead4
from qcproduct.polyring import _kernel, _over4


def egcd2(u: int, v: int):
    r0, r1, s0, s1, t0, t1 = u, v, 1, 0, 0, 1
    while r1:
        d = r1.bit_length()
        while (k := r0.bit_length() - d) >= 0:
            r0 ^= r1 << k
            s0 ^= s1 << k
            t0 ^= t1 << k
        r0, r1, s0, s1, t0, t1 = r1, r0, s1, s0, t1, t0
    return r0, s0, t0


def egcd3(u, v):
    """r1 is made monic by swapping its planes and those of s1 and t1."""
    r0a, r0b = u or (0, 0)
    r1a, r1b = v or (0, 0)
    s0a, s0b, s1a, s1b, t0a, t0b, t1a, t1b = 1, 0, 0, 0, 0, 0, 1, 0
    while r1a | r1b:
        if r1b > r1a:
            r1a, r1b, s1a, s1b, t1a, t1b = r1b, r1a, s1b, s1a, t1b, t1a
        rs, ss, ts = r1a | r1b, s1a | s1b, t1a | t1b
        d = rs.bit_length()
        while (k := (x := r0a | r0b).bit_length() - d) >= 0:
            if r0b > r0a:  # r0 - 2*X^k*r1 = r0 + X^k*r1
                ra, rb, sa, sb, ta, tb = (r1a << k, r1b << k, s1a << k, s1b << k,
                                          t1a << k, t1b << k)
            else:
                ra, rb, sa, sb, ta, tb = (r1b << k, r1a << k, s1b << k, s1a << k,
                                          t1b << k, t1a << k)
            c = x & (rs << k)
            r0a, r0b = (r0a | ra) ^ c, (r0b | rb) ^ c
            c = (s0a | s0b) & (ss << k)
            s0a, s0b = (s0a | sa) ^ c, (s0b | sb) ^ c
            c = (t0a | t0b) & (ts << k)
            t0a, t0b = (t0a | ta) ^ c, (t0b | tb) ^ c
        r0a, r0b, s0a, s0b, t0a, t0b, r1a, r1b, s1a, s1b, t1a, t1b = (
            r1a, r1b, s1a, s1b, t1a, t1b, r0a, r0b, s0a, s0b, t0a, t0b)
    if r0b > r0a:
        r0a, r0b, s0a, s0b, t0a, t0b = r0b, r0a, s0b, s0a, t0b, t0a
    return tuple((a, b) if a | b else 0
                 for a, b in ((r0a, r0b), (s0a, s0b), (t0a, t0b)))


def egcd4(u, v):
    """The row (r1, s1, t1), six planes, is made monic by a plane
    permutation and its scalar multiples are formed once."""
    r0a, r0b = u or (0, 0)
    s0a, s0b, t0a, t0b = 1, 0, 0, 0
    row = (*(v or (0, 0)), 0, 0, 1, 0)
    while row[0] | row[1]:
        d = (row[0] | row[1]).bit_length()
        row = _over4(_lead4(row[0], row[1], d - 1), row)
        mults = (None, row, _over4(3, row), _over4(2, row))  # 1/a^2 = a, 1/a = a^2
        while (k := (r0a | r0b).bit_length() - d) >= 0:
            ra, rb, sa, sb, ta, tb = mults[_lead4(r0a, r0b, k + d - 1)]
            r0a ^= ra << k
            r0b ^= rb << k
            s0a ^= sa << k
            s0b ^= sb << k
            t0a ^= ta << k
            t0b ^= tb << k
        (r0a, r0b, s0a, s0b, t0a, t0b), row = row, (r0a, r0b, s0a, s0b, t0a, t0b)
    out = _over4(_lead4(r0a, r0b, (r0a | r0b).bit_length() - 1),
                 (r0a, r0b, s0a, s0b, t0a, t0b))
    return tuple((a, b) if a | b else 0 for a, b in zip(out[::2], out[1::2]))


def egcd_codes(f, u, v):
    """Euclid's loop on code lists with the kernel's divmod, mul and sub,
    then a division by the gcd's leading coefficient."""
    k = _kernel(f)
    r0, r1, s0, s1, t0, t1 = u, v, [1], [], [], [1]
    while r1:
        q, r = k.divmod(f, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, k.sub(f, s0, k.mul(f, q, s1))
        t0, t1 = t1, k.sub(f, t0, k.mul(f, q, t1))
    lead = r0[-1:]
    return tuple(k.divmod(f, a, lead)[0] for a in (r0, s0, t0))


def egcd(f, u, v):
    """(g, s, t) on the native form of the field f's kernel."""
    if f.q == 2:
        return egcd2(u, v)
    if f.q == 3:
        return egcd3(u, v)
    if f.q == 4:
        return egcd4(u, v)
    return egcd_codes(f, u, v)
