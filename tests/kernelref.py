"""The kernel loops that the packed-row operations replaced: the tests'
reference for `divmod`, `divide`, `fold`, `gcd` and `euclid` in
`qcproduct.polyring`.

`rem2`, `rem3` and `rem4` are the long divisions of the bit-plane kernels
over GF(2), GF(3) and GF(4), one remainder per call, on polynomials or
packed rows; the kernels now run one Euclid loop each, which `divide` and
`divmod` stop after one remainder.  `divmod2` is GF(2)'s long division
with its own quotient loop; `fold2`, `fold3` and `fold4` halve a GF(2)
bitmask, a GF(3) pair and a GF(4) pair of planes, each with its own loop;
`euclid2`, `euclid3` and `euclid4` are Euclid's loops on rows of those
forms, calling the long division once per remainder, each with its own
monic step; `gcd` is Euclid's loop on the kernel's `divmod`, made monic by
one more division.  `divmod_codes`, `fold_codes`, `divide_codes` and
`euclid_codes` work on code lists with one `Field` call per coefficient,
the reference for every field.  `add_ext`, `sub_ext`, `mul_ext` and
`divmod_ext` are the extension-field kernel's loops from before it read
q x q tables: one `Field` call per coefficient or coefficient pair.
"""

from operator import xor

from qcproduct.polyring import _kernel, _over4


def _lead4(lo: int, hi: int, top: int) -> int:
    """The code of X^top, the highest term of (lo, hi), over GF(3) or GF(4)."""
    return lo >> top | (hi >> top) << 1


def rem2(x: int, y: int) -> int:
    d = y.bit_length()
    while (k := x.bit_length() - d) >= 0:
        x ^= y << k
    return x


def rem3(x1: int, x2: int, y1: int, y2: int) -> tuple:
    if y2 > y1:  # y made monic
        y1, y2 = y2, y1
    support = y1 | y2
    d = support.bit_length()
    while (k := (x := x1 | x2).bit_length() - d) >= 0:
        z1, z2 = (y1 << k, y2 << k) if x2 > x1 else (y2 << k, y1 << k)
        c = x & (support << k)
        x1, x2 = (x1 | z1) ^ c, (x2 | z2) ^ c
    return x1, x2


def rem4(x0: int, x1: int, y0: int, y1: int) -> tuple:
    d = (y0 | y1).bit_length()
    y0, y1 = _over4(_lead4(y0, y1, d - 1), (y0, y1))  # y made monic
    mults = (None, (y0, y1), (y1, y0 ^ y1), (y0 ^ y1, y0))
    while (k := (x0 | x1).bit_length() - d) >= 0:
        z0, z1 = mults[_lead4(x0, x1, k + d - 1)]
        x0 ^= z0 << k
        x1 ^= z1 << k
    return x0, x1


def divmod2(a: int, b: int):
    q, d = 0, b.bit_length()
    if d == 1:  # b = 1
        return a, 0
    while (k := a.bit_length() - d) >= 0:
        q |= 1 << k
        a ^= b << k
    return q, a


def fold2(x: int, m: int) -> int:
    while (b := x.bit_length()) > m:
        k = -(-b // (2 * m)) * m
        x = (x & ((1 << k) - 1)) ^ (x >> k)
    return x


def fold3(x, m: int):
    while x and (b := (x[0] | x[1]).bit_length()) > m:
        k = -(-b // (2 * m)) * m
        low = (1 << k) - 1
        (a1, a2), (b1, b2) = (x[0] & low, x[1] & low), (x[0] >> k, x[1] >> k)
        c = (a1 | a2) & (b1 | b2)
        ones, twos = (a1 | b1) ^ c, (a2 | b2) ^ c
        x = (ones, twos) if ones | twos else 0
    return x


def fold4(x, m: int):
    if not x:
        return 0
    lo, hi = fold2(x[0], m), fold2(x[1], m)
    return (lo, hi) if lo | hi else 0


def euclid2(a: int, b: int, n: int, w: int):
    while b >> (n - 1) * w:
        a, b = b, rem2(a, b)
    return a, b  # the gcd comes monic


def euclid3(a: tuple, b: tuple, n: int, w: int):
    while (b[0] | b[1]) >> (n - 1) * w:
        a, b = b, rem3(*a, *b)
    return (a if a[0] >= a[1] else a[::-1]), b  # the gcd made monic


def euclid4(a: tuple, b: tuple, n: int, w: int):
    while (b[0] | b[1]) >> (n - 1) * w:
        a, b = b, rem4(*a, *b)
    if (x := a[0] | a[1]) >> (n - 1) * w:  # the gcd made monic
        a = _over4(_lead4(*a, x.bit_length() - 1), a)
    return a, b


def gcd(f, a, b):
    """The monic gcd of two native forms of the kernel of f, a or b != 0."""
    k = _kernel(f)
    while b:
        a, b = b, k.divmod(f, a, b)[1]
    lead = k.poly(f, a).leading
    return a if lead == 1 else k.divmod(f, a, k.native(f, (lead,)))[0]


def _strip(codes: list) -> list:
    while codes and codes[-1] == 0:
        codes.pop()
    return codes


def divmod_codes(f, a, b):
    """(quotient, remainder) code lists of a by b != 0, schoolbook."""
    rem, inv = list(a), f.inv(b[-1])
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = f.mul(rem[k + len(b) - 1], inv)
        quot[k] = c
        for j, y in enumerate(b):
            rem[k + j] = f.sub(rem[k + j], f.mul(c, y))
    return _strip(quot), _strip(rem[:len(b) - 1])


def fold_codes(f, terms: dict, m: int) -> list:
    """The codes of sum c*X^(e mod m) over the terms {e: c}."""
    out = [0] * m
    for e, c in terms.items():
        out[e % m] = f.add(out[e % m], c)
    return _strip(out)


def _sub_mul(f, x: list, c: list, y: list) -> list:
    """x - c*y on code lists."""
    out = x + [0] * max(len(c) + len(y) - 1 - len(x), 0)
    for i, u in enumerate(c):
        for j, v in enumerate(y):
            out[i + j] = f.sub(out[i + j], f.mul(u, v))
    return _strip(out)


def divide_codes(f, a: list, b: list) -> list:
    """a less q*b, q the quotient of a's first entry by b's."""
    q = divmod_codes(f, a[0], b[0])[0]
    return [_sub_mul(f, x, q, y) for x, y in zip(a, b)]


def euclid_codes(f, a: list, b: list):
    """Euclid's loop on rows of code lists, led by their first entries:
    (the row led by the monic gcd, the row led by zero)."""
    while b[0]:
        q = divmod_codes(f, a[0], b[0])[0]
        a, b = b, [_sub_mul(f, x, q, y) for x, y in zip(a, b)]
    if a[0]:
        inv = f.inv(a[0][-1])
        a = [_strip([f.mul(inv, c) for c in x]) for x in a]
    return a, b


def _with_tail(out: list, a, b) -> list:
    out += a[len(b):] if len(a) > len(b) else b[len(a):]
    return _strip(out)


def add_ext(f, a, b) -> list:
    return _with_tail(list(map(xor if f.p == 2 else f.add, a, b)), a, b)


def sub_ext(f, a, b) -> list:
    out = list(map(xor if f.p == 2 else f.sub, a, b))
    out += a[len(b):] if len(a) > len(b) else map(f.neg, b[len(a):])
    return _strip(out)


def mul_ext(f, a, b) -> list:
    if not a or not b:
        return []
    add, mul = f.add, f.mul
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add(out[i + j], mul(x, y))
    return out


def divmod_ext(f, a, b):
    dv = len(b) - 1
    mul, sub = f.mul, f.sub
    inv_lead = f.inv(b[-1])
    rem = list(a)
    quot = [0] * (len(rem) - dv)
    for top in range(len(rem) - 1, dv - 1, -1):
        c = rem[top]
        if c == 0:
            continue
        qc = mul(c, inv_lead)
        quot[top - dv] = qc
        for j, bj in enumerate(b):
            rem[top - dv + j] = sub(rem[top - dv + j], mul(qc, bj))
    del rem[dv:]
    return quot, _strip(rem)
