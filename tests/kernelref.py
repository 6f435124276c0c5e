"""The kernel loops that the packed-row operations replaced: the tests'
reference for `divmod`, `fold`, `gcd` and `euclid` in `qcproduct.polyring`.

`divmod2` is GF(2)'s long division with its own quotient loop; `fold2`,
`fold3` and `fold4` halve a GF(2) bitmask, a GF(3) pair and a GF(4) pair of
planes, each with its own loop; `euclid3` and `euclid4` are the Euclid
loops on rows of GF(3) and GF(4) pairs, each with its own monic step; `gcd`
is Euclid's loop on the kernel's `divmod`, made monic by one more
division.  The kernels now run `divmod` and `gcd` on their row operations
and `fold` through one halving helper over `fold_row`.  `divmod_codes`,
`fold_codes` and `euclid_codes` work on code lists with one `Field` call
per coefficient, the reference for every field.
"""

from qcproduct.polyring import _kernel, _lead4, _over4, _rem3, _rem4


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


def euclid3(a: tuple, b: tuple, n: int, w: int):
    while (b[0] | b[1]) >> (n - 1) * w:
        a, b = b, _rem3(*a, *b)
    return (a if a[0] >= a[1] else a[::-1]), b  # the gcd made monic


def euclid4(a: tuple, b: tuple, n: int, w: int):
    while (b[0] | b[1]) >> (n - 1) * w:
        a, b = b, _rem4(*a, *b)
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
