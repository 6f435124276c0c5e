"""The product constructions, `CyclicCode`'s divisibility check and
`reduce_vector` on `Poly` operators: the tests' reference for
`qcproduct.product`, `qcproduct.cyclic.CyclicCode` and
`qcproduct.qcmodule.reduce_vector`.

Each function repeats one construction step by step with `Poly`
arithmetic (every operator converts its operands into the kernel and its
result back), and returns plain polynomials rather than the package's
classes, so none of the code under test runs.  The gcd is Euclid's loop
on `Poly` remainders, and a polynomial is made monic by `Poly.scale` with
the field's inverse of its leading coefficient, not by `Poly.monic`, which
shares its kernel step with the constructions.  `modular_substitute` is
the package's earlier body, which strips its N-long output one trailing
zero at a time.  Only the checks after the argument reading are
repeated: callers pass shapes and fields that the package accepts.
"""

from qcproduct.errors import FieldMismatch, NotADivisor, NotCoprime
from qcproduct.polyring import Poly, fold_mod_xm1, x_pow_minus_one


def modular_substitute(p: Poly, e: int, N: int, shift: int = 0) -> Poly:
    """p(X^e) * X^shift modulo X^N - 1, colliding codes summed in the field."""
    e, shift = e % N, shift % N
    add = p.field.add
    out = [0] * N
    for k, c in enumerate(p.coeffs):
        if c:
            pos = (k * e + shift) % N
            out[pos] = add(out[pos], c) if out[pos] else c
    while out and out[-1] == 0:
        out.pop()
    return Poly(p.field, out)


def monic(g: Poly) -> Poly:
    return g.scale(g.field.inv(g.leading))


def gcd(u: Poly, v: Poly) -> Poly:
    while not v.is_zero:
        u, v = v, u % v
    return monic(u)


def one_level(g: Poly, fs, m: int):
    """(g, fs) of the OneLevelCode with divisor g and multipliers fs."""
    if g.is_zero:
        raise NotADivisor("the shared divisor g must be nonzero")
    g = monic(g)
    cofactor, rem = divmod(x_pow_minus_one(g.field, m), g)
    if not rem.is_zero:
        raise NotADivisor(f"{g!r} does not divide X^{m}-1")
    canon = []
    for fj in fs:
        if fj.field != g.field:
            raise FieldMismatch("multiplier over a different field")
        canon.append(fold_mod_xm1(fj, m) % cofactor)
    return g, tuple(canon)


def row(g: Poly, fs) -> tuple:
    """The generating row (g, g*f_1, ...)."""
    return (g,) + tuple(g * fj for fj in fs)


def from_basis(matrix, m: int):
    """(g, fs) read from the top row of a level-1 basis matrix."""
    g = matrix[0][0]
    fs = []
    for j in range(1, len(matrix)):
        q, r = divmod(fold_mod_xm1(matrix[0][j], m), g)
        if not r.is_zero:
            raise NotADivisor(f"entry (0, {j}) is not a multiple of the shared divisor")
        fs.append(q)
    return one_level(g, fs, m)


def cyclic_code(m: int, g: Poly):
    """(monic generator, dimension) of the cyclic code of length m
    generated by g."""
    field = g.field
    if m % field.p == 0:
        raise NotCoprime(
            f"length {m} shares a factor with the field characteristic {field.p}")
    if g.is_zero:
        raise NotADivisor(
            "the zero polynomial is not a generator; the zero code of "
            f"length {m} is generated by X^{m}-1")
    g = monic(g)
    if not (x_pow_minus_one(field, m) % g).is_zero:
        raise NotADivisor(f"{g!r} does not divide X^{m}-1")
    return g, m - g.degree


def unreduced_product(matrix, gB: Poly, p) -> list:
    """The rows of the direct product generating matrix."""
    N = p.big_m
    gB_sub = modular_substitute(gB, p.a * p.ell_a * p.m_a, N)
    return [[fold_mod_xm1(gB_sub * modular_substitute(entry, p.b * p.m_b, N,
                                                      -j * p.a * p.m_a), N)
             for j, entry in enumerate(r)] for r in matrix]


def one_level_product(gA: Poly, fsA, gB: Poly, p):
    """(g, fs) of the closed-form product of a 1-level row code (gA, fsA)
    with the cyclic code generated by gB."""
    N = p.big_m
    gA_sub = modular_substitute(gA, p.b * p.m_b, N)
    gB_sub = modular_substitute(gB, p.a * p.ell_a * p.m_a, N)
    g = gcd(x_pow_minus_one(gA.field, N), fold_mod_xm1(gA_sub * gB_sub, N))
    multipliers = [modular_substitute(fsA[j - 1], p.b * p.m_b, N, -j * p.a * p.m_a)
                   for j in range(1, p.ell_a)]
    return one_level(g, multipliers, N)


def reduce_vector(matrix, m: int, components) -> list:
    """The normal form of a component vector against a basis matrix."""
    w = [fold_mod_xm1(c, m) for c in components]
    for i in range(len(matrix)):
        q, r = divmod(w[i], matrix[i][i])
        w[i] = r
        if not q.is_zero:
            for k in range(i + 1, len(matrix)):
                w[k] = fold_mod_xm1(w[k] - q * matrix[i][k], m)
    return w
