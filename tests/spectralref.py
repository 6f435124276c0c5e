"""A spectral check of canonical reduction, independent of `polyring`.

Let q = p^s and gcd(m, p) = 1.  Then F[X]/(X^m - 1) splits into one field
per q-cyclotomic coset modulo m (Ling and Sole, "On the algebraic structure
of quasi-cyclic codes I: finite fields", IEEE Trans. Inf. Theory 47(7),
2001), so a module that contains every (X^m - 1)e_j is fixed by the row
spaces of its generators evaluated at one root alpha^c per coset, and its
dimension over GF(q) is the sum of |C| * rank G(alpha^c) over the cosets C.
Hence B is the canonical basis of the module that the rows G generate iff
`is_rgb_pot(B)` holds, RREF(G(alpha^c)) = RREF(B(alpha^c)) for every coset
representative c, and that dimension is ell*m less the degrees of B's
diagonal, the one a canonical basis spans.

Everything runs on `Field` codes in GF(p^(s*r)), r the order of q modulo m:
alpha is the first element of order m found by trial, GF(q) embeds through
the first root of its modulus found the same way, and entries are evaluated
by Horner's rule.  No polyring division or gcd and nothing of `cyclic` is
used; `rref._rref` does the elimination.
"""

from qcproduct import Field, is_rgb_pot
from rref import _rref


def _horner(big: Field, codes, z: int) -> int:
    acc = 0
    for c in reversed(codes):
        acc = big.add(big.mul(acc, z), c)
    return acc


def _context(f: Field, m: int):
    """(the field GF(p^(s*r)), alpha of order m there, the image of each code of f)."""
    r = next(r for r in range(1, m + 1) if pow(f.q, r, m) == 1 % m)
    big = Field(f.p, f.m * r)
    primes = [s for s in range(2, m + 1) if m % s == 0 and all(s % t for t in range(2, s))]
    alpha = next(a for a in range(1, big.q) if big.pow_(a, m) == 1
                 and all(big.pow_(a, m // s) != 1 for s in primes))
    images = list(range(f.q))  # a prime field is the big field's constants
    if f.m > 1:
        theta = next(t for t in range(big.q) if _horner(big, f.modulus, t) == 0)
        for code in range(f.p, f.q):  # theta * image(code // p) + code % p
            images[code] = big.add(big.mul(theta, images[code // f.p]), code % f.p)
    return big, alpha, images


def cosets(q: int, m: int) -> list:
    """(representative, size) of each q-cyclotomic coset modulo m."""
    out, seen = [], set()
    for c in range(m):
        if c not in seen:
            x, size = c, 0
            while x not in seen:
                seen.add(x)
                x, size = x * q % m, size + 1
            out.append((c, size))
    return out


def spectra(rows, f: Field, m: int) -> list:
    """(coset size, RREF of the rows evaluated at alpha^c) for each coset."""
    big, alpha, images = _context(f, m)
    out = []
    for c, size in cosets(f.q, m):
        z = big.pow_(alpha, c)
        out.append((size, _rref(big, [[_horner(big, [images[x] for x in e.coeffs], z)
                                       for e in row] for row in rows])))
    return out


def is_canonical_basis_of(rows, basis) -> bool:
    """Whether basis is the canonical basis of the module the rows generate:
    `is_rgb_pot` holds, the spectra agree, and the dimension ell*m - sum of
    the diagonal degrees that the basis claims is the module's, the sum of
    size * rank over the cosets (a basis in canonical shape whose rows are
    not closed under the module spans more than it claims)."""
    want = spectra(rows, basis.field, basis.m)
    claimed = basis.ell * basis.m - sum(d.degree for d in basis.diagonal())
    return (is_rgb_pot(basis)[0] and spectra(basis.matrix, basis.field, basis.m) == want
            and claimed == sum(size * len(rref[0]) for size, rref in want))
