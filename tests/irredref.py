"""Rabin's irreducibility test and the default-modulus walk on it: the
tests' reference for `_frobenius_irreducible` and `_default_modulus` in
`qcproduct.field`.

`rabin_irreducible` is the loop the package ran before Ben-Or's test: f of
degree r is irreducible over GF(p) iff X^(p^r) = X (mod f) and
gcd(X^(p^(r/s)) - X, f) = 1 for every prime s dividing r (Rabin,
"Probabilistic algorithms in finite fields", SIAM J. Comput. 1980).  It
raises X to every p^j up to j = r, with a gcd only at the checkpoints r/s.
`default_modulus` tries every monic candidate of nonzero constant term in
the package's order, the binomials X^m + c included, and returns the first
that `rabin_irreducible` accepts.
"""

from qcproduct.field import _monic_candidates, _power, _prime_factors, _ring


def rabin_irreducible(coeffs, p) -> bool:
    r = len(coeffs) - 1
    if r == 1:
        return True
    k, prime, mul, native, _ = _ring(p, coeffs)
    f, one, x = k.native(prime, coeffs), native(1), native(p)  # the code p is X
    h = x
    checkpoints = {r // s for s in _prime_factors(r)}
    for j in range(1, r + 1):
        h = _power(mul, h, p, one)
        if j in checkpoints and k.poly(prime, k.gcd(prime, f, k.sub(prime, h, x), r + 1)).degree:
            return False
    return h == x


def default_modulus(p: int, m: int) -> tuple:
    if m == 1:
        return (0, 1)  # X
    return next(c for c in _monic_candidates(p, m) if c[0] and rabin_irreducible(c, p))
