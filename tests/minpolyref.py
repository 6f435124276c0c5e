"""Minimal polynomials by the conjugate-product loop on `Poly`: the tests'
reference for `minimal_polynomial` in `qcproduct.cyclic`.

`minimal_polynomial` multiplies X - alpha^j into one Poly over the root
field GF(q^r) per conjugate root, through the polynomial kernel, and
decodes every coefficient into GF(q).  It shares only the root context
(`_root_context`: the fields, the root alpha and the decode table) with the
package, and caches nothing.
"""

from qcproduct.cyclic import _root_context, cyclotomic_coset
from qcproduct.errors import CoefficientNotInBaseField
from qcproduct.polyring import Poly


def minimal_polynomial(q: int, m: int, i: int) -> Poly:
    coset = cyclotomic_coset(q, m, i)
    base, big, alpha, decode = _root_context(q, m)
    prod = Poly.one(big)
    for j in coset:
        root = big.pow_(alpha, j)
        prod = prod * Poly(big, (big.neg(root), 1))
    out = []
    for c in prod.coeffs:
        if c not in decode:
            raise CoefficientNotInBaseField(
                f"coefficient {c} of the conjugate product is not in GF({q})")
        out.append(decode[c])
    return Poly(base, out)
