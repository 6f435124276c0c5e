"""The paper's serialization maps on plain code lists, for the tests.

A product codeword is an m_b x (ell_a*m_a) matrix M of field element codes,
a list of rows: its rows lie in the row code A and its columns in the
column code B.  `serialize` is the map to one polynomial,
c(X) = sum of M[i][j] X^f(i,j); `components` gives the ell_a components of
the same word over X^(m_a*m_b) - 1 through g(i, j); `interleave` joins
components into one word, coefficient k of component i on X^(ell*k + i),
as `expand_to_linear` lays out a codeword.  Membership is decided by rank
(`rref`) and by `Poly %`, never by canonical reduction.  Nothing here
checks its arguments.
"""

from qcproduct import Poly, fold_mod_xm1, map_f, map_g
from rref import _rref


def serialize(M, p) -> list:
    """The p.n codes of c(X) = sum of M[i][j] X^f(i,j), lowest first."""
    out = [0] * p.n
    for i, row in enumerate(M):
        for j, c in enumerate(row):
            out[map_f(i, j, p)] = c
    return out


def matrix(codes, p) -> list:
    """The codeword matrix whose entry (i, j) is code f(i, j) of c(X)."""
    return [[codes[map_f(i, j, p)] for j in range(p.ell_a * p.m_a)]
            for i in range(p.m_b)]


def components(M, p) -> list:
    """The ell_a component code lists, each m_a*m_b long: component h is
    X^(-h*a*m_a) * sum of M[i][j*ell_a + h] X^g(i,j) mod X^(m_a*m_b) - 1."""
    N = p.big_m
    out = [[0] * N for _ in range(p.ell_a)]
    for h, comp in enumerate(out):
        for i in range(p.m_b):
            for j in range(p.m_a):
                comp[(map_g(i, j, p) - h * p.a * p.m_a) % N] = M[i][j * p.ell_a + h]
    return out


def interleave(comps, m: int) -> list:
    """The ell*m codes of components of at most m codes each, coefficient k
    of component i at position ell*k + i."""
    ell = len(comps)
    out = [0] * (ell * m)
    for i, codes in enumerate(comps):
        out[i:ell * len(codes):ell] = codes
    return out


def span_rref(field, m: int, rows):
    """`_rref` of the words X^t * row mod X^m - 1, t < m, of rows of Poly
    entries: the code the rows generate with the (X^m-1)e_j rows, which
    serialize to zero."""
    words = []
    for row in rows:
        for t in range(m):
            shift = Poly(field, (0,) * t + (1,))
            words.append(interleave([fold_mod_xm1(e * shift, m).coeffs for e in row], m))
    return _rref(field, words)


def in_product(field, M, row_code, g_b) -> bool:
    """Whether every row of M lies in the span of row_code, generator rows
    of codes, and every column is a multiple of g_b."""
    basis = _rref(field, row_code)[0]
    return (all(len(_rref(field, basis + [list(row)])[0]) == len(basis) for row in M)
            and all((Poly(field, col) % g_b).is_zero for col in zip(*M)))
