"""The root-of-unity search with its earlier start rule: the tests'
reference for `nth_root_of_unity` in `qcproduct.field`.

It skips the prime field's codes only when n does not divide p - 1, so it
also tries prime-field candidates g whose power g^((q-1)/n) cannot have
order n.  The package skips those too; both must return the same code.
"""

from qcproduct.field import _order


def nth_root_of_unity(field, n: int) -> int:
    cofactor = (field.q - 1) // n
    start = 1 if (field.p - 1) % n == 0 else field.p
    for code in range(start, field.q):
        beta = field.pow_(code, cofactor)
        if _order(field.pow_, beta, n) == n:
            return beta
    raise AssertionError(f"no element of order {n} in {field!r}")
