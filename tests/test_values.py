"""The value classes: frozen, compared and hashed by value, and pickled.

Each factory builds the same value for the same argument from fresh
objects (new Field instances included), and a different value for a
different argument."""

import pickle

import pytest

from qcproduct import (
    CodewordMatrix,
    CyclicCode,
    GeneratingMatrix,
    LinearCodeView,
    OneLevelCode,
    Poly,
    PolyVector,
    bezout_pair,
    rgb_pot_reduce,
)
from qcproduct.field import Field


def _matrix(x):
    f = Field(2)
    return GeneratingMatrix(f, 2, 3, [[Poly(f, (1, 1)), Poly(f, (0,) * x + (1,))]])


VALUES = {
    "Field": lambda x: Field(3, x),
    "FieldElement": lambda x: Field(3, 2)(x),
    "Poly": lambda x: Poly(Field(3), (1, x)),
    "CyclicCode": lambda x: CyclicCode(4, Poly(Field(5), (x, 1))),
    "PolyVector": lambda x: PolyVector(
        [Poly(Field(2), (1,)), Poly(Field(2), (0,) * x + (1,))], 3),
    "GeneratingMatrix": _matrix,
    "RgbPotBasis": lambda x: rgb_pot_reduce(_matrix(x)),
    "ProductParams": lambda x: bezout_pair(2, 17, 2 * x + 1),
    "CodewordMatrix": lambda x: CodewordMatrix(Field(2), [[1, 0], [0, x % 2]]),
    "OneLevelCode": lambda x: OneLevelCode(
        Poly(Field(2), (1, 1)), [Poly(Field(2), (0,) * x + (1,))], 2, 3),
    "LinearCodeView": lambda x: LinearCodeView(Field(2), [[1, 0, 1], [0, 1, x % 2]]),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_class_contract(name):
    make = VALUES[name]
    a, b, other = make(1), make(1), make(2)
    assert type(a).__name__ == name
    # equality and hashing by value, never by identity
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other
    # frozen: assignment to a stored attribute raises
    attr = type(a).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, attr, getattr(other, attr))
    assert a == b
    # pickle rebuilds an equal value
    c = pickle.loads(pickle.dumps(a))
    assert c == a and hash(c) == hash(a)
