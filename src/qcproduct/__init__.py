"""Quasi-cyclic product codes over finite fields.

A quasi-cyclic code of index ell is a submodule of F_q[X]^ell containing
<(X^m - 1)e_j>; this package reduces arbitrary generating sets to the
canonical upper-triangular basis, builds the product of a quasi-cyclic row
code with a cyclic column code (directly and in closed form for 1-level row
codes), and verifies every construction against exhaustive linear-algebra
ground truth.

Typical use::

    from qcproduct import (field_new, minimal_polynomial, cyclic_code_new,
                           OneLevelCode, bezout_pair, one_level_product_rgb)

    f2 = field_new(2)
    g = minimal_polynomial(2, 17, 1)        # row-code shared divisor
    ...
"""

from .errors import *  # noqa: F403
from .field import *  # noqa: F403
from .polyring import *  # noqa: F403
from .cyclic import *  # noqa: F403
from .qcmodule import *  # noqa: F403
from .product import *  # noqa: F403
from .oracle import *  # noqa: F403
from .serialize import *  # noqa: F403
from . import cyclic, errors, field, oracle, polyring, product, qcmodule, serialize

__version__ = "0.1.0"

# Each module declares its own public names; errors, which has no __all__,
# exports every class it defines, as its star import above does.
__all__ = [name for name in vars(errors) if not name.startswith("_")]
for _module in (field, polyring, cyclic, qcmodule, product, oracle, serialize):
    __all__ += _module.__all__
del _module
