"""The package surface: ``qcproduct.__all__`` is assembled from each module's
own declaration, so every public name is written once, where it is defined."""

import qcproduct
from qcproduct import (
    cyclic,
    errors,
    field,
    oracle,
    polyring,
    product,
    qcmodule,
    serialize,
)

MODULES = (field, polyring, cyclic, qcmodule, product, oracle, serialize)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_package_all_is_the_union_of_module_declarations():
    names = qcproduct.__all__
    assert len(names) == len(set(names))
    # the names each module declares
    owner = {name: mod for mod in MODULES for name in mod.__all__}
    # and every QcError subclass, with nothing else
    owner.update((cls.__name__, errors)
                 for cls in (errors.QcError, *_subclasses(errors.QcError)))
    assert set(names) == set(owner)
    # every entry is the very object its defining module holds
    for name in names:
        obj = getattr(qcproduct, name)
        assert obj is getattr(owner[name], name)
        assert getattr(obj, "__module__", owner[name].__name__) == owner[name].__name__
    # a star import binds exactly __all__
    scope = {}
    exec("from qcproduct import *", scope)
    assert set(scope) - {"__builtins__"} == set(names)
    # names removed from the surface stay removed
    for gone in ("qc_shift", "QuasiCyclicCode",
                 # the codeword-matrix maps, encoder and module checks that
                 # only tests used; tests/paper_maps.py keeps what they need
                 "CodewordMatrix", "_check_matrix", "matrix_to_univariate",
                 "univariate_to_matrix", "matrix_to_components",
                 "check_product_membership", "modules_equal", "encode",
                 "vector_to_univariate", "univariate_to_vector", "cyclic_to_doc",
                 "DimensionMismatch", "MessageDegreeTooLarge"):
        assert gone not in names
        assert not any(hasattr(mod, gone) for mod in (errors, *MODULES))
    assert not hasattr(qcmodule.RgbPotBasis, "to_generating_matrix")
