"""Single files of scipy, loaded without the packages around them.

The stepper needs two files of ``scipy.integrate`` and the Lambert W layer
and ``model.fast_heteroclinic`` one compiled file of ``scipy.special``;
importing either package the usual way loads hundreds of modules besides.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys

import scipy

__all__ = ["scipy_module"]


@functools.cache
def scipy_module(name: str, *needed: str):
    """The module ``scipy.<name>``, loaded from its own file, with the attributes ``needed``.

    Importing ``scipy.integrate._dop`` the usual way runs
    ``scipy/integrate/__init__.py`` first, which loads ``special``,
    ``optimize``, ``linalg``, ``sparse`` and ``spatial`` as well (about
    560 modules); here only the file itself runs.  The module is
    registered in ``sys.modules`` under its full name, and an entry
    already there is used, so this and a later ``import scipy.integrate``
    share one module object.

    The package imported later does not get the file as an attribute
    unless its own code binds one: after a load of ``integrate._dop``
    here, ``scipy.integrate._dop`` raises ``AttributeError`` even once
    ``import scipy.integrate._dop`` has run, while
    ``from scipy.integrate import _dop`` and the package's own calls find
    the shared module.
    """
    full = f"scipy.{name}"
    module = sys.modules.get(full)
    if module is None:
        directory = os.path.join(os.path.dirname(scipy.__file__), *name.split(".")[:-1])
        spec = importlib.machinery.PathFinder.find_spec(full, [directory])
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[full] = module
    if module is None or not all(hasattr(module, attr) for attr in needed):
        raise ImportError(f"{full} with {', '.join(needed)} is missing from scipy "
                          f"{scipy.__version__}; relaxor needs scipy >= 1.17")
    return module
