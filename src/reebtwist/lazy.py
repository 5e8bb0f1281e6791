"""Deferred imports.

The homology side of the package (pearl complexes, quotients, the Tate
oracle) runs on pure-Python GF(2) integers and never builds an array, so a
process running only those commands need not pay numpy's import, about half
of its start-up.  The modules that compute with arrays bind numpy through
``lazy_module``, which executes it the first time one of its attributes is
read.
"""

from __future__ import annotations

import importlib.util
import sys


def lazy_module(name: str):
    """Module ``name``, executed when one of its attributes is first read.

    The ``importlib.util.LazyLoader`` recipe of the standard library.  A
    module already imported (or already deferred) is returned as it is.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:  # as an eager import would report it
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
