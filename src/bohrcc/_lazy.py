"""Modules bound at import and loaded when first used.

``np = lazy_import("numpy")`` binds a module object that runs numpy's
``__init__`` at its first attribute read and from then on is the ordinary
numpy module, so a command that never touches an array (``table 1``,
``table 2``, ``table 4`` and the Sc scans) never pays for numpy.  This is
the recipe of the ``importlib.util.LazyLoader`` documentation.
"""

from __future__ import annotations

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec
from types import ModuleType


def lazy_import(name: str) -> ModuleType:
    """The top-level module ``name``, loaded on its first attribute read.

    An already imported module is returned as it is; a missing one raises
    ModuleNotFoundError now, as ``import name`` would."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module
