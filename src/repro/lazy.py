"""Package surfaces that import a name's module on first use.

A package's ``__init__`` names what it exports and where each name lives;
nothing is imported until a name is read, so ``import repro.core.instance``
pays for the instance module and not for the array tracker's numpy.
:func:`lazy_exports` returns the three module attributes that make this
work (PEP 562): ``__all__`` (``from package import *`` binds every name),
``__getattr__`` (imports the name's module on first read and caches the
value on the package) and ``__dir__`` (lists the names before they load).
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module, relative to ``package``, to the names the
    package re-exports from it.  A name must not also be the name of one
    of the package's submodules: importing that submodule would bind the
    module object over the name.
    """
    source = {
        name: f"{package}.{module}" for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> object:
        try:
            module = source[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(source))

    return list(source), __getattr__, __dir__
