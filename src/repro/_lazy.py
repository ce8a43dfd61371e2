"""Lazy package exports (the Scientific Python SPEC 1 idiom, PEP 562).

Every package ``__init__`` declares what it exports once, as a table
``{submodule: [names]}``, and hands it to :func:`attach`::

    __getattr__, __dir__, __all__ = attach(__name__, {"network": ["Network"]})

A name is imported from its submodule the first time it is looked up
(``repro.core.Network``, ``from repro.core import Network``), so a process
loads only the modules it uses: a spawned rank that runs ``repro.comm.tcp``
never imports the experiments, the server or the plotting code.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def attach(
    package: str, exports: Dict[str, Sequence[str]], submodules: Sequence[str] = ()
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a submodule (relative to ``package``) to the names it
    defines; ``submodules`` are listed in ``__all__`` themselves.  Every
    submodule also resolves as an attribute before it has been imported
    (``repro.core.network``), as it would once imported.
    """
    owners = {name: module for module, names in exports.items() for name in names}
    public = [*submodules, *owners]

    def __getattr__(name: str) -> object:
        if name in owners:
            value = getattr(importlib.import_module(f"{package}.{owners[name]}"), name)
            setattr(sys.modules[package], name, value)
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(public))

    return __getattr__, __dir__, public
