"""An SPMD program whose module imports only ``sys``.

Unpickling :func:`loaded_modules` in a spawned rank adds nothing of the
program's own, so what it returns is what the rank itself had to load.
"""

import sys


def loaded_modules(comm):
    return sorted(sys.modules)
