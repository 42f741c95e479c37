"""Built-in rules.  Importing this package registers all of them.

Modules register by decorating their rule classes with
:func:`repro.staticcheck.registry.register`; the imports below are the
single place the built-in set is enumerated.
"""

from repro.staticcheck.rules import (  # noqa: F401  (registration side effect)
    arch,
    determinism,
    exceptions,
    locks,
    resources,
    stage_contract,
)

__all__ = [
    "arch",
    "determinism",
    "exceptions",
    "locks",
    "resources",
    "stage_contract",
]
