"""Compiled kernel dispatch over two backends (``numpy`` / ``cext``).

Importing this package touches no C toolchain: ``cext`` is compiled only
when it is first requested.  On a system without a compiler the package
still imports cleanly and the always-available ``numpy`` reference
backend serves — ``--backend auto`` falls back to it silently, while
naming ``cext`` explicitly raises :class:`BackendUnavailableError` with
the reason.

See :mod:`repro.backend.registry` for selection semantics and
``docs/BACKENDS.md`` for the user-facing guide.
"""

from __future__ import annotations

from repro.backend.registry import (
    AUTO_ORDER,
    Backend,
    BackendCall,
    BackendUnavailableError,
    ENV_BACKEND,
    ENV_DISABLE,
    available_backends,
    canonical_factors,
    check_backend_name,
    get_backend,
    prepare_call,
    resolve_backend,
)

__all__ = [
    "AUTO_ORDER",
    "Backend",
    "BackendCall",
    "BackendUnavailableError",
    "ENV_BACKEND",
    "ENV_DISABLE",
    "available_backends",
    "canonical_factors",
    "check_backend_name",
    "get_backend",
    "prepare_call",
    "resolve_backend",
]
