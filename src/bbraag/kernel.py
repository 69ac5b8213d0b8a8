"""Selects the canonical-labeling backend at import time.

The compiled extension is preferred when present; the pure-Python twin is the
fallback and the reference. ``BBRAAG_KERNEL=pure`` (or ``cython``) forces a
backend, which the tests and the benchmark use to compare the two.

``compare_key(n, adj, bound)`` is the sign of ``canon_key(n, adj) - bound``
for ``bound`` a canonical key.  The pure search stops at the first leaf that
settles it; the compiled backend's API is fixed by its tracked ``.c``, so
there the sign comes from the whole key.
"""

from __future__ import annotations

import os

from . import _canon_py

_choice = os.environ.get("BBRAAG_KERNEL", "auto").lower()

if _choice == "pure":
    _impl = _canon_py
elif _choice == "cython":
    from . import _canon_cy as _impl  # noqa: F401  (ImportError is the point)
else:
    try:
        from . import _canon_cy as _impl
    except ImportError:
        _impl = _canon_py


def backend_compare(module):
    """The ``compare_key`` of a backend module, from its ``canon_key`` if it has none."""
    if hasattr(module, "compare_key"):
        return module.compare_key
    key = module.canon_key

    def compare_key(n: int, adj, bound: int) -> int:
        found = key(n, adj)
        return (found > bound) - (found < bound)

    return compare_key


BACKEND: str = _impl.BACKEND
canon_key = _impl.canon_key
compare_key = backend_compare(_impl)


def available_backends():
    """Names and modules of every importable backend, reference first."""
    backends = [("pure-python", _canon_py)]
    try:
        from . import _canon_cy

        backends.append(("cython", _canon_cy))
    except ImportError:
        pass
    return backends
