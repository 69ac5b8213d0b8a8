"""The canonical-labeling kernel: the compiled backend when it imports, else the pure one.

``_canon_py`` is the pure-Python reference; ``_canon_cy`` is its compiled
twin, built from the tracked ``_canon_cy.c`` by ``setup.py``.  One import
attempt, ``available_backends()``, decides both what is available and what
runs: the kernel is its last entry, so the compiled backend runs whenever it
is built, and ``BACKEND`` names the one that does.  The tests and the
benchmark compare the backends by module, through ``available_backends()``.

``compare_key(n, adj, bound)`` is the sign of ``canon_key(n, adj) - bound``
for ``bound`` a canonical key.  The pure search stops at the first leaf that
settles it; the compiled backend's API is fixed by its tracked ``.c``, so
there the sign comes from the whole key.
"""

from __future__ import annotations

from . import _canon_py


def available_backends():
    """Names and modules of every importable backend, reference first."""
    backends = [("pure-python", _canon_py)]
    try:
        from . import _canon_cy

        backends.append(("cython", _canon_cy))
    except ImportError:
        pass
    return backends


def backend_compare(module):
    """The ``compare_key`` of a backend module, from its ``canon_key`` if it has none."""
    if hasattr(module, "compare_key"):
        return module.compare_key
    key = module.canon_key

    def compare_key(n: int, adj, bound: int) -> int:
        found = key(n, adj)
        return (found > bound) - (found < bound)

    return compare_key


_impl = available_backends()[-1][1]
BACKEND: str = _impl.BACKEND
canon_key = _impl.canon_key
compare_key = backend_compare(_impl)
