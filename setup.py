"""Builds the optional compiled canonical-labeling kernel.

The package works without it (bbraag.kernel falls back to the pure-Python
twin), so the extension is marked optional: a missing C compiler only costs
speed, never functionality.  The extension is compiled from the tracked
``_canon_cy.c``, the one source the compiled-kernel tests run against, so
every build compiles the same C.  After editing ``_canon_cy.pyx``,
regenerate that file with Cython 3.2.8 and commit it::

    cython -3 src/bbraag/_canon_cy.pyx    # writes src/bbraag/_canon_cy.c
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("bbraag._canon_cy", ["src/bbraag/_canon_cy.c"], optional=True)])
