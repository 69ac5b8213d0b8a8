"""Builds the optional compiled canonical-labeling kernel.

The package works without it (bbraag.kernel falls back to the pure-Python
twin), so the extension is marked optional: a missing C compiler only costs
speed, never functionality.  With Cython installed the extension is
generated from ``_canon_cy.pyx``; without it the tracked ``_canon_cy.c``
(generated from the same source) is compiled directly.
"""

from setuptools import Extension, setup

try:
    from Cython.Build import cythonize
except ImportError:
    ext_modules = [Extension("bbraag._canon_cy", ["src/bbraag/_canon_cy.c"], optional=True)]
else:
    ext_modules = cythonize(
        [Extension("bbraag._canon_cy", ["src/bbraag/_canon_cy.pyx"], optional=True)],
        language_level="3",
    )

setup(ext_modules=ext_modules)
