"""Build script for the optional compiled Jacobi kernel.

``src/specdist/_jacobi.c`` is a hand-written CPython extension, so a C
compiler is all the build needs.  The package works without the extension (a
pure numpy fallback is selected at import time), so a missing compiler only
costs speed.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("specdist._jacobi", ["src/specdist/_jacobi.c"])])
