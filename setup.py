"""Build script for the compiled Jacobi kernel.

``src/specdist/_jacobi.c`` is a hand-written CPython extension, so a C
compiler is all the build needs.  Numeric spectra need the kernel: an
installed package ships it built here, and a source checkout builds it at its
first numeric call (see ``specdist.eigensolver``).
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("specdist._jacobi", ["src/specdist/_jacobi.c"])])
