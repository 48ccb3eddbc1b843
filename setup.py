"""Build script: compiles the optional speed kernels.

The extension is cythonized from ``_speed.pyx`` when Cython is available and
compiled from the committed ``_speed.cpp`` otherwise.  The package is fully
functional without it; ratcoord._kernels falls back to the pure-Python
implementations at import time.
"""

import os

from setuptools import Extension, setup

PYX = "src/ratcoord/_kernels/_speed.pyx"
CPP = "src/ratcoord/_kernels/_speed.cpp"

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

if cythonize is not None and os.path.exists(PYX):
    ext_modules = cythonize(
        [Extension("ratcoord._kernels._speed", [PYX], language="c++")],
        compiler_directives={"language_level": "3"},
    )
elif os.path.exists(CPP):
    ext_modules = [
        Extension("ratcoord._kernels._speed", [CPP], language="c++", optional=True)
    ]
else:
    ext_modules = []

setup(ext_modules=ext_modules)
