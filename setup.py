"""Build script for the optional compiled Numerov kernel.

    python setup.py build_ext --inplace

compiles `src/efimov_lab/_kernel/_numerov.c` next to its source, where
an import from `PYTHONPATH=src` picks it up.  Building needs only a C
compiler.  The extension is marked `optional`, so when it cannot be
built setuptools prints a warning and the build still succeeds; the
pure-Python kernel, which gives bit-identical results, is then selected
at import time.  Floating-point contraction is switched off because a
fused multiply-add would round differently from the pure kernel.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[Extension("efimov_lab._kernel._numerov",
                           sources=["src/efimov_lab/_kernel/_numerov.c"],
                           extra_compile_args=["-ffp-contract=off"],
                           optional=True)],
)
