"""Build script for the optional compiled Numerov kernel.

    python setup.py build_ext --inplace

compiles `src/efimov_lab/_kernel/_numerov.c` next to its source, where
an import from `PYTHONPATH=src` picks it up.  Building needs only a C
compiler.  The package is fully functional without the extension: the
pure-Python kernel, which gives bit-identical results, is selected at
import time whenever the compiled module is missing, so a failing
toolchain still yields a working install.  Floating-point contraction
is switched off because a fused multiply-add would round differently
from the pure kernel.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Try to build extensions, but never fail the whole install."""

    def run(self):
        try:
            super().run()
        except Exception as exc:
            print(f"warning: compiled kernel skipped ({exc}); "
                  "falling back to the pure-Python integrator")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: building {ext.name} failed ({exc}); "
                  "falling back to the pure-Python integrator")


setup(
    ext_modules=[Extension("efimov_lab._kernel._numerov",
                           sources=["src/efimov_lab/_kernel/_numerov.c"],
                           extra_compile_args=["-ffp-contract=off"])],
    cmdclass={"build_ext": OptionalBuildExt},
)
