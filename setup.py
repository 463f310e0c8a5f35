"""Build script for the optional compiled character kernel.

The package is pure Python out of the box; the Cython extension
``wgmono._mnkernel_c`` is a drop-in accelerator picked up at import time
when present.  Build it in place with:

    python setup.py build_ext --inplace

Without Cython the build compiles the shipped ``_mnkernel_c.cpp``; a
missing compiler downgrades the build to pure Python instead of failing
the install.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Treat extension build failures as a soft downgrade, not an error."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            print(f"warning: compiled kernel skipped ({exc}); "
                  "falling back to the pure-Python kernel")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: building {ext.name} failed ({exc}); "
                  "falling back to the pure-Python kernel")


try:
    from Cython.Build import cythonize

    extensions = cythonize(
        ["src/wgmono/_mnkernel_c.pyx"],
        compiler_directives={"language_level": "3"},
    )
except ImportError:
    # Without Cython, compile the C++ translation shipped next to the .pyx.
    extensions = [Extension("wgmono._mnkernel_c", ["src/wgmono/_mnkernel_c.cpp"],
                            language="c++")]

setup(
    ext_modules=extensions,
    cmdclass={"build_ext": optional_build_ext},
)
