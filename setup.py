"""Build hook: compile the committed `src/hammersim/_kernel.c` into the
`hammersim._kernel` extension.

The C is the build input; no Cython is needed to install.  It was
generated from `_kernel.pyx`, and after an edit there it is regenerated
with `cython -3 src/hammersim/_kernel.pyx`.  The extension is optional:
without a C compiler the install goes on, and `hammersim.kernel` falls
back to the pure-Python build at import time.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("hammersim._kernel",
                             ["src/hammersim/_kernel.c"], optional=True)])
