"""Build hook: compile `src/hammersim/_kernel.c` into the
`hammersim._kernel` extension.

The C is the kernel's hand-written source; a change to the kernel edits
it and `_kernel_py.py` together, and the parity tests tie the two.  The
extension is optional: without a C compiler the install goes on, and
`hammersim.kernel` falls back to the pure-Python build at import time.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("hammersim._kernel",
                             ["src/hammersim/_kernel.c"], optional=True)])
