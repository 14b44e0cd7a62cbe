"""Kernel selection: the compiled extension if it imports, pure Python
otherwise.

The compiled build is the committed `_kernel.c`, which `setup.py`
compiles at install time.  Both builds export the same names with
identical behavior; the tests check parity on both.
`KERNEL_BUILD` says which one is live.
"""

from __future__ import annotations

try:
    from ._kernel import (AGGRESSOR, NONE, VICTIM,  # noqa: F401
                          KERNEL_BUILD, CounterCore, TopQueue)
except ImportError:
    from ._kernel_py import (AGGRESSOR, NONE, VICTIM,  # noqa: F401
                             KERNEL_BUILD, CounterCore, TopQueue)

__all__ = ["CounterCore", "TopQueue", "KERNEL_BUILD",
           "AGGRESSOR", "VICTIM", "NONE"]
