"""Kernel selection: the compiled extension if it imports, pure Python
otherwise.

The compiled build is `_kernel.c`, a hand-written C extension that
`setup.py` compiles at install time; `_kernel_py.py` is the reference.
Both export the two counting codes, `AGGRESSOR` and `VICTIM`, and the
same classes with identical behavior, so a change edits the two
together, and the tests check parity on both.  `KERNEL_BUILD` says
which one is live.
"""

from __future__ import annotations

try:
    from ._kernel import (AGGRESSOR, VICTIM,  # noqa: F401
                          KERNEL_BUILD, CounterCore, TopQueue)
except ImportError:
    from ._kernel_py import (AGGRESSOR, VICTIM,  # noqa: F401
                             KERNEL_BUILD, CounterCore, TopQueue)

__all__ = ["CounterCore", "TopQueue", "KERNEL_BUILD", "AGGRESSOR", "VICTIM"]
