"""Cyclic garbage collection paused around allocation-heavy code.

Parsing and embedding allocate hundreds of thousands of acyclic
containers, which reference counting frees on its own; the cyclic
collector only re-scans them.  `paused()` switches it off for the length
of a `with` block, then restores the state it found, even when the block
raises.  Blocks nest; two that overlap on two threads may let it restart
early, but leave it as the first one found it.
"""
import gc
from contextlib import contextmanager


@contextmanager
def paused():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
