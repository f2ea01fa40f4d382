"""Cyclic garbage collection paused around allocation-heavy code.

Parsing and embedding allocate hundreds of thousands of acyclic
containers, which reference counting frees on its own; the cyclic
collector only re-scans them.  `paused()` switches it off for the length
of a `with` block.  Blocks may nest and run on several threads at once:
the first block to enter saves the collector's state, and the last to
leave restores it, even when the block raises.
"""
from __future__ import annotations

import gc
import threading
from contextlib import contextmanager

_lock = threading.Lock()
_depth = 0
_was_enabled = False


@contextmanager
def paused():
    global _depth, _was_enabled
    with _lock:
        if _depth == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _was_enabled:
                gc.enable()
