"""Cyclic garbage collection paused around allocation-heavy code.

Parsing and embedding allocate hundreds of thousands of acyclic
containers, which reference counting frees on its own; the cyclic
collector only re-scans them.  `paused()` switches it off for the length
of a `with` block, then restores the state it found, even when the block
raises.  Blocks nest, on one thread or across several: the collector
stays off while any block runs, then is left as the outermost found it.
"""
import gc
import threading
from contextlib import contextmanager

_lock = threading.Lock()
_depth = 0  # blocks running now, on any thread
_was_enabled = False  # the state the outermost block found


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
