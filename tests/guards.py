"""Counting and memory probes for the complexity guards.

Guards assert on call counts, counts of lines run and ``tracemalloc`` peaks,
never on wall time: all are the same on every host, however fast it runs.
"""

from __future__ import annotations

import gc
import linecache
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager


@contextmanager
def calls_by_name(*names, module=None):
    """Count the calls of the functions with these names while the block runs.

    The profiler reports every resumption of a generator as a call, so the
    count of ``"<genexpr>"`` is the number of generator frames resumed.  A
    built-in is named by its qualified name, such as ``"list.index"``.  With
    ``module``, only code compiled from that module's file is counted, and
    only the built-in calls made from that code.
    """
    counts = Counter()
    filename = None if module is None else module.__file__

    def profile(frame, event, arg):
        if event == "call":
            name = frame.f_code.co_name
        elif event == "c_call":
            name = getattr(arg, "__qualname__", None)
        else:
            return
        if name in names and (filename is None or frame.f_code.co_filename == filename):
            counts[name] += 1

    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(None)


@contextmanager
def lines_run(fn):
    """Count the lines of ``fn``'s own code run while the block runs, keyed by
    their stripped source text.

    Code nested in ``fn`` (a comprehension, an inner function) and the
    functions it calls are not counted.
    """
    counts = Counter()
    code = fn.__code__

    def local(frame, event, arg):
        if event == "line":
            counts[linecache.getline(code.co_filename, frame.f_lineno).strip()] += 1
        return local

    def trace(frame, event, arg):
        return local if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        yield counts
    finally:
        sys.settrace(previous)


def traced_peak_mb(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak)``: the ``tracemalloc`` peak of the call, in MB.

    A full collection first empties the interpreter's free lists, whose
    reuse would otherwise hide allocations depending on what ran before.
    """
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2**20
