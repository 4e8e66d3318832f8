"""How a check is cut into blocks, spread over the cores and exactly summed.

:func:`map_blocks` cuts a check into blocks of about ``_EVAL_VALUES`` values,
and :func:`_map` runs blocks, whose numpy work releases the interpreter lock,
on a thread per core.  :func:`exact_sum` adds floats with ``math.fsum``'s bits
without the lock.  Each block is computed and added as it is on one thread, so
no result depends on the number of cores.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

# Values in a block of map_blocks, about 2 MiB of complex values: memory grows
# neither with the number of items nor with their width.
_EVAL_VALUES = 1 << 17

# Most threads _map uses, whatever the number of cores: each holds a block.
_MAX_THREADS = 8

# exact_sum adds the two halves of the values' mantissas in float64, which is
# exact for up to _EXACT_TERMS values; longer inputs are left to math.fsum,
# and so are inputs of at most _FSUM_TERMS values, which fsum adds faster
# than the numpy pass's fixed cost (about 20 us).
_EXACT_TERMS = 1 << 26
_FSUM_TERMS = 512

# exact_sum leaves to math.fsum any input whose magnitudes could sum to
# 2^_EXACT_TOP or more, so that fsum's overflow errors stay its own.
_EXACT_TOP = 1020


def _thread_count() -> int:
    """Threads :func:`_map` may use: one per core this process may run on, at
    most ``_MAX_THREADS``."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(cores, _MAX_THREADS)


def _map(fn, items) -> list:
    """``[fn(item) for item in items]``, the items taken in turn by the calling
    thread and one helper thread per further core.

    Meant for blocks whose numpy work releases the interpreter lock.  ``fn``
    may read shared data and write disjoint parts of an output, and must call
    only private helpers: the benchmark's tracer wraps the public functions,
    and its span stack belongs to the calling thread.  One item, or one core,
    starts no thread.  If items raise, no further item is started, and once
    the started ones have finished, the exception of the first failing item
    is raised unchanged, as the plain loop would raise it.
    """
    items = list(items)
    threads = min(_thread_count(), len(items))
    if threads < 2:
        return [fn(item) for item in items]
    results = [None] * len(items)
    errors = {}
    order = iter(range(len(items)))
    lock = threading.Lock()

    def take():
        with lock:
            return next(order, None)

    def stop():
        with lock:
            for _ in order:
                pass

    def work():
        while (i := take()) is not None:
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # raised again by the caller below
                errors[i] = exc
                stop()

    helpers = []
    try:
        for _ in range(threads - 1):
            helper = threading.Thread(target=work)
            helper.start()
            helpers.append(helper)
        work()
    finally:
        stop()
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def map_blocks(fn, count: int, width: int) -> list:
    """``_map(fn, slices)`` over consecutive slices of ``range(count)`` of
    ``max(1, _EVAL_VALUES // width)`` items, each item ``width`` values wide.
    The slices cover ``range(count)`` once, in order; a count that fits one
    block runs on the calling thread."""
    size = max(1, _EVAL_VALUES // width)
    return _map(fn, [slice(i0, min(i0 + size, count)) for i0 in range(0, count, size)])


def exact_sum(x, ends=None):
    """``math.fsum(x)`` of a float64 array, with most of its work done in
    numpy, without the interpreter lock; with ``ends``, the list of ``fsum(x[:n])`` for each
    ``n`` in ``ends`` (each in ``[0, len(x)]``), from one pass.

    ``np.frexp`` writes each value as ``m * 2^(e-53)`` with ``m`` an integer,
    ``|m| < 2^53``, and ``m`` is split into ``h * 2^26 + l`` with
    ``|h| < 2^27`` and ``|l| < 2^26``.  ``np.bincount`` adds the ``h`` and the
    ``l`` of each exponent within each segment between consecutive ends, and
    a cumulative sum over the segments gives each prefix's totals; float64
    holds every such sum of at most 2^26 values exactly.  The totals are
    joined as one Python integer per prefix, which a single correctly
    rounded division turns into a float.  A correctly rounded sum is unique,
    so the bits are ``fsum``'s.  Input with a non-finite value, with
    magnitudes that could sum to ``2^_EXACT_TOP``, or with more than
    ``_EXACT_TERMS`` or at most ``_FSUM_TERMS`` values goes to ``math.fsum``
    itself, which keeps its results and its errors.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    stops = sorted({x.size} if ends is None else set(ends))
    if stops and not 0 <= stops[0] <= stops[-1] <= x.size:
        raise ValueError(f"prefix ends must lie in [0, {x.size}], got {ends}")
    sums = None
    if _FSUM_TERMS < x.size <= _EXACT_TERMS and np.isfinite(x).all():
        mant, exp = np.frexp(x)
        if int(exp.max()) + x.size.bit_length() <= _EXACT_TOP:
            sums = _exact_prefix_sums(mant, exp, stops)
    if sums is None:
        sums = [math.fsum(x[:n]) for n in stops]
    if ends is None:
        return sums[0]
    by_end = dict(zip(stops, sums))
    return [by_end[n] for n in ends]


def _exact_prefix_sums(mant, exp, stops) -> list[float]:
    """The sums of :func:`exact_sum` for ``frexp`` parts of finite values and
    sorted prefix ends."""
    low = int(exp.min())
    bins = int(exp.max()) - low + 1
    # in place: a helper thread's malloc arena keeps what its blocks allocate
    rest = np.multiply(mant, 2.0**27, out=mant)
    high = np.trunc(rest)
    rest -= high
    rest *= 2.0**26
    index = np.subtract(exp, low, out=exp)
    segments = len(stops) + 1
    if stops != [mant.size]:
        counts = np.diff([0, *stops, mant.size])
        index = index + bins * np.repeat(np.arange(segments), counts)
    highs, rests = (
        np.cumsum(np.bincount(index, weights=part, minlength=bins * segments)
                  .reshape(segments, bins)[:-1], axis=0).tolist()
        for part in (high, rest))
    shift = low - 53
    sums = []
    for high_row, rest_row in zip(highs, rests):
        whole = 0
        for h, r in zip(reversed(high_row), reversed(rest_row)):
            whole = (whole << 1) + (int(h) << 26) + int(r)
        sums.append(whole / (1 << -shift) if shift < 0 else float(whole << shift))
    return sums
