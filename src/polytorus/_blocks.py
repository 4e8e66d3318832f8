"""Correctly rounded sums for the checks.

:func:`exact_sum` adds floats with ``math.fsum``'s bits, most of its work in
numpy: about 6 times faster than ``math.fsum`` at 50,000 values, and it gives
every prefix sum of one input in one pass.
"""

from __future__ import annotations

import math

import numpy as np

# exact_sum adds the two halves of the values' mantissas in float64, which is
# exact for up to _EXACT_TERMS values; longer inputs are left to math.fsum,
# and so are inputs of at most _FSUM_TERMS values, which fsum adds faster
# than the numpy pass's fixed cost (about 20 us).
_EXACT_TERMS = 1 << 26
_FSUM_TERMS = 512

# exact_sum leaves to math.fsum any input whose magnitudes could sum to
# 2^_EXACT_TOP or more, so that fsum's overflow errors stay its own.
_EXACT_TOP = 1020


def exact_sum(x, ends=None):
    """``math.fsum(x)`` of a float64 array, with most of its work done in
    numpy; with ``ends``, the list of ``fsum(x[:n])`` for each ``n`` in
    ``ends`` (each in ``[0, len(x)]``), from one pass.

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
