"""The Numerov march of the log-grid radial integrator, in Python and numpy.

`march` carries on from the first two samples, which
`efimov_lab._kernel.integrate_numerov` computes.

The recurrence is Numerov's in Henrici's summed form (J. M. Blatt,
J. Comput. Phys. 1, 382 (1967)).  With c = 1 - (h^2/12) w and y = c g
the rule reads y+ - 2 y + y- = h^2 w g = (h^2 w / c) y, so the march
carries y and its first difference d alone:

    d += a_i y_i,   y_{i+1} = y_i + d,   a_i = h^2 w_i / c_i,

and g = y / c follows from it afterwards.  The plain form
g+ = ((12 - 10 c) g - c g-) / c+ keeps h^2 w only in the low bits of c, so
its round-off grows as h shrinks; the summed form adds a_i y_i to d whole, and
the levels keep converging as h^4 down to h = 1/1024.

The work is split three ways so that the Python-level loop carries only
what is sequential:

1. numpy builds c and a for the whole grid, once per call; the loop reads
   a as Python floats through one memoryview.
2. One scalar loop runs the summed recurrence from g[0] and g[1], counts
   nodes on y as it goes, and keeps each y only when asked.  A node is a
   sign change between consecutive nonzero samples; a NaN counts as
   negative and -0.0 as zero.  Each step makes one test: does y lie
   between the bounds that hold a value of the last nonzero sign below
   RESCALE_THRESHOLD?  Only a sign change, a zero, a NaN or a |y| past the
   threshold fails it.  Past the threshold y and d are divided together by
   |y|, so samples keep the scale of their segment.
3. g = y / c is formed afterwards, by numpy from the kept y, or from the
   last y alone.

Where every c is positive, y has the sign of g, and the count made on y is
the count on g (but for a y so close to zero that y / c underflows to 0,
which no march of a normal solution reaches).  That holds in every march
of the library: the step bound of its workspaces keeps c positive up to
the tail cutoff.  Where some c is not positive, or is NaN, as when the
step is too large for w, the same loop keeps every y and numpy counts the
nodes on g = y / c afterwards.  A c of exactly 0 past the first two points
leaves g undefined there and is refused.
"""

from __future__ import annotations

import math

import numpy as np

RESCALE_THRESHOLD = 1e250

_TINY = math.ulp(0.0)   # the least positive double: 0 < y is _TINY <= y


def _nodes(g):
    """Sign changes between consecutive nonzero samples, a NaN counting as negative."""
    positive = g[g != 0.0] > 0.0
    return int(np.count_nonzero(positive[1:] != positive[:-1]))


def march(w, h, g0, g1, samples):
    """(node count, samples) of the march from g0 and g1 across w (float64, n >= 2).

    The samples are g[2:] as an array, or without `samples` g[-1:] alone,
    which is empty where w has two points.  The node count covers g0 and g1
    as well.  See `efimov_lab._kernel.integrate_numerov` for the meaning of
    the arguments and outputs.
    """
    h2 = h * h
    c = w * -(h2 / 12.0)
    c += 1.0
    # one reduction, which a NaN fails too: argmin points at the first NaN, and
    # it skips the Python-level wrapper that makes c.min() three times dearer
    inline = c[c.argmin()] > 0.0
    if not inline:
        zero = np.flatnonzero(c[2:] == 0.0)
        if zero.size:
            i = int(zero[0]) + 2
            raise ValueError(
                f"the Numerov coefficient 1 - h^2 w / 12 is 0 at point {i} "
                f"(w = {float(w[i])!r}, h = {h!r}), where g = y / c is undefined")
    keep = samples or not inline
    # a_i for i = 2 .. n-1; the last feeds a step past the grid, which is dropped
    a = h2 * w[2:]
    a /= c[2:]

    top = RESCALE_THRESHOLD
    bottom = -top
    # a NaN is negative: it is not > 0, and it is != 0
    nodes = int(g0 != 0.0 and g1 != 0.0 and (g0 > 0.0) != (g1 > 0.0))
    last = g1 if g1 != 0.0 else g0
    # [lo, hi] holds a y of the last nonzero sign that needs no rescale; before
    # any nonzero sample it is NaN, which holds nothing
    if last > 0.0:
        lo, hi = _TINY, top
    elif last != 0.0:
        lo, hi = bottom, -_TINY
    else:
        lo = hi = math.nan

    # the first step takes h^2 w_1 g_1 from g1 itself, which holds where c_1 = 0
    c0, c1 = c[:2].tolist()
    y = c1 * g1
    d = y - c0 * g0 + h2 * float(w[1]) * g1
    yl = []
    append = yl.append
    for ai in memoryview(a):
        y += d
        if not (lo <= y and y <= hi):   # two tests run faster than one chained
            if y > top or y < bottom:
                scale = abs(y)
                y /= scale
                d /= scale
            if y > 0.0:
                nodes += hi < 0.0
                lo, hi = _TINY, top
            elif y != 0.0:
                nodes += lo > 0.0
                lo, hi = bottom, -_TINY
        if keep:
            append(y)
        d += ai * y
    if not keep:
        return nodes, np.array([y / float(c[-1])] if len(w) > 2 else [])
    g = np.array(yl) / c[2:]
    if not inline:
        nodes = _nodes(np.concatenate(([g0, g1], g)))
    return nodes, g if samples else g[-1:]
