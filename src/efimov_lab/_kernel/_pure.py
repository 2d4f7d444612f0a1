"""The Numerov march of the log-grid radial integrator, in Python and numpy.

`march` carries on from the first two samples, which
`efimov_lab._kernel.integrate_numerov` computes.

The recurrence is Numerov's in Henrici's summed form (J. M. Blatt,
J. Comput. Phys. 1, 382 (1967)).  With c = 1 - (h^2/12) w and y = c g
the rule reads y+ - 2 y + y- = h^2 w g, so the march carries y and its
first difference d and adds h^2 w_i g_i to d once per step:

    d += h^2 w_i g_i,   y += d,   g_{i+1} = y / c_{i+1}.

The plain form g+ = ((12 - 10 c) g - c g-) / c+ keeps h^2 w only in the
low bits of c, so its round-off grows as h shrinks; the summed form adds
h^2 w g to d whole, and the levels keep converging as h^4 down to
h = 1/1024.

The work is split two ways so that the Python-level loop carries only
what is sequential:

1. numpy builds c = 1 - (h^2/12) w and h^2 w for the whole grid, which
   the loop reads as Python floats through memoryviews.
2. One scalar loop runs the summed recurrence from g[0] and g[1], counts
   nodes as it goes, and keeps each sample only when asked.  A node is a
   sign change between consecutive nonzero samples; a NaN counts as
   negative and -0.0 as zero.  Each step makes one test: does g lie
   between the bounds that hold a sample of the last nonzero sample's sign
   below RESCALE_THRESHOLD?  Only a sign change, a zero, a NaN or a sample
   past the threshold fails it.  Past the threshold y, d and g are divided
   together by |g|, so samples keep the scale of their segment.
"""

from __future__ import annotations

import math

RESCALE_THRESHOLD = 1e250

_TINY = math.ulp(0.0)   # the least positive double: 0 < g is _TINY <= g


def march(w, h, g0, g1, samples):
    """(node count, samples) of the march from g0 and g1 across w (float64, n >= 2).

    With `samples` the samples are g[2:] as a list; without, a list holding
    only the last sample, g1 where w has two points.  The node count covers
    g0 and g1 as well.  See `efimov_lab._kernel.integrate_numerov` for the
    meaning of the arguments and outputs.
    """
    h2 = h * h
    c = memoryview(1.0 - (h2 / 12.0) * w)
    h2w = memoryview(h2 * w[1:-1])

    top = RESCALE_THRESHOLD
    bottom = -top
    signs = [v > 0.0 for v in (g0, g1) if v != 0.0]   # a NaN is negative
    nodes = int(len(signs) == 2 and signs[0] != signs[1])
    # [lo, hi] holds a sample of the last nonzero sign that needs no rescale;
    # before any nonzero sample it is NaN, which holds nothing
    if not signs:
        lo = hi = math.nan
    elif signs[-1]:
        lo, hi = _TINY, top
    else:
        lo, hi = bottom, -_TINY

    gi = g1
    y = c[1] * gi
    d = y - c[0] * g0
    gl = []
    append = gl.append
    for hw, cp in zip(h2w, c[2:]):
        d += hw * gi
        y += d
        gi = y / cp
        if not lo <= gi <= hi:
            if gi > top or gi < bottom:
                scale = abs(gi)
                y /= scale
                d /= scale
                gi /= scale
            if gi > 0.0:
                nodes += hi < 0.0
                lo, hi = _TINY, top
            elif gi != 0.0:
                nodes += lo > 0.0
                lo, hi = bottom, -_TINY
        if samples:
            append(gi)
    return nodes, gl if samples else [gi]
