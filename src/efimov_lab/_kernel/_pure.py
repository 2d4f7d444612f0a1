"""The Numerov march of the log-grid radial integrator, in Python and numpy.

`march` carries on from the first two samples, which
`efimov_lab._kernel.integrate_numerov` writes.

The recurrence is Numerov's in Henrici's summed form (J. M. Blatt,
J. Comput. Phys. 1, 382 (1967)).  With c = 1 - (h^2/12) w and y = c g
the rule reads y+ - 2 y + y- = h^2 w g, so the march carries y and its
first difference d and adds h^2 w_i g_i to d once per step:

    d += h^2 w_i g_i,   y += d,   g_{i+1} = y / c_{i+1}.

The plain form g+ = ((12 - 10 c) g - c g-) / c+ keeps h^2 w only in the
low bits of c, so its round-off grows as h shrinks; the summed form adds
h^2 w g to d whole, and the levels keep converging as h^4 down to
h = 1/1024.

The work is split three ways so that the Python-level loop carries only
what is sequential:

1. numpy builds c = 1 - (h^2/12) w and h^2 w for the whole grid.
2. One scalar loop runs the summed recurrence from g[0] and g[1] over
   Python floats and divides y, d and g together by |g| when |g| passes
   RESCALE_THRESHOLD, so samples keep the scale of their segment.
3. numpy then writes the samples from g[2] on and counts nodes as sign
   changes between consecutive nonzero samples (a NaN counts as negative
   and -0.0 as zero).
"""

from __future__ import annotations

from itertools import islice

import numpy as np

RESCALE_THRESHOLD = 1e250


def march(w, h, g):
    """Fill `g` (float64, len(w) >= 2) from g[2] on and return the node count.

    See `efimov_lab._kernel.integrate_numerov` for the meaning of the
    arguments and outputs.
    """
    h2 = h * h
    c = 1.0 - (h2 / 12.0) * w
    h2w = (h2 * w[1:-1]).tolist()
    c = c.tolist()

    gi = float(g[1])
    y = c[1] * gi
    d = y - c[0] * float(g[0])
    gl = []
    append = gl.append  # local names are faster to read in the loop
    top = RESCALE_THRESHOLD
    bottom = -top
    for hw, cp in zip(h2w, islice(c, 2, None)):
        d += hw * gi
        y += d
        gi = y / cp
        if gi > top or gi < bottom:
            scale = abs(gi)
            y /= scale
            d /= scale
            gi /= scale
        append(gi)

    g[2:] = np.fromiter(gl, dtype=np.float64, count=len(gl))
    positive = g[g != 0.0] > 0.0
    return int(np.count_nonzero(positive[1:] != positive[:-1]))
