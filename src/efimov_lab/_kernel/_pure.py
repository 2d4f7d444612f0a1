"""Pure-Python reference kernel for the log-grid radial integrator.

`march` is the backend half of `efimov_lab._kernel.integrate_numerov`;
the C extension `_numerov.c` repeats its arithmetic in the same order
and is tested against it bit for bit.

The work is split three ways so that the Python-level loop carries only
what is sequential:

1. numpy builds the Numerov coefficients c = 1 - (h^2/12) w and
   a = 12 - 10 c for the whole grid.  Element-wise these are the same
   two IEEE operations the C kernel does per step, so the values agree
   bit for bit.
2. One scalar loop runs the recurrence g+ = (a_i g_i - c_{i-1} g-) / c_{i+1}
   over Python floats and divides the running pair by |g+| when that
   passes RESCALE_THRESHOLD, so samples keep the scale of their segment.
3. numpy then writes the samples and counts nodes as sign changes
   between consecutive nonzero samples (a NaN counts as negative and
   -0.0 as zero, as in the C kernel's in-loop count).
"""

from __future__ import annotations

from itertools import islice

import numpy as np

RESCALE_THRESHOLD = 1e250


def march(w, h, g0, dg0, g):
    """Fill `g` (float64, len(w) >= 2) and return the node count.

    See `efimov_lab._kernel.integrate_numerov` for the meaning of the
    arguments and outputs.
    """
    n = len(w)
    h2 = h * h
    c12 = h2 / 12.0
    c = 1.0 - c12 * w
    a = (12.0 - 10.0 * c[1:-1]).tolist()
    c = c.tolist()

    gm = g0
    w0 = float(w[0])
    # fourth-order start: Taylor with dw approximated one-sidedly
    dw = (float(w[1]) - w0) / h
    gi = gm + h * dg0 + 0.5 * h2 * w0 * gm \
        + (h2 * h / 6.0) * (w0 * dg0 + dw * gm)

    gl = [gm, gi]
    append = gl.append  # local names are faster to read in the loop
    top = RESCALE_THRESHOLD
    bottom = -top
    for ai, cm, cp in zip(a, c, islice(c, 2, None)):
        gp = (ai * gi - cm * gm) / cp
        if gp > top or gp < bottom:
            scale = abs(gp)
            gi /= scale
            gp /= scale
        append(gp)
        gm = gi
        gi = gp

    g[:] = np.fromiter(gl, dtype=np.float64, count=n)
    positive = g[g != 0.0] > 0.0
    return int(np.count_nonzero(positive[1:] != positive[:-1]))
