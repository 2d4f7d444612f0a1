"""Pure-Python reference kernel for the log-grid radial integrator.

`march` is the backend half of `efimov_lab._kernel.integrate_numerov`;
the C extension `_numerov.c` repeats its arithmetic in the same order
and is tested against it bit for bit.
"""

from __future__ import annotations

import math

RESCALE_THRESHOLD = 1e250


def march(w, h, g0, dg0, g, log_scale):
    """Fill `g` and `log_scale` (float64, len(w) >= 2) and return the node count.

    See `efimov_lab._kernel.integrate_numerov` for the meaning of the
    arguments and outputs.
    """
    wl = w.tolist()
    n = len(wl)
    gl = [0.0] * n
    ls = [0.0] * n
    h2 = h * h
    c12 = h2 / 12.0

    gm = g0
    # fourth-order start: Taylor with dw approximated one-sidedly
    dw = (wl[1] - wl[0]) / h
    gi = gm + h * dg0 + 0.5 * h2 * wl[0] * gm \
        + (h2 * h / 6.0) * (wl[0] * dg0 + dw * gm)
    gl[0] = gm
    gl[1] = gi

    running_log = 0.0
    nodes = 0
    sign_prev = 0
    if gm != 0.0:
        sign_prev = 1 if gm > 0.0 else -1
    if gi != 0.0:
        s = 1 if gi > 0.0 else -1
        if sign_prev != 0 and s != sign_prev:
            nodes += 1
        sign_prev = s

    top = RESCALE_THRESHOLD  # a local name is faster to read in the loop
    cm = 1.0 - c12 * wl[0]
    ci = 1.0 - c12 * wl[1]
    for i in range(1, n - 1):
        cp = 1.0 - c12 * wl[i + 1]
        gp = ((12.0 - 10.0 * ci) * gi - cm * gm) / cp
        if gp > top or gp < -top:
            scale = abs(gp)
            gi /= scale
            gp /= scale
            running_log += math.log(scale)
        gl[i + 1] = gp
        ls[i + 1] = running_log
        if gp != 0.0:
            s = 1 if gp > 0.0 else -1
            if sign_prev != 0 and s != sign_prev:
                nodes += 1
            sign_prev = s
        gm, gi = gi, gp
        cm, ci = ci, cp

    g[:] = gl
    log_scale[:] = ls
    return nodes
