"""Numerov kernel for the log-grid radial integrator.

`integrate_numerov(w, h, g0, dg0) -> (g, nodes)` checks its inputs,
allocates the samples `g`, writes the first two from a fourth-order
Taylor start and hands them to `_pure.march(w, h, g) -> nodes`, which
marches on from g[0] and g[1] with Numerov's rule in Henrici's summed
form.  The samples converge as h^4 whatever g0 and dg0 are.
"""

from __future__ import annotations

import math

import numpy as np

from . import _pure


def integrate_numerov(w, h, g0, dg0):
    """March g'' = w(t) g across a uniform grid with the Numerov rule.

    Parameters
    ----------
    w : float64 array, length n >= 2
        Coefficient samples on the uniform t grid.
    h : float
        Grid spacing, h > 0.
    g0, dg0 : float
        Value and t-derivative of g at the first point.

    Returns
    -------
    (g, nodes) : ndarray, int
        Samples and the count of strict sign changes between
        consecutive nonzero samples.  Whenever |g| passes the
        renormalization threshold 1e250 the running state is divided by
        |g|, unrecorded; stored samples keep the scale of their own segment.
    """
    w = np.ascontiguousarray(w, dtype=np.float64)
    n = len(w)
    if n < 2:
        raise ValueError(f"at least 2 grid points required, got {n}")
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"step must be positive and finite, got {h!r}")
    h, g0, dg0 = float(h), float(g0), float(dg0)
    h2 = h * h
    w0, w1 = float(w[0]), float(w[1])
    # Taylor start through h^4, from g'' = w g: g^(3) = w' g + w g' and
    # g^(4) = (w^2 + w'') g + 2 w' g'.  With w' to second order and w'' to
    # first, g[1] errs by O(h^5), so the march converges as h^4 for g0 != 0
    # too (a cap, the probe's inward start).  Two points give only a
    # one-sided w' and no w''.
    if n > 2:
        w2 = float(w[2])
        dw = (-3.0 * w0 + 4.0 * w1 - w2) / (2.0 * h)
        d2w = (w0 - 2.0 * w1 + w2) / h2
    else:
        dw = (w1 - w0) / h
        d2w = 0.0
    g = np.empty(n)
    g[0] = g0
    g[1] = (g0 + h * dg0 + 0.5 * h2 * w0 * g0 + (h2 * h / 6.0) * (w0 * dg0 + dw * g0)
            + (h2 * h2 / 24.0) * ((w0 * w0 + d2w) * g0 + 2.0 * dw * dg0))
    return g, _pure.march(w, h, g)
