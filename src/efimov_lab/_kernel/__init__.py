"""Numerov kernel for the log-grid radial integrator.

`integrate_numerov(w, h, g0, dg0, samples=True) -> (g, nodes)` checks its
inputs, computes the first two samples and hands them to
`_pure.march(w, h, g0, g1, samples) -> (nodes, samples)`, which marches on
from them with Numerov's rule in Henrici's summed form and counts nodes as
it goes.  With `samples=False` the march keeps no samples and `g` holds the
last one alone, so `g[-1]` is the end value either way; the node count and
the arithmetic of every step are the same.

g[1] is the Taylor series of g through h^6 plus h^6 g^(6)(0) / 480, a term
of the order of the march's own local error -h^6 g^(6) / 240.  Even the
exact start g(h) leaves the march a homogeneous error of order h^5 with
zero value and nonzero slope at t = 0.  Behind a hard wall (g0 = 0) that is
a multiple of the solution and moves no level; from g0 != 0 (a cap, the
probe's inward start) it moves the log-derivative at t = 0, and so every
level, by O(h^5).  The added term cancels it: the samples converge as h^4
whatever g0 and dg0 are, and the levels after Richardson extrapolation as
h^6.  Fewer than seven points keep a Taylor start through h^4.
"""

from __future__ import annotations

import math

import numpy as np

from . import _pure


def _sixth_order_start(w, h, g0, dg0):
    """g(h) through h^6 from g'' = w g, plus h^6 g^(6)(0) / 480; len(w) >= 7."""
    w0, w1, w2, w3, w4, w5, w6 = w[:7].tolist()
    # the first four derivatives at t = 0 of the degree-6 polynomial through
    # w[0..6], with exact weights, written out: a loop over a table of them
    # made the start several times slower
    dw = (-147.0 * w0 + 360.0 * w1 - 450.0 * w2 + 400.0 * w3 - 225.0 * w4 + 72.0 * w5
          - 10.0 * w6) / (60.0 * h)
    d2w = (812.0 * w0 - 3132.0 * w1 + 5265.0 * w2 - 5080.0 * w3 + 2970.0 * w4 - 972.0 * w5
           + 137.0 * w6) / (180.0 * h ** 2)
    d3w = (-49.0 * w0 + 232.0 * w1 - 461.0 * w2 + 496.0 * w3 - 307.0 * w4 + 104.0 * w5
           - 15.0 * w6) / (8.0 * h ** 3)
    d4w = (35.0 * w0 - 186.0 * w1 + 411.0 * w2 - 484.0 * w3 + 321.0 * w4 - 114.0 * w5
           + 17.0 * w6) / (6.0 * h ** 4)
    # g^(n+2) = sum_k C(n, k) w^(k) g^(n-k) (Leibniz)
    g2 = w0 * g0
    g3 = dw * g0 + w0 * dg0
    g4 = d2w * g0 + 2.0 * dw * dg0 + w0 * g2
    g5 = d3w * g0 + 3.0 * d2w * dg0 + 3.0 * dw * g2 + w0 * g3
    g6 = d4w * g0 + 4.0 * d3w * dg0 + 6.0 * d2w * g2 + 4.0 * dw * g3 + w0 * g4
    # 1/720 from the series and 1/480 from the march: h^6 g^(6) / 288
    return g0 + h * (dg0 + h * (g2 / 2.0 + h * (g3 / 6.0 + h * (
        g4 / 24.0 + h * (g5 / 120.0 + h * (g6 / 288.0))))))


def integrate_numerov(w, h, g0, dg0, samples=True):
    """March g'' = w(t) g across a uniform grid with the Numerov rule.

    Parameters
    ----------
    w : float64 array, length n >= 2
        Coefficient samples on the uniform t grid.
    h : float
        Grid spacing, h > 0.
    g0, dg0 : float
        Value and t-derivative of g at the first point.
    samples : bool
        Keep every sample.  Without, `g` holds only the last one, for a
        caller that reads no more than the node count and the end value.

    Returns
    -------
    (g, nodes) : ndarray, int
        Samples (length n, or 1 without `samples`) and the count of strict
        sign changes between consecutive nonzero samples, where a NaN counts
        as negative and -0.0 as zero.  Whenever |g| passes the
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
    if n >= 7:
        g1 = _sixth_order_start(w, h, g0, dg0)
    else:
        # the Taylor start through h^4, with w' to second order and w'' to
        # first; two points give only a one-sided w' and no w''
        h2 = h * h
        w0, w1 = float(w[0]), float(w[1])
        if n > 2:
            w2 = float(w[2])
            dw = (-3.0 * w0 + 4.0 * w1 - w2) / (2.0 * h)
            d2w = (w0 - 2.0 * w1 + w2) / h2
        else:
            dw = (w1 - w0) / h
            d2w = 0.0
        g1 = (g0 + h * dg0 + 0.5 * h2 * w0 * g0 + (h2 * h / 6.0) * (w0 * dg0 + dw * g0)
              + (h2 * h2 / 24.0) * ((w0 * w0 + d2w) * g0 + 2.0 * dw * dg0))
    nodes, tail = _pure.march(w, h, g0, g1, samples)
    if not samples:
        return np.array(tail), nodes
    g = np.empty(n)
    g[0], g[1] = g0, g1
    g[2:] = tail
    return g, nodes
