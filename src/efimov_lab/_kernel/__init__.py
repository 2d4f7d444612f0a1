"""Numerov kernel: one contract, two backends.

`integrate_numerov` checks its inputs, allocates the output arrays and
hands them to the backend's `march(w, h, g0, dg0, g, log_scale) -> nodes`.
The backend is the C extension `_numerov` when it has been built
(`python setup.py build_ext --inplace`), and otherwise the pure-Python
`_pure`, the reference the extension is tested against bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from . import _pure

try:
    from . import _numerov as _impl
    BACKEND = "compiled"
except ImportError:
    _impl = _pure
    BACKEND = "pure"


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
    (g, log_scale, nodes) : ndarray, ndarray, int
        Samples, per-point log scale and the count of strict sign
        changes between consecutive nonzero samples.  Whenever |g|
        passes the renormalization threshold 1e250 the running pair is
        rescaled and the accumulated log of the scale is recorded per
        point; stored samples keep the scale of their own segment.
    """
    w = np.ascontiguousarray(w, dtype=np.float64)
    n = len(w)
    if n < 2:
        raise ValueError(f"at least 2 grid points required, got {n}")
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"step must be positive and finite, got {h!r}")
    g = np.empty(n)
    log_scale = np.empty(n)
    nodes = _impl.march(w, float(h), float(g0), float(dg0), g, log_scale)
    return g, log_scale, nodes
