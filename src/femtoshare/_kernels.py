"""Hot Monte-Carlo reduction kernels.

The per-trial interference sum over every access point is the simulator's
largest cost after the fading draw.  It is compiled with numba when numba
imports, and runs as a vectorized pure-numpy fallback otherwise.  Both
paths take each path gain as ``hq / d2 ** (alpha/2)``, ``d2`` clamped at
``min_d2``.  The loop takes ``d2`` from coordinate differences.  numpy
takes it as ``|u|^2 + |p|^2 - 2 u.p`` from one ``(trial, 4) @ (4, FAP)``
product, off by under 2.5e-9 relative for access points within 3 km of
the origin and a 1 m^2 ``min_d2``, and sums by a matrix-vector product.
Both take the caller's ``(trial, FAP)`` float64 array ``gain``, which
numpy overwrites with its path gains and the loop leaves alone.  Both
release the GIL (numba's ``nogil=True``; numpy and its BLAS in their array
loops), so the drop threads of :mod:`femtoshare.montecarlo` overlap in it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["USE_NUMBA", "outage_count"]


def _numpy_outage_count(sig, fixed, hq, p_coef, px, py, ux, uy,
                        half_alpha, masks, rb, gamma, min_d2, skip, gain):
    # (trial, FAP) faded path gain, built in the caller's buffer from d2
    np.matmul(np.column_stack([-2.0 * ux, -2.0 * uy, np.ones_like(ux), ux * ux + uy * uy]),
              np.stack([px, py, px * px + py * py, np.ones_like(px)]), out=gain)
    np.maximum(gain, min_d2, out=gain)
    np.power(gain, half_alpha, out=gain)
    np.divide(hq, gain, out=gain)
    if not masks.all():
        gain *= masks[:, rb].T
    if skip >= 0:
        gain[:, skip] = 0.0
    interf = fixed + gain @ p_coef
    return int(np.count_nonzero((interf > 0.0) & (sig < gamma * interf)))


def _loop_outage_count(sig, fixed, hq, p_coef, px, py, ux, uy,
                       half_alpha, masks, rb, gamma, min_d2, skip, gain):
    n_trials = sig.shape[0]
    n_fap = px.shape[0]
    count = 0
    for t in range(n_trials):
        acc = fixed[t]
        r = rb[t]
        for i in range(n_fap):
            if i == skip or not masks[i, r]:
                continue
            ex = px[i] - ux[t]
            ey = py[i] - uy[t]
            d2 = ex * ex + ey * ey
            if d2 < min_d2:
                d2 = min_d2
            acc += p_coef[i] * (hq[t, i] / d2 ** half_alpha)
        if acc > 0.0 and sig[t] < gamma * acc:
            count += 1
    return count


try:
    from numba import njit
except ImportError:  # numba is an optional extra; this is the default without it
    USE_NUMBA = False
    outage_count = _numpy_outage_count
else:
    outage_count = njit(_loop_outage_count, cache=True, fastmath=False, nogil=True)
    USE_NUMBA = True
