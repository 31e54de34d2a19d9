"""Hot Monte-Carlo reduction kernels.

The per-trial interference sum over every access point is the simulator's
largest cost after the fading draw.  It is compiled with numba when numba
imports, and runs as a vectorized pure-numpy fallback otherwise.  Both
paths compute the same reduction, each path gain as ``hq / d2 ** (alpha/2)``
(numpy squares at alpha = 4); only float summation order differs.  Both
take the caller's ``(trial, FAP)`` float64 arrays ``gain`` and ``dy``: the
numpy path overwrites them with its path-gain and y-offset temporaries,
and the loop leaves them alone.  Both release the GIL (the compiled kernel
is built with ``nogil=True``; numpy does in its array loops), so the drop
threads of :mod:`femtoshare.montecarlo` overlap in it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["USE_NUMBA", "outage_count"]


def _numpy_outage_count(sig, fixed, hq, p_coef, px, py, ux, uy,
                        half_alpha, masks, rb, gamma, min_d2, skip, gain, dy):
    # (trial, FAP) faded path gain, built in the caller's buffer
    np.subtract(px, ux[:, None], out=gain)
    np.square(gain, out=gain)
    np.subtract(py, uy[:, None], out=dy)
    np.square(dy, out=dy)
    gain += dy
    np.maximum(gain, min_d2, out=gain)
    np.power(gain, half_alpha, out=gain)
    np.divide(hq, gain, out=gain)
    if not masks.all():
        gain *= masks[:, rb].T
    if skip >= 0:
        gain[:, skip] = 0.0
    interf = fixed + np.einsum("tn,n->t", gain, p_coef)
    return int(np.count_nonzero((interf > 0.0) & (sig < gamma * interf)))


def _loop_outage_count(sig, fixed, hq, p_coef, px, py, ux, uy,
                       half_alpha, masks, rb, gamma, min_d2, skip, gain, dy):
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
