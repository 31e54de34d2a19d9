"""The Monte-Carlo outage kernel.

The per-trial interference sum over every access point is the simulator's
largest cost after the fading draw.  It runs in numpy: each path gain is
``hq / d2 ** (alpha/2)``, ``d2`` clamped at ``min_d2``, with ``d2`` taken as
``|u|^2 + |p|^2 - 2 u.p`` from one ``(trial, 4) @ (4, FAP)`` product, whose
FAP side a drop builds once, off by under 2.5e-9 relative for access points
within 3 km of the origin and a 1 m^2 ``min_d2``; the gains are summed by a
matrix-vector product.  numpy and its BLAS release the GIL in their array
loops, so the drop threads of :mod:`femtoshare.montecarlo` overlap in it.
"""

from __future__ import annotations

import numpy as np

__all__ = ["outage_count"]

# The kernel has no compiled backend; perfbench/run.py's environment report
# reads this flag to name the backend that ran.
USE_NUMBA = False


def outage_count(sig, fixed, hq, p_coef, fap_rows, every_rb, ux, uy,
                 half_alpha, masks, rb, gamma, min_d2, skip, gain):
    """Victims in outage: those with interference ``fixed[t]`` plus the sum
    over access points ``i`` of ``p_coef[i] * hq[t, i] / d2 ** half_alpha``
    above zero and above ``sig[t] / gamma``.  Victim ``t`` sits at
    ``(ux[t], uy[t])`` in RB ``rb[t]``; access point ``i`` at ``(px[i], py[i])``
    counts only where ``masks[i, rb[t]]`` and ``i != skip``.  A drop builds
    ``fap_rows``, the ``(4, FAP)`` rows ``[px, py, px^2 + py^2, 1]``, and
    ``every_rb``, ``masks.all()``, once.  ``gain`` is a ``(trial, FAP)``
    float64 scratch array, which the kernel overwrites with the path gains;
    with every RB active the call allocates nothing else FAP-sized."""
    rows = np.empty((ux.shape[0], 4))   # C order, as the product's summation order needs
    rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3] = -2.0 * ux, -2.0 * uy, 1.0, ux * ux + uy * uy
    np.matmul(rows, fap_rows, out=gain)
    np.maximum(gain, min_d2, out=gain)
    np.power(gain, half_alpha, out=gain)
    np.divide(hq, gain, out=gain)
    if not every_rb:
        gain *= masks.T[rb]
    if skip >= 0:
        gain[:, skip] = 0.0
    interf = fixed + gain @ p_coef
    return int(np.count_nonzero((interf > 0.0) & (sig < gamma * interf)))
