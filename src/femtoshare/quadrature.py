"""Gauss-Laguerre and Gauss-Hermite rules via Jacobi-matrix eigendecomposition.

Nodes and weights come from the symmetric tridiagonal (Jacobi) matrix of
the three-term recurrence of the orthogonal polynomial family; nodes are
its eigenvalues and weights follow from the first eigenvector components
(Golub-Welsch).  Rules are cached and immutable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["Kind", "QuadratureRule", "make_rule"]

MAX_ORDER = 64


class Kind(enum.Enum):
    LAGUERRE = "laguerre"   # weight e^(-x) on [0, inf)
    HERMITE = "hermite"     # weight e^(-x^2) on (-inf, inf)


@dataclass(frozen=True)
class QuadratureRule:
    kind: Kind
    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def _orthonormal_values(diag, off, mu0, x):
    """Orthonormal-polynomial values p_0..p_{n-1} and the degree-n pair
    (p_n, p_n') at points ``x``, via the three-term recurrence of the
    Jacobi matrix (diagonal ``diag``, off-diagonal ``off``)."""
    n = diag.shape[0]
    x = np.asarray(x, dtype=float)
    p = np.empty((n + 1,) + x.shape)
    dp = np.empty_like(p)
    p[0] = 1.0 / math.sqrt(mu0)
    dp[0] = 0.0
    b_n = math.sqrt(float(n))  # only used to terminate; any positive works
    b = np.concatenate([off, [off[-1] if n > 1 else b_n]])
    p[1] = (x - diag[0]) * p[0] / b[0]
    dp[1] = p[0] / b[0]
    for k in range(1, n):
        p[k + 1] = ((x - diag[k]) * p[k] - b[k - 1] * p[k - 1]) / b[k]
        dp[k + 1] = (p[k] + (x - diag[k]) * dp[k] - b[k - 1] * dp[k - 1]) / b[k]
    return p, dp


@lru_cache(maxsize=None)
def make_rule(kind: Kind, order: int) -> QuadratureRule:
    """Build the rule of the given kind and order (1..64).

    Nodes are the eigenvalues of the dense Jacobi matrix (numpy's
    ``eigvalsh``; the order is at most 64), polished by Newton steps on the
    orthonormal degree-``order`` polynomial; weights come from the
    Christoffel function (reciprocal sum of squared orthonormal values),
    which keeps them accurate where eigenvector components degrade.
    """
    if not isinstance(order, int) or not (1 <= order <= MAX_ORDER):
        raise ValueError(f"order must be an integer in [1, {MAX_ORDER}]")
    k = np.arange(order, dtype=float)
    if kind is Kind.LAGUERRE:
        diag = 2.0 * k + 1.0
        off = k[1:]
        mu0 = 1.0
    elif kind is Kind.HERMITE:
        diag = np.zeros(order)
        off = np.sqrt(k[1:] / 2.0)
        mu0 = math.sqrt(math.pi)
    else:
        raise ValueError(f"unsupported rule kind: {kind!r}")
    if order == 1:
        return QuadratureRule(kind, order, diag.copy(), np.array([mu0]))
    nodes = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    for _ in range(2):
        p, dp = _orthonormal_values(diag, off, mu0, nodes)
        step = p[order] / dp[order]
        nodes = nodes - step
        if np.max(np.abs(step)) < 1e-14 * np.max(np.abs(nodes)):
            break
    p, _ = _orthonormal_values(diag, off, mu0, nodes)
    weights = 1.0 / np.sum(p[:order] ** 2, axis=0)
    return QuadratureRule(kind, order, nodes, weights)
