"""Quadrature rules on the reference triangle and the unit interval.

The reference triangle is T = {(x, y) : x >= 0, y >= 0, x + y <= 1}.
Triangle rules are conical products of a Gauss-Legendre rule and a
Gauss-Jacobi rule with weight (1 - t), so a rule of requested degree d
integrates every bivariate polynomial of total degree <= d exactly.
"""

import functools

import numpy as np
from scipy.special import roots_jacobi, roots_legendre


@functools.lru_cache(maxsize=None)
def interval_rule(degree):
    """Gauss-Legendre rule on [0, 1], exact for polynomials of degree <= degree.

    Returns
    -------
    points : ndarray, shape (n,)
    weights : ndarray, shape (n,), summing to 1.
    """
    n = max(1, (int(degree) + 2) // 2)
    x, w = roots_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


@functools.lru_cache(maxsize=None)
def triangle_rule(degree):
    """Conical product rule on the reference triangle.

    Exact for all polynomials of total degree <= degree.  Weights are
    positive and sum to the triangle area 1/2.

    Returns
    -------
    points : ndarray, shape (n*n, 2)
    weights : ndarray, shape (n*n,)
    """
    u, a = interval_rule(degree)
    # weight (1 - t) on [0, 1] via Jacobi(1, 0) on [-1, 1]
    xj, wj = roots_jacobi(u.size, 1.0, 0.0)
    v = 0.5 * (xj + 1.0)
    b = 0.25 * wj

    # x = u * (1 - v), y = v; dx dy = (1 - v) du dv
    X = u[:, None] * (1.0 - v[None, :])
    Y = np.broadcast_to(v[None, :], X.shape)
    W = a[:, None] * b[None, :]
    pts = np.column_stack([X.ravel(), Y.ravel()])
    return pts, W.ravel()
