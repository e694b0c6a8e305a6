"""Hierarchical shape functions on the reference triangle.

The local space of degree p is the full polynomial space P_p.  The basis
splits into vertex, edge and interior (bubble) functions:

  vertex   : barycentric coordinates lam_0, lam_1, lam_2
  edge l,k : lam_a * lam_b * psi_{k-2}(lam_b - lam_a),  2 <= k <= p
  bubble   : lam_0 * lam_1 * lam_2 * P_i(lam_1 - lam_0) * P_j(2*lam_2 - 1)

where psi_j is the integrated-Legendre kernel.  With L_k the k-th
integrated Legendre polynomial, L_k(s) = (1 - s^2)/4 * psi_{k-2}(s), so
the trace of an edge function on its edge is L_k of the edge coordinate
and it vanishes on the other two edges.  The kernel is evaluated through
the stable identity psi_{k-2}(s) = -4 c_k P'_{k-1}(s) / ((k-1) k) with
c_k = sqrt((2k-1)/2), which avoids the removable singularity at s = +-1.

Bases are ordered by degree: the degree-p layout is a prefix of the
degree-(p+1) layout, so coefficient vectors embed by zero padding.

Edge functions of odd k are odd under swapping the edge endpoints, so a
local edge whose endpoints appear in the opposite order from the global
edge orientation carries a sign flip on its odd modes.
"""

import functools

import numpy as np

# local edge l is opposite local vertex l
EDGE_VERTICES = ((1, 2), (2, 0), (0, 1))

# gradients of the barycentric coordinates on the reference triangle
GRAD_LAMBDA = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


def n_local(p):
    """Dimension of P_p on a triangle."""
    return (p + 1) * (p + 2) // 2


@functools.lru_cache(maxsize=None)
def layout(p):
    """Mode descriptors for the degree-p local basis, in storage order.

    Returns a tuple of tuples: ("v", i) for vertex modes, ("e", l, k) for
    the degree-k mode on local edge l, ("b", i, j) for the bubble
    lam0*lam1*lam2*P_i(lam1-lam0)*P_j(2*lam2-1) of degree i + j + 3.
    """
    modes = [("v", 0), ("v", 1), ("v", 2)]
    for k in range(2, p + 1):
        for l in range(3):
            modes.append(("e", l, k))
        for j in range(k - 2):
            modes.append(("b", k - 3 - j, j))
    assert len(modes) == n_local(p)
    return tuple(modes)


def _indices(p, kind):
    return np.array([i for i, m in enumerate(layout(p)) if m[0] == kind],
                    dtype=np.int64)


@functools.lru_cache(maxsize=None)
def edge_mode_indices(p):
    """Local indices of edge modes: array (3, p-1), entry [l, k-2]."""
    return _indices(p, "e").reshape(-1, 3).T


@functools.lru_cache(maxsize=None)
def bubble_indices(p):
    return _indices(p, "b")


def legendre_table(x, n, nderiv=1):
    """Legendre polynomials P_0..P_n and derivatives at points x.

    Returns an array of shape (nderiv+1, n+1) + x.shape; entry [d, m] is
    the d-th derivative of P_m, each point's computed on its own.
    """
    x = np.asarray(x, dtype=float)
    T = np.zeros((nderiv + 1, n + 1) + x.shape)
    T[0, 0] = 1.0
    if n >= 1:
        T[0, 1] = x
        if nderiv >= 1:
            T[1, 1] = 1.0
    # (m+1) P_{m+1} = (2m+1) x P_m - m P_{m-1} differentiated d times, all d at once
    d = np.arange(1, nderiv + 1).reshape((-1,) + (1,) * x.ndim)
    lower = np.zeros_like(T[:, 0])  # d P_m^(d-1), and +0 for d = 0
    for m in range(1, n):
        np.multiply(d, T[:-1, m], out=lower[1:])
        T[:, m + 1] = ((2 * m + 1) * (x * T[:, m] + lower) - m * T[:, m - 1]) / (m + 1)
    return T


def _kernel_scale(jmax):
    k = np.arange(2, jmax + 3)
    return -4.0 * np.sqrt((2 * k - 1) / 2.0) / ((k - 1) * k)


def _arguments(lam, one=1.0):
    """The eight factor arguments: lam_0..lam_2, the edge coordinates
    lam_b - lam_a, lam_1 - lam_0, 2 lam_2 - one (gradients: one = 0)."""
    return np.concatenate([lam, [lam[b] - lam[a] for a, b in EDGE_VERTICES],
                           [lam[1] - lam[0], 2.0 * lam[2] - one]])


# factor derivative orders of the gradient (s) and Hessian (s, t) terms, in adding order
_FIRST = [tuple(int(i == s) for i in range(5)) for s in range(5)]
_SECOND = [tuple(map(sum, zip(u, v))) for u in _FIRST for v in _FIRST]


@functools.lru_cache(maxsize=None)
def _factor_rows(p):
    """Per-degree constants of tri_shapes: factor s of mode i taken d times
    is entry [d + shift, m, arg] of the stacked Legendre table, (shift, m,
    arg) = rows[:, s, i] (shift 1: edge kernels, held as scaled P'_(k-1));
    c[s, :, i] is its argument's gradient, cc[5s + t, ab] = c[s, a] c[t, b]."""
    one, rows = (0, 0, 0), []
    for mode in layout(p):
        if mode[0] == "v":
            rows.append([(0, 1, mode[1]), one, one, one, one])
        elif mode[0] == "e":
            a, b = EDGE_VERTICES[mode[1]]
            rows.append([(0, 1, a), (0, 1, b), (1, mode[2] - 1, 3 + mode[1]), one, one])
        else:
            rows.append([(0, 1, 0), (0, 1, 1), (0, 1, 2),
                         (0, mode[1], 6), (0, mode[2], 7)])
    rows = np.array(rows).transpose(2, 1, 0)
    c = np.ascontiguousarray(_arguments(GRAD_LAMBDA, 0.0)[rows[2]].transpose(0, 2, 1))
    return rows, c, (c[:, None, [0, 0, 1]] * c[None, :, [0, 1, 1]]).reshape(25, 3, -1)


def tri_shapes(p, pts, nderiv=1):
    """Shape functions of degree p at reference points.

    Every mode is a product of five 1-D factors, each a function of an
    affine form with constant gradient (unused slots are ones), so
    values, gradients and Hessians all follow from one product rule.
    One Legendre recurrence runs on the eight arguments stacked, the
    products share their prefixes, and sums over slots run in a fixed
    order, so the tables of a point do not depend on the other points.

    Parameters
    ----------
    p : int
        Polynomial degree, >= 1.
    pts : ndarray, shape (n, 2)
        Points in the reference triangle.
    nderiv : int
        0 for values, 1 to add gradients, 2 to add second derivatives.

    Returns
    -------
    dict with "val" (n, nloc), and depending on nderiv "grad"
    (n, nloc, 2) and "hess" (n, nloc, 3) with order (xx, xy, yy).
    ValueError if p < 1 or pts is not of shape (n, 2).
    """
    pts = np.asarray(pts, dtype=float)
    if p < 1 or pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"need p >= 1, points (n, 2); got p = {p}, points {pts.shape}")
    lam = np.stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]])
    T = legendre_table(_arguments(lam), max(p - 1, 1), nderiv + 1)
    T[1:, 1:, 3:6] *= _kernel_scale(max(p - 2, 0))[:, None, None]
    (shift, m, arg), c, cc = _factor_rows(p)
    # the products, left to right, of the factors at each tuple of orders
    # with sum <= nderiv; a product's order-0 child takes its memory
    prod = {(): 1.0}
    for s in range(5):
        f = T[shift[s] + np.arange(nderiv + 1)[:, None], m[s], arg[s]]
        grown = {}
        for o, v in prod.items():
            for d in range(nderiv - sum(o), 0, -1):
                grown[o + (d,)] = v * f[d]
            v *= f[0]
            grown[o + (0,)] = v
        prod = grown
    out = {"val": prod[0, 0, 0, 0, 0].T}
    for key, orders, weights in (("grad", _FIRST, c), ("hess", _SECOND, cc))[:nderiv]:
        acc = np.zeros(weights.shape[1:] + (len(pts),))
        for o, w in zip(orders, weights):
            acc += prod[o] * w[:, :, None]
        out[key] = acc.transpose(2, 1, 0)  # F order: reference_kernels' sums depend on it
    return out
