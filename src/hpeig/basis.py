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

    Returns an array of shape (nderiv+1, n+1, len(x)); entry [d, m] is
    the d-th derivative of P_m.
    """
    x = np.asarray(x, dtype=float)
    T = np.zeros((nderiv + 1, n + 1, x.shape[0]))
    T[0, 0] = 1.0
    if n >= 1:
        T[0, 1] = x
        if nderiv >= 1:
            T[1, 1] = 1.0
    # (m+1) P_{m+1} = (2m+1) x P_m - m P_{m-1}, differentiated d times
    for m in range(1, n):
        for d in range(nderiv + 1):
            lower = d * T[d - 1, m] if d >= 1 else 0.0
            T[d, m + 1] = ((2 * m + 1) * (x * T[d, m] + lower) - m * T[d, m - 1]) / (m + 1)
    return T


def kernel_table(x, jmax, nderiv=0):
    """Kernels psi_0..psi_jmax and derivatives at points x.

    Returns shape (nderiv+1, jmax+1, len(x)).  psi_j has degree j.
    """
    k = np.arange(2, jmax + 3)
    scale = -4.0 * np.sqrt((2 * k - 1) / 2.0) / ((k - 1) * k)
    return scale[:, None] * legendre_table(x, jmax + 1, nderiv + 1)[1:, 1:]


@functools.lru_cache(maxsize=None)
def _factor_rows(p):
    """Rows of the 1-D factor table that make up each mode, (nloc, 5).

    The table holds P_0 and P_1 of lam_0..lam_2 (so row 0 is the
    constant one and row 2i+1 is lam_i), the kernels of the three
    edges, then P_i(lam_1 - lam_0) and P_j(2 lam_2 - 1).
    """
    nk, nb = max(p - 1, 1), max(p - 2, 1)
    leg_u = 6 + 3 * nk
    rows = []
    for mode in layout(p):
        if mode[0] == "v":
            rows.append((2 * mode[1] + 1, 0, 0, 0, 0))
        elif mode[0] == "e":
            _, l, k = mode
            a, b = EDGE_VERTICES[l]
            rows.append((2 * a + 1, 2 * b + 1, 6 + l * nk + k - 2, 0, 0))
        else:
            rows.append((1, 3, 5, leg_u + mode[1], leg_u + nb + mode[2]))
    return np.array(rows, dtype=np.int64)


def tri_shapes(p, pts, nderiv=1):
    """Shape functions of degree p at reference points.

    Every mode is a product of five 1-D factors, each a function of an
    affine form with constant gradient (unused slots are ones), so
    values, gradients and Hessians all follow from one product rule.

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
    """
    pts = np.asarray(pts, dtype=float)
    lam = np.stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]])
    # families of 1-D factors in _factor_rows order: (table, argument,
    # its constant gradient, top index)
    fam = [(legendre_table, lam[i], GRAD_LAMBDA[i], 1) for i in range(3)]
    fam += [(kernel_table, lam[b] - lam[a], GRAD_LAMBDA[b] - GRAD_LAMBDA[a],
             max(p - 2, 0)) for a, b in EDGE_VERTICES]
    fam += [(legendre_table, x, g, max(p - 3, 0)) for x, g in (
        (lam[1] - lam[0], GRAD_LAMBDA[1] - GRAD_LAMBDA[0]),
        (2.0 * lam[2] - 1.0, 2.0 * GRAD_LAMBDA[2]))]
    rows = _factor_rows(p)
    f = np.concatenate([table(x, n, nderiv) for table, x, _, n in fam],
                       axis=1)[:, rows]            # (nderiv+1, nloc, 5, npts)
    c = np.concatenate([np.tile(g, (n + 1, 1)) for _, _, g, n in fam])[rows]

    def product(orders):
        # the mode product with factor s differentiated orders[s] times
        out = f[orders[0], :, 0]
        for s in range(1, 5):
            out = out * f[orders[s], :, s]
        return out

    unit = np.eye(5, dtype=np.int64)
    out = {"val": product(0 * unit[0]).T}
    if nderiv >= 1:
        d1 = np.array([product(u) for u in unit])
        out["grad"] = np.einsum("slq,lsa->qla", d1, c)
    if nderiv >= 2:
        d2 = np.array([[product(u + v) for v in unit] for u in unit])
        hess = np.einsum("stlq,lsa,ltb->qlab", d2, c, c)
        out["hess"] = hess[:, :, [0, 0, 1], [0, 1, 1]]
    return out
