"""Assembly of stiffness, mass and load for piecewise constant data.

The bilinear forms are

    B(u, v) = int A grad(u) . grad(v) + c u v,      (u, v) = int u v

with A a symmetric positive definite 2x2 matrix and c >= 0 a scalar,
both constant on each material region.  Because the data is constant
per element and reference maps are affine, every element matrix is a
contraction of precomputed reference matrices:

    K_loc = sum_ab C_ab S_ab + c detJ M_ref,
    C = detJ Jinv A Jinv^T,   S_ab = G_a^T W G_b

so each degree group's element matrices are one product: one row
[C_00, C_01, C_10, C_11, c detJ] per element times the stacked table
[S; M] (5 x nl^2).  Each element matrix is symmetrized before the sum.
Two distinct dofs of a conforming mesh share at most two elements, and
a + b == b + a in floating point, so the summed CSR matrix is exactly
symmetric without a global A + A^T.  It keeps every element-clique
entry, zeros included: its pattern depends only on the DofHandler.
The scatter fills one preallocated int32 COO triple group by group, so
no per-group lists are joined into copies before SciPy sums it to CSR.
"""

import functools

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .basis import EDGE_VERTICES, tri_shapes
from .mesh import CHILD_POSITIONS
from .quadrature import interval_rule, triangle_rule


class Coefficients:
    """Material data per region: x -> (A, c), constant on each region.

    Parameters
    ----------
    A : (k, 2, 2) or (2, 2) array, symmetric positive definite, per region.
    c : (k,) array or scalar, nonnegative, per region.
    """

    def __init__(self, A=((1.0, 0.0), (0.0, 1.0)), c=0.0):
        A = np.asarray(A, dtype=float)
        c = np.asarray(c, dtype=float)
        if A.ndim not in (2, 3) or A.shape[-2:] != (2, 2) or c.ndim > 1:
            raise ValueError("A needs shape (2, 2) or (k, 2, 2) and c shape () "
                             f"or (k,), got {A.shape} and {c.shape}")
        self.A = A[None] if A.ndim == 2 else A
        self.c = np.atleast_1d(c)
        if not (np.isfinite(self.A).all() and np.isfinite(self.c).all()):
            raise ValueError("A and c must be finite")
        for i, Ai in enumerate(self.A):
            if not np.allclose(Ai, Ai.T, atol=1e-14):
                raise ValueError(f"A[{i}] is not symmetric")
            if np.linalg.eigvalsh(Ai).min() <= 0:
                raise ValueError(f"A[{i}] is not positive definite")
        if self.c.min() < 0:
            raise ValueError("c must be nonnegative")

    def on_elements(self, mesh):
        """Per-element (A (ne,2,2), c (ne,)) resolved through regions."""
        nr = int(mesh.region.max()) + 1 if mesh.n_elements else 1
        A = self.A if self.A.shape[0] > 1 else np.repeat(self.A, nr, axis=0)
        c = self.c if self.c.shape[0] > 1 else np.repeat(self.c, nr)
        if A.shape[0] < nr or c.shape[0] < nr:
            raise ValueError("fewer material entries than mesh regions")
        return A[mesh.region], c[mesh.region]


@functools.lru_cache(maxsize=None)
def reference_kernels(p):
    """Cached reference tables for degree p on the triangle.

    Every basis and quadrature evaluation in hpeig happens here, in three
    tri_shapes calls: quadrature, child-image and edge points.
    Returns dict with quadrature (pts, w) exact to degree 2p, value
    table V (nq, nl), residual table VH (4 nq, nl): V, then the Hessian
    xx, xy, yy rows, in Fortran order, mass M (nl, nl), the stacked
    table SM (5, nl, nl) holding the stiffness blocks S_00, S_01, S_10,
    S_11 and then M, the modal table R (nl, nl), the child tables C (6,
    nl, nl): C[i] = P V(images of pts in mesh.CHILD_POSITIONS[i]), with
    P = M^-1 V^T W the L2 projector, maps a degree-p function on a parent
    to its coefficients on that child, and the edge table E (3, 2 nqe,
    nl) with weights Ew (nqe,): E[l] holds the x then y derivatives at
    the points of interval_rule(2p + 2) on local edge l, from its first
    local vertex to its second.  As s + s[::-1] == 1 and w == w[::-1]
    exactly, a side running back reads them in reverse order.

    R maps local coefficients to coefficients in an L2-orthonormal
    basis graded by degree (R^T R = M): block q, the entries
    n_local(q-1)..n_local(q)-1, is orthogonal to P_(q-1).  It is the
    triangular factor of W^(1/2) V T times T^-1, where T swaps lam_0
    for the constant lam_0 + lam_1 + lam_2, so that the leading
    n_local(q) columns of V T span P_q.  Assembly reads SM and M;
    the estimator's interior residual reads VH, and its edge jumps
    read E and Ew of the largest degree; transfer reads C; the hp
    decision reads R.  The basis is hierarchical, so the leading
    n_local(q) columns of V, VH, C and E serve degree q.
    """
    pts, w = triangle_rule(2 * p)
    V, G, H = tri_shapes(p, pts, nderiv=2).values()
    nl = V.shape[1]
    G = G.reshape(len(w), 2 * nl)  # column 2 i + a: derivative a of mode i
    S = ((G * w[:, None]).T @ G).reshape(nl, 2, nl, 2).transpose(1, 3, 0, 2)
    M = (V * w[:, None]).T @ V
    SM = np.concatenate([S.reshape(4, nl, nl), M[None]])
    # least squares on W^(1/2) V: the condition number of M, 4e13 at
    # p = 12, enters only through its square root
    sw = np.sqrt(w)
    P = np.linalg.lstsq(V * sw[:, None], np.diag(sw), rcond=None)[0]
    corner = CHILD_POSITIONS[:, :1]
    images = corner + np.einsum("qb,iba->iqa", pts,
                                CHILD_POSITIONS[:, 1:] - corner)
    V_child = tri_shapes(p, images.reshape(-1, 2), nderiv=0)["val"]
    C = P @ V_child.reshape(6, pts.shape[0], -1)
    T = np.eye(nl)
    T[1:3, 0] = 1.0
    R = np.linalg.qr(V @ T * sw[:, None], mode="r")
    R[:, 0] -= R[:, 1:3].sum(axis=1)  # times T^-1
    s, Ew = interval_rule(2 * p + 2)
    ends = np.eye(3)[:, 1:][list(EDGE_VERTICES)]
    on_edges = ends[:, :1] * (1.0 - s)[:, None] + ends[:, 1:] * s[:, None]
    grad = tri_shapes(p, on_edges.reshape(-1, 2), nderiv=1)["grad"]
    E = np.moveaxis(grad.reshape(3, s.size, nl, 2), 3, 1).reshape(3, -1, nl)
    VH = np.asfortranarray(np.concatenate([V, *np.moveaxis(H, 2, 0)]))
    return {"pts": pts, "w": w, "V": V, "VH": VH, "SM": SM, "M": M, "R": R,
            "C": C, "E": E, "Ew": Ew}


def pulled_back_diffusion(Jinv, A):
    """Jinv A Jinv^T per element: A pulled back to the reference element."""
    return Jinv @ A @ Jinv.transpose(0, 2, 1)


def _symmetrized(loc):
    """(loc + loc^T) / 2 per element matrix."""
    loc = loc + loc.transpose(0, 2, 1)
    loc *= 0.5
    return loc


def _scatter(n, maps, blocks):
    """CSR sum of element matrices on n dofs.

    maps lists (l2g, signs) pairs of (K, nl) tables, as in DofHandler.groups,
    and blocks the matching unsigned (K, nl, nl) matrices, signed in place.
    The int32 COO triple is allocated once and filled in table order.
    """
    ends = np.cumsum([0] + [np.sum(np.count_nonzero(g >= 0, axis=1) ** 2)
                            for g, _ in maps])
    rows, cols = np.empty((2, ends[-1]), dtype=np.int32)
    vals = np.empty(ends[-1])
    for (g, s), loc, a, b in zip(maps, blocks, ends, ends[1:]):
        loc *= s[:, :, None]
        loc *= s[:, None, :]
        ok = (g[:, :, None] >= 0) & (g[:, None, :] >= 0)
        rows[a:b] = np.broadcast_to(g[:, :, None], loc.shape)[ok]
        cols[a:b] = np.broadcast_to(g[:, None, :], loc.shape)[ok]
        vals[a:b] = loc[ok]
    return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def element_stiffness(handler, coeffs, p):
    """Element matrices of B(u, v) on the degree-p group, symmetrized and in
    reference orientation: DofHandler.gather or _scatter applies the signs."""
    mesh = handler.mesh
    ids = handler.groups[p][0]
    A_el, c_el = coeffs.on_elements(mesh)
    SM = reference_kernels(p)["SM"]
    detJ = mesh.detJ[ids]
    C = detJ[:, None, None] * pulled_back_diffusion(mesh.Jinv[ids], A_el[ids])
    rows = np.column_stack([C.reshape(-1, 4), c_el[ids] * detJ])
    return _symmetrized((rows @ SM.reshape(5, -1)).reshape(-1, *SM.shape[1:]))


def assemble_stiffness(handler, coeffs):
    """Matrix of B(u, v) on the handler's dofs, CSR."""
    return _scatter(handler.n_dofs, [(g, s) for _, g, s in handler.groups.values()],
                    (element_stiffness(handler, coeffs, p)
                     for p in handler.groups))


def assemble_mass(handler):
    """Matrix of the L2 inner product on the handler's dofs, CSR."""
    detJ = handler.mesh.detJ[:, None, None]
    return _scatter(handler.n_dofs, [(g, s) for _, g, s in handler.groups.values()],
                    (_symmetrized(detJ[ids] * reference_kernels(p)["M"])
                     for p, (ids, _, _) in handler.groups.items()))


def mass_operator(handler):
    """assemble_mass(handler) as a LinearOperator: per vector, each degree
    group's DofHandler.gather times the symmetrized reference mass and the
    detJ-sign scale, then one bincount; scipy applies it column by column."""
    n, groups, detJ = handler.n_dofs, handler.groups, handler.mesh.detJ
    blocks = {p: (reference_kernels(p)["M"], s * detJ[ids, None])
              for p, (ids, _, s) in groups.items()}
    blocks = {p: (0.5 * (M + M.T), scale) for p, (M, scale) in blocks.items()}
    dofs = np.concatenate([np.maximum(g, 0).ravel() for _, g, _ in groups.values()])

    def apply(x):
        if not n:
            return np.zeros(0)
        x = x.ravel()
        out = [(handler.gather(x, p) @ M) * scale for p, (M, scale) in blocks.items()]
        return np.bincount(dofs, np.concatenate(out, axis=None), minlength=n)

    return scipy.sparse.linalg.LinearOperator((n, n), matvec=apply, dtype=float)


def assemble_load(handler, coeffs):
    """Load vector (f, v) for f given by coefficients in the same space,
    which pass handler.checked: the product of mass_operator(handler), in
    the same shape."""
    return mass_operator(handler) @ handler.checked(coeffs)
