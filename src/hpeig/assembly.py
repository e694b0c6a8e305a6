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
"""

import functools

import numpy as np
import scipy.sparse

from .basis import tri_shapes
from .mesh import CHILD_POSITIONS
from .quadrature import triangle_rule


class Coefficients:
    """Material data per region: x -> (A, c), constant on each region.

    Parameters
    ----------
    A : list of 2x2 arrays (or a single one), indexed by mesh region.
    c : list of floats (or a single one), indexed by mesh region.
    """

    def __init__(self, A=((1.0, 0.0), (0.0, 1.0)), c=0.0):
        A = np.asarray(A, dtype=float)
        if A.ndim == 2:
            A = A[None, :, :]
        self.A = A
        self.c = np.atleast_1d(np.asarray(c, dtype=float))
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

    The estimator's edge-gradient tables (estimator._edge_gradients)
    are the one other such cache.  Returns dict with quadrature
    (pts, w) exact to degree 2p, value table V (nq, nl), hessian table
    H (nq, nl, 3), mass M (nl, nl), the stacked table SM (5, nl, nl)
    holding the stiffness blocks S_00, S_01, S_10, S_11 and then M,
    the modal table R (nl, nl), the L2 projector P = M^-1 V^T W
    (nl, nq) and the child tables C (6, nl, nl): C[i] = P V(images of
    pts in mesh.CHILD_POSITIONS[i]) maps a degree-p function on a
    parent to its coefficients on that child.

    R maps local coefficients to coefficients in an L2-orthonormal
    basis graded by degree (R^T R = M): block q, the entries
    n_local(q-1)..n_local(q)-1, is orthogonal to P_(q-1).  It is the
    triangular factor of W^(1/2) V T times T^-1, where T swaps lam_0
    for the constant lam_0 + lam_1 + lam_2, so that the leading
    n_local(q) columns of V T span P_q.  Assembly reads SM, M and V;
    the estimator's interior residual reads V and H; transfer reads C,
    whose leading n_local(q) columns serve a degree-q parent; the hp
    decision reads R.
    """
    pts, w = triangle_rule(2 * p)
    sh = tri_shapes(p, pts, nderiv=2)
    V, G, H = sh["val"], sh["grad"], sh["hess"]
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
    return {"pts": pts, "w": w, "V": V, "H": H, "SM": SM, "M": M, "R": R,
            "P": P, "C": C}


def pulled_back_diffusion(Jinv, A):
    """Jinv A Jinv^T per element: A pulled back to the reference element."""
    return Jinv @ A @ Jinv.transpose(0, 2, 1)


def _scatter(handler, build_local):
    """CSR sum of the symmetrized per-group element matrices."""
    rows, cols, vals = [], [], []
    maps = handler.mesh.maps()
    for p, (ids, g, s) in handler.groups.items():
        loc = build_local(p, ids, maps)
        loc = (0.5 * (loc + loc.transpose(0, 2, 1))
               * s[:, :, None] * s[:, None, :])
        r = np.broadcast_to(g[:, :, None], loc.shape)
        c = np.broadcast_to(g[:, None, :], loc.shape)
        ok = (r >= 0) & (c >= 0)
        rows.append(r[ok])
        cols.append(c[ok])
        vals.append(loc[ok])
    return scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(handler.n_dofs,) * 2).tocsr()


def assemble_stiffness(handler, coeffs):
    """Matrix of B(u, v) on the handler's dofs, CSR."""
    A_el, c_el = coeffs.on_elements(handler.mesh)

    def build(p, ids, maps):
        SM = reference_kernels(p)["SM"]
        detJ = maps["detJ"][ids]
        C = detJ[:, None, None] * pulled_back_diffusion(maps["Jinv"][ids],
                                                        A_el[ids])
        rows = np.column_stack([C.reshape(-1, 4), c_el[ids] * detJ])
        return (rows @ SM.reshape(5, -1)).reshape(-1, *SM.shape[1:])

    return _scatter(handler, build)


def assemble_mass(handler):
    """Matrix of the L2 inner product on the handler's dofs, CSR."""
    def build(p, ids, maps):
        return maps["detJ"][ids][:, None, None] * reference_kernels(p)["M"]

    return _scatter(handler, build)


def assemble_load(handler, coeffs):
    """Load vector (f, v) for f given by coefficients in the same space.

    coeffs has shape (n_dofs,) or (n_dofs, m), else ValueError; the
    result has the same shape.  Uses pointwise quadrature values of f,
    independently of the assembled mass matrix, in two products a group.
    """
    detJ = handler.mesh.maps()["detJ"]
    coeffs = np.asarray(coeffs, dtype=float)
    squeeze = coeffs.ndim == 1
    if squeeze:
        coeffs = coeffs[:, None]
    n, m = handler.n_dofs, coeffs.shape[1]
    dofs, vals = [], []
    for p, (ids, g, s) in handler.groups.items():
        ker = reference_kernels(p)
        loc = np.moveaxis(handler.gather(coeffs, p), 1, 0)  # (nl, K, m)
        fvals = ker["V"] @ loc.reshape(len(loc), -1)
        rhs = ((ker["V"].T * ker["w"]) @ fvals).reshape(loc.shape)
        rhs = np.moveaxis(rhs, 1, 0) * (detJ[ids, None] * s)[:, :, None]
        ok = g >= 0
        dofs.append(g[ok])
        vals.append(rhs[ok])
    flat = (np.concatenate(dofs)[:, None] * m + np.arange(m)).ravel()
    out = np.bincount(flat, np.concatenate(vals).ravel(),
                      minlength=n * m).reshape(n, m)
    return out[:, 0] if squeeze else out
