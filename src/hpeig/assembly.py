"""Assembly of stiffness, mass and load for piecewise constant data.

The bilinear forms are

    B(u, v) = int A grad(u) . grad(v) + c u v,      (u, v) = int u v

with A a symmetric positive definite 2x2 matrix and c >= 0 a scalar,
both constant on each material region.  Because the data is constant
per element and reference maps are affine, every element matrix is a
contraction of precomputed reference matrices:

    K_loc = sum_ab C_ab S_ab + c detJ M_ref,
    C = detJ Jinv A Jinv^T,   S_ab = G_a^T W G_b

so assembly loops only over degree classes, not elements.
"""

import functools

import numpy as np
import scipy.sparse

from .basis import dubiner, tri_shapes
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
    """Cached reference tables for degree p, the one such cache.

    Returns dict with quadrature (pts, w) exact to degree 2p, value
    table V (nq, nl), gradient tables G (nq, nl, 2), hessian table
    H (nq, nl, 3), stiffness blocks S (2, 2, nl, nl), mass M (nl, nl),
    the orthonormal modal table D (nq, nl), the L2 projector
    P = M^-1 V^T W (nl, nq) and the child tables C (6, nl, nl):
    C[i] = P V(images of pts in mesh.CHILD_POSITIONS[i]) maps a
    degree-p function on a parent to its coefficients on that child.
    Assembly reads S, M and V; the estimator's interior residual reads
    V and H; transfer reads C, whose leading n_local(q) columns serve a
    degree-q parent; the hp
    decision projects onto the modal basis with V, w and D.
    """
    pts, w = triangle_rule(2 * p)
    sh = tri_shapes(p, pts, nderiv=2)
    V, G, H = sh["val"], sh["grad"], sh["hess"]
    S = np.einsum("qia,q,qjb->abij", G, w, G)
    M = (V * w[:, None]).T @ V
    # least squares on W^(1/2) V: the condition number of M, 4e13 at
    # p = 12, enters only through its square root
    sw = np.sqrt(w)
    P = np.linalg.lstsq(V * sw[:, None], np.diag(sw), rcond=None)[0]
    corner = CHILD_POSITIONS[:, :1]
    images = corner + np.einsum("qb,iba->iqa", pts,
                                CHILD_POSITIONS[:, 1:] - corner)
    V_child = tri_shapes(p, images.reshape(-1, 2), nderiv=0)["val"]
    C = P @ V_child.reshape(6, pts.shape[0], -1)
    return {"pts": pts, "w": w, "V": V, "G": G, "H": H, "S": S, "M": M,
            "D": dubiner(p, pts), "P": P, "C": C}


def pulled_back_diffusion(Jinv, A):
    """Jinv A Jinv^T per element: A pulled back to the reference element."""
    return np.einsum("kab,kbc,kdc->kad", Jinv, A, Jinv)


def _scatter(handler, build_local):
    """Assemble a symmetric bilinear form given per-group local matrices."""
    rows, cols, vals = [], [], []
    mesh = handler.mesh
    maps = mesh.maps()
    for p, (ids, g, s) in handler.groups.items():
        loc = build_local(p, ids, maps)
        loc = loc * s[:, :, None] * s[:, None, :]
        r = np.broadcast_to(g[:, :, None], loc.shape)
        c = np.broadcast_to(g[:, None, :], loc.shape)
        ok = (r >= 0) & (c >= 0)
        rows.append(r[ok])
        cols.append(c[ok])
        vals.append(loc[ok])
    n = handler.n_dofs
    A = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    return 0.5 * (A + A.T)


def assemble_stiffness(handler, coeffs):
    """Matrix of B(u, v) on the handler's dofs, CSR."""
    mesh = handler.mesh
    A_el, c_el = coeffs.on_elements(mesh)

    def build(p, ids, maps):
        ker = reference_kernels(p)
        detJ = maps["detJ"][ids]
        C = detJ[:, None, None] * pulled_back_diffusion(maps["Jinv"][ids],
                                                        A_el[ids])
        loc = np.einsum("kab,abij->kij", C, ker["S"])
        loc += (c_el[ids] * detJ)[:, None, None] * ker["M"][None]
        return loc

    return _scatter(handler, build)


def assemble_mass(handler):
    """Matrix of the L2 inner product on the handler's dofs, CSR."""
    def build(p, ids, maps):
        ker = reference_kernels(p)
        return maps["detJ"][ids][:, None, None] * ker["M"][None]

    return _scatter(handler, build)


def assemble_load(handler, coeffs):
    """Load vector (f, v) for f given by coefficients in the same space.

    coeffs has shape (n_dofs,) or (n_dofs, m), else ValueError; the
    result has the same shape.  Uses pointwise quadrature values of f,
    independently of the assembled mass matrix.
    """
    mesh = handler.mesh
    maps = mesh.maps()
    coeffs = np.asarray(coeffs, dtype=float)
    squeeze = coeffs.ndim == 1
    if squeeze:
        coeffs = coeffs[:, None]
    out = np.zeros((handler.n_dofs, coeffs.shape[1]))
    for p, (ids, g, s) in handler.groups.items():
        ker = reference_kernels(p)
        loc = handler.gather(coeffs, p)
        fvals = np.einsum("ql,klm->kqm", ker["V"], loc)
        rhs = np.einsum("ql,q,kqm->klm", ker["V"], ker["w"], fvals)
        rhs *= maps["detJ"][ids][:, None, None]
        rhs *= s[:, :, None]
        ok = g >= 0
        np.add.at(out, g[ok], rhs[ok])
    return out[:, 0] if squeeze else out
