"""Test helpers: evaluation and interpolation of discrete fields, edge
traces, and a mesh's boundary tags in the form Mesh takes them.

The library never evaluates a field at arbitrary points or builds one
from a callable; the tests do both to check it independently.
"""

import functools

import numpy as np
import scipy.linalg

from hpeig.assembly import reference_kernels
from hpeig.basis import bubble_indices, kernel_table, tri_shapes
from hpeig.quadrature import interval_rule
from hpeig.space import DofHandler


def edge_shapes(p, t):
    """Trace basis on an edge parametrized by t in [0, 1].

    Columns: endpoint at t=0, endpoint at t=1, then modes k = 2..p.
    Shape (len(t), p+1).
    """
    t = np.asarray(t, dtype=float)
    s = 2.0 * t - 1.0
    psi = kernel_table(s, max(p - 2, 0))[0, :p - 1]
    return np.column_stack([1.0 - t, t, (0.25 * (1.0 - s * s) * psi).T])


@functools.lru_cache(maxsize=None)
def _edge_gram(p):
    t, w = interval_rule(2 * p + 2)
    E = edge_shapes(p, t)[:, 2 : p + 1]
    return scipy.linalg.cho_factor((E * w[:, None]).T @ E), t, w, E


def evaluate(handler, coeffs, elems, ref_pts, deriv=0):
    """Evaluate a coefficient vector on elements at reference points.

    Returns values of shape (len(elems), npts) for deriv=0 or
    physical gradients (len(elems), npts, 2) for deriv=1.
    """
    elems = np.asarray(elems, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=float)
    Jinv = handler.mesh.maps()["Jinv"]
    npts = np.asarray(ref_pts).shape[0]
    out = np.zeros((elems.size, npts) if deriv == 0
                   else (elems.size, npts, 2))
    for p in np.unique(handler.degrees[elems]).tolist():
        sel = np.nonzero(handler.degrees[elems] == p)[0]
        local = handler.gather(coeffs, p, handler.row[elems[sel]])
        sh = tri_shapes(p, ref_pts, nderiv=deriv)
        if deriv == 0:
            out[sel] = local @ sh["val"].T
        else:
            out[sel] = np.einsum("qld,kl,kde->kqe", sh["grad"], local,
                                 Jinv[elems[sel]])
    return out


def interpolate(handler, f):
    """Coefficients on handler's dofs approximating a callable f.

    Vertex values are interpolated; edge and interior modes are L2
    projections of the remaining residual, so any f already in the
    space is reproduced exactly.  The interpolant is built in the space
    without Dirichlet edges, and its Dirichlet modes are then dropped.
    f maps points (n, 2) to (n,).
    """
    mesh = handler.mesh
    full = DofHandler(mesh, handler.degrees)
    coeffs = np.zeros(full.n_dofs)
    coeffs[:mesh.n_vertices] = f(mesh.vertices)

    for p in np.unique(full.p_conf[full.p_conf >= 2]).tolist():
        es = np.nonzero(full.p_conf == p)[0]
        a, b = mesh.edges[es, 0], mesh.edges[es, 1]
        chol, t, w, E = _edge_gram(p)
        va, vb = mesh.vertices[a], mesh.vertices[b]
        pts = va[:, None, :] + t[None, :, None] * (vb - va)[:, None, :]
        resid = (f(pts.reshape(-1, 2)).reshape(es.size, t.size)
                 - coeffs[a][:, None] * (1 - t) - coeffs[b][:, None] * t)
        sol = scipy.linalg.cho_solve(chol, E.T @ (w[:, None] * resid.T))
        coeffs[full.edge_offset[es][:, None] + np.arange(p - 1)] = sol.T

    maps = mesh.maps()
    for p, (ids, l2g, signs) in full.groups.items():
        if p < 3:
            continue
        ker = reference_kernels(p)
        phys = maps["origin"][ids, None, :] + np.einsum(
            "kab,qb->kqa", maps["J"][ids], ker["pts"])
        bi = bubble_indices(p)
        edge_part = full.gather(coeffs, p)
        edge_part[:, bi] = 0.0
        resid = (f(phys.reshape(-1, 2)).reshape(ids.size, -1)
                 - edge_part @ ker["V"].T)
        coeffs[l2g[:, bi]] = resid @ ker["P"][bi].T * signs[:, bi]

    out = np.zeros(handler.n_dofs)
    for p, (_, l2g, _) in handler.groups.items():
        kept = l2g >= 0
        out[l2g[kept]] = coeffs[full.groups[p][1][kept]]
    return out


def boundary_tag_dict(mesh):
    """The boundary_tags dict that rebuilds mesh's boundary tags."""
    b = mesh.boundary_mask
    tags = np.array(mesh.tag_names)[mesh.edge_tag[b]]
    return dict(zip(map(tuple, mesh.edges[b].tolist()), tags.tolist()))
