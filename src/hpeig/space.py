"""Global hp finite element spaces on triangle meshes.

A DofHandler numbers the conforming degrees of freedom of a space with
per-element polynomial degrees.  On an edge shared by elements of
different degree only the modes up to the smaller degree exist (minimum
rule); the higher-degree element's extra edge modes are dropped from the
space entirely.  Edge mode k is odd under endpoint swap for odd k, so
elements whose local edge runs against the global orientation (from the
lower to the higher vertex id) carry a -1 sign on their odd edge modes.

Dofs are numbered: vertices first, then edge blocks, then per-element
interior blocks.  Dirichlet constraints are a mask on this full
numbering; matrices and solution vectors live on the free subset.
"""

import functools

import numpy as np
import scipy.linalg

from .assembly import reference_kernels
from .basis import (EDGE_VERTICES, bubble_indices, edge_mode_indices,
                    edge_shapes, n_local, tri_shapes)
from .mesh import CHILD_POSITIONS
from .quadrature import interval_rule


@functools.lru_cache(maxsize=None)
def _edge_gram(p):
    t, w = interval_rule(2 * p + 2)
    E = edge_shapes(p, t)[:, 2 : p + 1]
    return scipy.linalg.cho_factor((E * w[:, None]).T @ E), t, w, E


class DofHandler:
    """Conforming dof numbering for a variable-degree space on a mesh.

    Elements are grouped by degree: groups[p] = (ids, l2g, signs) holds
    the ascending ids of the degree-p elements and, one row per element,
    the global dof of each local mode and its sign.  A local edge mode
    above the conforming degree of its edge is absent and has l2g = -1
    and sign 0, so gather(coeffs, p) (coeffs[max(l2g, 0)] * signs) reads
    zero there.  row[k] is element k's row in its group.

    Parameters
    ----------
    mesh : Mesh
    degrees : int or ndarray (ne,)
        Polynomial degree per element, >= 1.
    dirichlet_tags : iterable of str
        Boundary tags with essential conditions; everything else is
        natural.
    """

    def __init__(self, mesh, degrees, dirichlet_tags=()):
        self.mesh = mesh
        if np.isscalar(degrees):
            degrees = np.full(mesh.n_elements, int(degrees), dtype=np.int64)
        self.degrees = np.asarray(degrees, dtype=np.int64)
        if self.degrees.shape != (mesh.n_elements,) or self.degrees.min() < 1:
            raise ValueError("degrees must be a positive int per element")
        self.dirichlet_tags = frozenset(dirichlet_tags)
        unknown = self.dirichlet_tags - set(mesh.tag_names)
        if unknown:
            raise ValueError(f"unknown boundary tags {sorted(unknown)}")

        nE, nv = mesh.n_edges, mesh.n_vertices

        # minimum rule: conforming degree per edge
        self.p_conf = np.full(nE, np.iinfo(np.int64).max)
        np.minimum.at(self.p_conf, mesh.elem_edges.ravel(),
                      np.repeat(self.degrees, 3))
        # larger adjacent degree, used for edge weights in error bounds
        self.p_edge_max = np.zeros(nE, dtype=np.int64)
        np.maximum.at(self.p_edge_max, mesh.elem_edges.ravel(),
                      np.repeat(self.degrees, 3))

        edge_counts = np.maximum(self.p_conf - 1, 0)
        self.edge_offset = nv + np.concatenate([[0], np.cumsum(edge_counts)])
        bubble_counts = (self.degrees - 1) * (self.degrees - 2) // 2
        self.bubble_offset = self.edge_offset[-1] + np.concatenate(
            [[0], np.cumsum(bubble_counts)])
        self.n_full = int(self.bubble_offset[-1])

        # a local edge running against its global edge (lower to higher
        # vertex id) flips the sign of its odd modes
        first = mesh.elements[:, [a for a, _ in EDGE_VERTICES]]
        reversed_edge = first != mesh.edges[mesh.elem_edges, 0]
        self.groups = {}
        self.row = np.empty(mesh.n_elements, dtype=np.int64)
        for p in np.unique(self.degrees).tolist():
            ids = np.nonzero(self.degrees == p)[0]
            self.row[ids] = np.arange(ids.size)
            l2g = np.full((ids.size, n_local(p)), -1, dtype=np.int64)
            signs = np.ones((ids.size, n_local(p)))
            l2g[:, :3] = mesh.elements[ids]
            if p >= 2:
                e = mesh.elem_edges[ids][:, :, None]
                kk = np.arange(2, p + 1)
                present = kk <= self.p_conf[e]
                odd_flip = reversed_edge[ids][:, :, None] & (kk % 2 == 1)
                idx = edge_mode_indices(p)
                l2g[:, idx] = np.where(present, self.edge_offset[e] + kk - 2,
                                       -1)
                signs[:, idx] = np.where(present,
                                         np.where(odd_flip, -1.0, 1.0), 0.0)
            bi = bubble_indices(p)
            l2g[:, bi] = self.bubble_offset[ids][:, None] + np.arange(bi.size)
            self.groups[p] = (ids, l2g, signs)

        # Dirichlet constraints: vertex and edge dofs of Dirichlet edges
        dirichlet = mesh.edge_kinds(self.dirichlet_tags) == 1
        free = np.ones(self.n_full, dtype=bool)
        free[mesh.edges[dirichlet].ravel()] = False
        free[nv:self.edge_offset[-1]] &= ~np.repeat(dirichlet, edge_counts)
        self.free_mask = free
        self.free_to_full = np.nonzero(free)[0]
        self.full_to_free = np.full(self.n_full, -1, dtype=np.int64)
        self.full_to_free[self.free_to_full] = np.arange(self.free_to_full.size)
        self.n_dofs = int(self.free_to_full.size)

    def gather(self, coeffs, p, rows=slice(None)):
        """Signed local coefficients of the degree-p group (or its rows).

        coeffs has shape (n_full,) or (n_full, m); returns
        (n, n_local(p)) or (n, n_local(p), m), zero on absent modes.
        """
        _, l2g, signs = self.groups[p]
        local = np.asarray(coeffs)[np.maximum(l2g[rows], 0)]
        s = signs[rows]
        return local * (s if local.ndim == 2 else s[:, :, None])

    def expand(self, reduced):
        reduced = np.asarray(reduced)
        out = np.zeros((self.n_full,) + reduced.shape[1:])
        out[self.free_to_full] = reduced
        return out

    def restrict(self, full):
        return np.asarray(full)[self.free_to_full]

    def evaluate(self, coeffs, elems, ref_pts, deriv=0):
        """Evaluate a coefficient vector on elements at reference points.

        Returns values of shape (len(elems), npts) for deriv=0 or
        physical gradients (len(elems), npts, 2) for deriv=1.
        """
        elems = np.asarray(elems, dtype=np.int64)
        coeffs = np.asarray(coeffs, dtype=float)
        Jinv = self.mesh.maps()["Jinv"]
        npts = np.asarray(ref_pts).shape[0]
        out = np.zeros((elems.size, npts) if deriv == 0
                       else (elems.size, npts, 2))
        for p in np.unique(self.degrees[elems]).tolist():
            sel = np.nonzero(self.degrees[elems] == p)[0]
            local = self.gather(coeffs, p, self.row[elems[sel]])
            sh = tri_shapes(p, ref_pts, nderiv=deriv)
            if deriv == 0:
                out[sel] = local @ sh["val"].T
            else:
                out[sel] = np.einsum("qld,kl,kde->kqe", sh["grad"], local,
                                     Jinv[elems[sel]])
        return out

    def interpolate(self, f):
        """Coefficients (full numbering) approximating a callable f.

        Vertex values are interpolated; edge and interior modes are
        L2 projections of the remaining residual, so any f already in
        the space is reproduced exactly.  f maps points (n, 2) to (n,).
        """
        mesh = self.mesh
        coeffs = np.zeros(self.n_full)
        coeffs[:mesh.n_vertices] = f(mesh.vertices)

        for p in np.unique(self.p_conf[self.p_conf >= 2]).tolist():
            es = np.nonzero(self.p_conf == p)[0]
            a, b = mesh.edges[es, 0], mesh.edges[es, 1]
            chol, t, w, E = _edge_gram(p)
            va, vb = mesh.vertices[a], mesh.vertices[b]
            pts = va[:, None, :] + t[None, :, None] * (vb - va)[:, None, :]
            resid = (f(pts.reshape(-1, 2)).reshape(es.size, t.size)
                     - coeffs[a][:, None] * (1 - t) - coeffs[b][:, None] * t)
            sol = scipy.linalg.cho_solve(chol, E.T @ (w[:, None] * resid.T))
            coeffs[self.edge_offset[es][:, None] + np.arange(p - 1)] = sol.T

        maps = mesh.maps()
        for p, (ids, l2g, signs) in self.groups.items():
            if p < 3:
                continue
            ker = reference_kernels(p)
            phys = maps["origin"][ids, None, :] + np.einsum(
                "kab,qb->kqa", maps["J"][ids], ker["pts"])
            bi = bubble_indices(p)
            edge_part = self.gather(coeffs, p)
            edge_part[:, bi] = 0.0
            resid = (f(phys.reshape(-1, 2)).reshape(ids.size, -1)
                     - edge_part @ ker["V"].T)
            coeffs[l2g[:, bi]] = resid @ ker["P"][bi].T * signs[:, bi]
        return coeffs


def _copy_blocks(dst, dst_start, src, src_start, counts):
    """dst[dst_start[i] + j] = src[src_start[i] + j] for j < counts[i]."""
    within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                                 counts)
    dst[np.repeat(dst_start, counts) + within] = \
        src[np.repeat(src_start, counts) + within]


def transfer(old, new, coeffs):
    """Carry coefficients from one handler to a refined or enriched one.

    The new handler's mesh must be the old one or come from it through
    one refine call: its parent array indexes old elements, old vertex
    ids are preserved, and every split element is one of the six
    images in mesh.CHILD_POSITIONS of its parent.  New degrees must
    dominate old degrees elementwise through the parent map.  Otherwise
    ValueError is raised.  The transferred function is identical as an
    element of the larger space up to roundoff.

    coeffs uses the old full numbering, shape (n_full,) or (n_full, m);
    returns the same in the new full numbering.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    squeeze = coeffs.ndim == 1
    if squeeze:
        coeffs = coeffs[:, None]
    mo, mn = old.mesh, new.mesh
    out = np.zeros((new.n_full, coeffs.shape[1]))

    # a reused mesh object keeps the parent array of its own creation,
    # so identity is the right element map in that case
    parent = (np.arange(mn.n_elements, dtype=np.int64) if mn is mo
              else mn.parent)
    if np.any((parent < 0) | (parent >= mo.n_elements)):
        raise ValueError("new mesh is not one refine call from the old one")
    if np.any(new.degrees < old.degrees[parent]):
        raise ValueError("transfer requires non-decreasing degrees")

    # vertex values survive by hierarchy
    out[:mo.n_vertices] = coeffs[:mo.n_vertices]

    # surviving edges keep their trace coefficients; edges are sorted
    # vertex pairs over preserved vertex ids, so one code per pair
    # matches them
    code = np.array([mn.n_vertices, 1])
    _, e_new, e_old = np.intersect1d(mn.edges @ code, mo.edges @ code,
                                     assume_unique=True, return_indices=True)
    _copy_blocks(out, new.edge_offset[e_new], coeffs, old.edge_offset[e_old],
                 np.diff(old.edge_offset)[e_old])

    # unrefined elements: bubble blocks embed by the degree-prefix layout
    same = np.all(mn.elements == mo.elements[parent], axis=1)
    kept = np.nonzero(same)[0]
    _copy_blocks(out, new.bubble_offset[kept], coeffs,
                 old.bubble_offset[parent[kept]],
                 np.diff(old.bubble_offset)[parent[kept]])

    # refined elements: find each one's position in its parent from its
    # vertices, then apply that position's child table
    split = np.nonzero(~same)[0]
    maps = mo.maps()
    kp = parent[split]
    ref = np.einsum("kab,kvb->kva", maps["Jinv"][kp],
                    mn.vertices[mn.elements[split]]
                    - maps["origin"][kp, None, :])
    match = np.all(np.abs(ref[:, None] - CHILD_POSITIONS) < 1e-8, axis=(2, 3))
    if not np.all(match.any(axis=1)):
        raise ValueError("new mesh is not one refine call from the old one")
    pos = match.argmax(axis=1)
    p_old, p_new = old.degrees[kp], new.degrees[split]
    for po, pn, i in sorted(set(zip(p_old.tolist(), p_new.tolist(),
                                    pos.tolist()))):
        sel = (p_old == po) & (p_new == pn) & (pos == i)
        table = reference_kernels(pn)["C"][i, :, :n_local(po)]
        d = table @ old.gather(coeffs, po, old.row[kp[sel]])
        _, l2g, signs = new.groups[pn]
        g, s = l2g[new.row[split[sel]]], signs[new.row[split[sel]]]
        ok = g >= 0
        out[g[ok]] = d[ok] * s[ok][:, None]

    return out[:, 0] if squeeze else out
