"""Global hp finite element spaces on triangle meshes.

A DofHandler numbers the conforming degrees of freedom of a space with
per-element polynomial degrees.  On an edge shared by elements of
different degree only the modes up to the smaller degree exist (minimum
rule); the higher-degree element's extra edge modes are dropped from the
space entirely.  Edge mode k is odd under endpoint swap for odd k, so
elements whose local edge runs against the global orientation (from the
lower to the higher vertex id) carry a -1 sign on their odd edge modes.

Boundary data is homogeneous, so vertices and edge modes on Dirichlet
edges carry no dof at all.  The one numbering holds the free vertices
by id, then the edge blocks of the other edges, then per-element
interior blocks; matrices and coefficient vectors all live on it.
"""

import numpy as np

from .assembly import reference_kernels
from .basis import EDGE_VERTICES, bubble_indices, edge_mode_indices, n_local
# tri_shapes is no longer called here, but perfbench/spans.py still wraps
# it in this namespace
from .basis import tri_shapes  # noqa: F401
from .mesh import CHILD_POSITIONS


class DofHandler:
    """Conforming dof numbering for a variable-degree space on a mesh.

    Elements are grouped by degree: groups[p] = (ids, l2g, signs) holds
    the ascending ids of the degree-p elements and, one row per element,
    the global dof of each local mode and its sign.  A local mode
    without a dof is absent: a vertex or edge mode on a Dirichlet edge,
    or an edge mode above the conforming degree of its edge.  It has
    l2g = -1 and sign 0, so gather(coeffs, p) (coeffs[max(l2g, 0)] *
    signs) reads zero there.  row[k] is element k's row in its group,
    and vertex_dof[v] the dof of vertex v (-1 on Dirichlet vertices).
    Coefficient vectors have shape (n_dofs,) or (n_dofs, m).

    Parameters
    ----------
    mesh : Mesh
    degrees : int or integer ndarray (ne,)
        Polynomial degree per element, >= 1.
    dirichlet_tags : iterable of str
        Boundary tags with homogeneous essential conditions; everything
        else is natural.
    """

    def __init__(self, mesh, degrees, dirichlet_tags=()):
        self.mesh = mesh
        degrees = np.asarray(degrees)
        if not np.issubdtype(degrees.dtype, np.integer):
            raise ValueError(f"degrees must be integers, got {degrees.dtype}")
        self.degrees = (np.full(mesh.n_elements, degrees, dtype=np.int64)
                        if degrees.ndim == 0 else degrees.astype(np.int64))
        if self.degrees.shape != (mesh.n_elements,) or self.degrees.min() < 1:
            raise ValueError("degrees must be a positive int per element")
        self.dirichlet_tags = frozenset(dirichlet_tags)
        unknown = self.dirichlet_tags - set(mesh.tag_names)
        if unknown:
            raise ValueError(f"unknown boundary tags {sorted(unknown)}")

        # minimum rule: conforming degree per edge
        self.p_conf = np.full(mesh.n_edges, np.iinfo(np.int64).max)
        np.minimum.at(self.p_conf, mesh.elem_edges.ravel(),
                      np.repeat(self.degrees, 3))
        # larger adjacent degree, used for edge weights in error bounds
        self.p_edge_max = np.zeros(mesh.n_edges, dtype=np.int64)
        np.maximum.at(self.p_edge_max, mesh.elem_edges.ravel(),
                      np.repeat(self.degrees, 3))

        dirichlet = mesh.edge_kinds(self.dirichlet_tags) == 1
        fixed = np.zeros(mesh.n_vertices, dtype=bool)
        fixed[mesh.edges[dirichlet].ravel()] = True
        self.vertex_dof = np.where(fixed, -1, np.cumsum(~fixed) - 1)
        edge_counts = np.where(dirichlet, 0, np.maximum(self.p_conf - 1, 0))
        self.edge_offset = np.count_nonzero(~fixed) + np.concatenate(
            [[0], np.cumsum(edge_counts)])
        bubble_counts = (self.degrees - 1) * (self.degrees - 2) // 2
        self.bubble_offset = self.edge_offset[-1] + np.concatenate(
            [[0], np.cumsum(bubble_counts)])
        self.n_dofs = int(self.bubble_offset[-1])

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
            l2g[:, :3] = self.vertex_dof[mesh.elements[ids]]
            signs[:, :3] = l2g[:, :3] >= 0
            if p >= 2:
                e = mesh.elem_edges[ids][:, :, None]
                kk = np.arange(2, p + 1)
                present = kk - 2 < edge_counts[e]
                odd_flip = reversed_edge[ids][:, :, None] & (kk % 2 == 1)
                idx = edge_mode_indices(p)
                l2g[:, idx] = np.where(present, self.edge_offset[e] + kk - 2,
                                       -1)
                signs[:, idx] = np.where(present,
                                         np.where(odd_flip, -1.0, 1.0), 0.0)
            bi = bubble_indices(p)
            l2g[:, bi] = self.bubble_offset[ids][:, None] + np.arange(bi.size)
            self.groups[p] = (ids, l2g, signs)

    def gather(self, coeffs, p, rows=slice(None)):
        """Signed local coefficients of the degree-p group (or its rows).

        coeffs has shape (n_dofs,) or (n_dofs, m); returns
        (n, n_local(p)) or (n, n_local(p), m), zero on absent modes.
        Raises ValueError when coeffs does not have n_dofs rows.
        """
        coeffs = np.asarray(coeffs)
        if coeffs.shape[:1] != (self.n_dofs,):
            raise ValueError(f"coefficients need {self.n_dofs} rows, got "
                             f"shape {coeffs.shape}")
        if not self.n_dofs:  # every mode is absent
            coeffs = np.zeros((1,) + coeffs.shape[1:])
        _, l2g, signs = self.groups[p]
        local = coeffs[np.maximum(l2g[rows], 0)]
        s = signs[rows]
        return local * (s if local.ndim == 2 else s[:, :, None])


def transfer(old, new, coeffs):
    """Carry coefficients from one handler to a refined or enriched one.

    The new handler's mesh must be the old one or come from it through
    one refine call: its parent array indexes old elements, old vertex
    ids are preserved, and every split element is one of the six
    images in mesh.CHILD_POSITIONS of its parent.  New degrees must
    dominate old degrees elementwise through the parent map, and both
    handlers must share their Dirichlet tags.  Otherwise ValueError is
    raised.  The transferred function is identical as an element of the
    larger space up to roundoff.  Each class of new elements (whole or
    child position, old degree, new degree) applies one table to its
    parents' coefficients: the identity to whole elements, which keep
    their parent's vertices, and reference_kernels(p)["C"] to children.

    coeffs has shape (old.n_dofs,) or (old.n_dofs, m), else ValueError;
    returns the same with new.n_dofs rows.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape[:1] != (old.n_dofs,):
        raise ValueError(f"coefficients need {old.n_dofs} rows, got "
                         f"shape {coeffs.shape}")
    if old.dirichlet_tags != new.dirichlet_tags:
        raise ValueError("transfer requires the same Dirichlet tags")
    squeeze = coeffs.ndim == 1
    if squeeze:
        coeffs = coeffs[:, None]
    mo, mn = old.mesh, new.mesh
    out = np.zeros((new.n_dofs, coeffs.shape[1]))

    # a reused mesh object keeps the parent array of its own creation,
    # so identity is the right element map in that case
    parent = (np.arange(mn.n_elements, dtype=np.int64) if mn is mo
              else mn.parent)
    if np.any((parent < 0) | (parent >= mo.n_elements)):
        raise ValueError("new mesh is not one refine call from the old one")
    if np.any(new.degrees < old.degrees[parent]):
        raise ValueError("transfer requires non-decreasing degrees")

    pos = np.where(np.all(mn.elements == mo.elements[parent], axis=1), -1, 0)
    split = np.nonzero(pos >= 0)[0]
    maps = mo.maps()
    kp = parent[split]
    ref = (mn.vertices[mn.elements[split]] - maps["origin"][kp, None, :]) \
        @ maps["Jinv"][kp].transpose(0, 2, 1)
    match = np.all(np.abs(ref[:, None] - CHILD_POSITIONS) < 1e-8, axis=(2, 3))
    if not np.all(match.any(axis=1)):
        raise ValueError("new mesh is not one refine call from the old one")
    pos[split] = match.argmax(axis=1)
    # whole elements write first, then split classes in (old degree, new
    # degree, position) order: a shared dof keeps the last class's value
    p_old, p_new = old.degrees[parent], new.degrees
    for _, po, pn, i in sorted(set(zip((pos >= 0).tolist(), p_old.tolist(),
                                       p_new.tolist(), pos.tolist()))):
        table = (np.eye(n_local(pn), n_local(po)) if i < 0
                 else reference_kernels(pn)["C"][i, :, :n_local(po)])
        sel = np.nonzero((p_old == po) & (p_new == pn) & (pos == i))[0]
        d = table @ old.gather(coeffs, po, old.row[parent[sel]])
        _, l2g, signs = new.groups[pn]
        g, s = l2g[new.row[sel]], signs[new.row[sel]]
        ok = g >= 0
        out[g[ok]] = d[ok] * s[ok][:, None]

    return out[:, 0] if squeeze else out
