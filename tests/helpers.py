"""Test helpers: evaluation and interpolation of discrete fields, edge
traces, a mesh's boundary tags in the form Mesh takes them, an earlier
transfer that copies vertex, edge and bubble blocks, earlier assembly
by einsum element matrices and a global symmetrization, the earlier
COO scatter of per-group entry lists, the load by quadrature, the
defect report on the fully assembled surrogate stiffness, the
eigensolve as it was when M had to be sparse, the Dubiner basis, an
orthonormal modal basis made apart from the hierarchical one, and the
equilateral triangle grid built by nested loops.

The library never evaluates a field at arbitrary points or builds one
from a callable; the tests do both to check it independently.
"""

import functools

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import LinearOperator, eigsh, splu
from scipy.special import eval_jacobi

from hpeig.assembly import (assemble_stiffness, pulled_back_diffusion,
                            reference_kernels)
from hpeig.defects import DefectReport, fine_handler, prolong
from hpeig.eigensolve import SPD_LU
from hpeig.basis import (bubble_indices, kernel_table, legendre_table, n_local,
                         tri_shapes)
from hpeig.mesh import CHILD_POSITIONS, _normalize
from hpeig.quadrature import interval_rule, triangle_rule
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


@functools.lru_cache(maxsize=None)
def _l2_projector(p):
    """M^-1 V^T W (nl, nq): local coefficients of the L2 projection of
    values at reference_kernels(p)'s points, by least squares on
    W^(1/2) V."""
    ker = reference_kernels(p)
    sw = np.sqrt(ker["w"])
    return np.linalg.lstsq(ker["V"] * sw[:, None], np.diag(sw),
                           rcond=None)[0]


def evaluate(handler, coeffs, elems, ref_pts, deriv=0):
    """Evaluate a coefficient vector on elements at reference points.

    Returns values of shape (len(elems), npts) for deriv=0 or
    physical gradients (len(elems), npts, 2) for deriv=1.
    """
    elems = np.asarray(elems, dtype=np.int64)
    coeffs = np.asarray(coeffs, dtype=float)
    Jinv = handler.mesh.Jinv
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

    for p, (ids, l2g, signs) in full.groups.items():
        if p < 3:
            continue
        ker = reference_kernels(p)
        phys = mesh.vertices[mesh.elements[ids, :1]] + np.einsum(
            "kab,qb->kqa", mesh.J[ids], ker["pts"])
        bi = bubble_indices(p)
        edge_part = full.gather(coeffs, p)
        edge_part[:, bi] = 0.0
        resid = (f(phys.reshape(-1, 2)).reshape(ids.size, -1)
                 - edge_part @ ker["V"].T)
        coeffs[l2g[:, bi]] = resid @ _l2_projector(p)[bi].T * signs[:, bi]

    out = np.zeros(handler.n_dofs)
    for p, (_, l2g, _) in handler.groups.items():
        kept = l2g >= 0
        out[l2g[kept]] = coeffs[full.groups[p][1][kept]]
    return out


def boundary_tag_dict(mesh):
    """mesh's boundary tags keyed by sorted vertex pair."""
    b = mesh.boundary_mask
    tags = np.array(mesh.tag_names)[mesh.edge_tag[b]]
    return dict(zip(map(tuple, mesh.edges[b].tolist()), tags.tolist()))


def side_tags(mesh):
    """The (ne, 3) side_tags array that rebuilds mesh's boundary tags."""
    return np.append(mesh.tag_names, "")[mesh.edge_tag[mesh.elem_edges]]


def loop_triangle_grid(n, side=2.0):
    """(vertices, elements) of mesh.triangle_grid(n, side), row by row."""
    s = side / n
    rows = []
    verts = []
    for i in range(n + 1):
        row = []
        for j in range(n + 1 - i):
            row.append(len(verts))
            verts.append((s * (j + 0.5 * i), s * i * np.sqrt(3.0) / 2.0))
        rows.append(row)
    vertices = np.array(verts)

    elements = []
    for i in range(n):
        for j in range(n - i):
            elements.append((rows[i][j], rows[i][j + 1], rows[i + 1][j]))
            if j < n - i - 1:
                elements.append((rows[i][j + 1], rows[i + 1][j + 1], rows[i + 1][j]))
    return vertices, _normalize(vertices, elements)


def _copy_blocks(dst, dst_start, src, src_start, counts):
    """dst[dst_start[i] + j] = src[src_start[i] + j] for j < counts[i]."""
    within = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                                 counts)
    dst[np.repeat(dst_start, counts) + within] = \
        src[np.repeat(src_start, counts) + within]


def reference_transfer(old, new, coeffs):
    """space.transfer as it was with separate copy paths.

    Vertex values, the trace blocks of surviving edges and the bubble
    blocks of unsplit elements are copied; split elements then apply
    their child table per (old degree, new degree, position) class and
    overwrite the copies on their dofs.  Inputs are assumed valid.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    squeeze = coeffs.ndim == 1
    if squeeze:
        coeffs = coeffs[:, None]
    mo, mn = old.mesh, new.mesh
    out = np.zeros((new.n_dofs, coeffs.shape[1]))
    parent = (np.arange(mn.n_elements, dtype=np.int64) if mn is mo
              else mn.parent)

    v = np.nonzero(old.vertex_dof >= 0)[0]
    out[new.vertex_dof[v]] = coeffs[old.vertex_dof[v]]

    code = np.array([mn.n_vertices, 1])
    _, e_new, e_old = np.intersect1d(mn.edges @ code, mo.edges @ code,
                                     assume_unique=True, return_indices=True)
    _copy_blocks(out, new.edge_offset[e_new], coeffs, old.edge_offset[e_old],
                 np.diff(old.edge_offset)[e_old])

    same = np.all(mn.elements == mo.elements[parent], axis=1)
    kept = np.nonzero(same)[0]
    _copy_blocks(out, new.bubble_offset[kept], coeffs,
                 old.bubble_offset[parent[kept]],
                 np.diff(old.bubble_offset)[parent[kept]])

    split = np.nonzero(~same)[0]
    kp = parent[split]
    ref = np.einsum("kab,kvb->kva", mo.Jinv[kp],
                    mn.vertices[mn.elements[split]]
                    - mo.vertices[mo.elements[kp, :1]])
    match = np.all(np.abs(ref[:, None] - CHILD_POSITIONS) < 1e-8, axis=(2, 3))
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


def dubiner_degrees(p):
    """Total degree of each mode in the degree-p Dubiner basis."""
    return np.repeat(np.arange(p + 1), np.arange(1, p + 2))


def _dubiner_raw(p, pts):
    x, y = pts[:, 0], pts[:, 1]
    omy = 1.0 - y
    safe = np.where(omy > 1e-14, omy, 1.0)
    a = np.where(omy > 1e-14, 2.0 * x / safe - 1.0, 0.0)
    b = 2.0 * y - 1.0
    Pa = legendre_table(a, p, nderiv=0)[0]
    cols = []
    for q in range(p + 1):
        for i in range(q + 1):
            j = q - i
            cols.append(Pa[i] * omy**i * eval_jacobi(j, 2 * i + 1, 0, b))
    return np.column_stack(cols)


@functools.lru_cache(maxsize=None)
def _dubiner_norms(p):
    pts, w = triangle_rule(2 * p + 2)
    vals = _dubiner_raw(p, pts)
    return np.sqrt(np.einsum("qi,qi,q->i", vals, vals, w))


def dubiner(p, pts):
    """L2-orthonormal polynomial basis on the reference triangle.

    Modes are ordered by total degree q = 0..p, then by the degree of
    the first factor, matching dubiner_degrees(p).
    Shape (len(pts), (p+1)(p+2)/2).
    """
    return _dubiner_raw(p, np.asarray(pts, dtype=float)) / _dubiner_norms(p)


def reference_stiffness_mass(handler, co, absolute=False):
    """assemble_stiffness and assemble_mass as they were.

    Element matrices are einsum contractions of the cached reference
    tables, summed as COO and made symmetric by the global
    0.5 (A + A^T), which drops entries that cancel to zero.  With
    absolute=True every term enters by its absolute value: the sums
    then bound the size of the terms each entry adds, the scale of
    its roundoff.
    """
    size = np.abs if absolute else (lambda x: x)
    mesh = handler.mesh
    A_el, c_el = co.on_elements(mesh)
    parts = {"B": ([], [], []), "M": ([], [], [])}
    for p, (ids, g, s) in handler.groups.items():
        ker = reference_kernels(p)
        S = size(ker["SM"][:4].reshape(2, 2, *ker["M"].shape))
        M = size(ker["M"])
        detJ = mesh.detJ[ids]
        C = size(detJ[:, None, None]
                 * pulled_back_diffusion(mesh.Jinv[ids], A_el[ids]))
        stiff = np.einsum("kab,abij->kij", C, S) \
            + (c_el[ids] * detJ)[:, None, None] * M[None]
        mass = detJ[:, None, None] * M[None]
        r = np.broadcast_to(g[:, :, None], mass.shape)
        c = np.broadcast_to(g[:, None, :], mass.shape)
        ok = (r >= 0) & (c >= 0)
        for key, loc in (("B", stiff), ("M", mass)):
            loc = size(loc * s[:, :, None] * s[:, None, :])
            parts[key][0].append(r[ok])
            parts[key][1].append(c[ok])
            parts[key][2].append(loc[ok])
    n = handler.n_dofs
    out = []
    for rows, cols, vals in parts.values():
        A = scipy.sparse.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(n, n)).tocsr()
        out.append(0.5 * (A + A.T))
    return tuple(out)


def reference_load(handler, coeffs):
    """The load (f, v) by quadrature, apart from the mass matrix: einsum
    through the quadrature points and np.add.at into the result."""
    detJ = handler.mesh.detJ
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
        rhs *= detJ[ids][:, None, None]
        rhs *= s[:, :, None]
        ok = g >= 0
        np.add.at(out, g[ok], rhs[ok])
    return out[:, 0] if squeeze else out


def reference_element_builders(handler, co):
    """The element matrices of B and of the mass as functions
    (p, ids) -> (K, nl, nl), unsymmetrized and without signs."""
    mesh = handler.mesh
    A_el, c_el = co.on_elements(mesh)

    def stiffness(p, ids):
        SM = reference_kernels(p)["SM"]
        detJ = mesh.detJ[ids]
        C = detJ[:, None, None] * pulled_back_diffusion(mesh.Jinv[ids],
                                                        A_el[ids])
        rows = np.column_stack([C.reshape(-1, 4), c_el[ids] * detJ])
        return (rows @ SM.reshape(5, -1)).reshape(-1, *SM.shape[1:])

    def mass(p, ids):
        return mesh.detJ[ids, None, None] * reference_kernels(p)["M"]

    return stiffness, mass


def reference_scatter(handler, build_local):
    """assembly's scatter as it was: int64 COO entries collected per
    degree group in lists and concatenated, each element matrix
    symmetrized and signed in one expression."""
    rows, cols, vals = [], [], []
    for p, (ids, g, s) in handler.groups.items():
        loc = build_local(p, ids)
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


def reference_defect_report(handler, co, values, vectors):
    """defects.defect_report as it was: the surrogate stiffness fully
    assembled and factored, E and G from its products, the load by
    reference_load's quadrature."""
    values = np.asarray(values, dtype=float)
    fine = fine_handler(handler)
    Bf = assemble_stiffness(fine, co)
    P = prolong(handler, fine, vectors)
    W = splu(Bf.T, **SPD_LU).solve(reference_load(fine, P))
    D = W - P / values[None, :]
    E = D.T @ (Bf @ D)
    E = 0.5 * (E + E.T)
    G = W.T @ (Bf @ W)
    G = 0.5 * (G + G.T)
    eta2 = scipy.linalg.eigh(E, G, eigvals_only=True)
    S = np.diag(np.sqrt(values))
    d_l = float(np.linalg.norm(S @ (G - np.diag(1.0 / values)) @ S, 2))
    return DefectReport(values=values.copy(), eta2=eta2, E=E, G=G, d_l=d_l,
                        fine_dofs=fine.n_dofs)


def reference_solve_lowest(B, M, m, shift=0.0, tol=1e-10, max_iter=500,
                           seed=0):
    """solve_lowest's (values, vectors, residuals) as they were computed
    when M had to be a sparse matrix: the dense branch converted it with
    toarray, and the residuals were those of the pencil (B, M)."""
    n = B.shape[0]
    if n <= m + 1:
        theta, X = scipy.linalg.eigh(B.toarray(), M.toarray(),
                                     subset_by_index=[0, m - 1])
    else:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(n)
        F = splu((B if shift == 0 else B - shift * M).tocsr().T, **SPD_LU)
        theta, X = eigsh(B, k=m, M=M, sigma=shift, which="LM",
                         OPinv=LinearOperator((n, n), matvec=F.solve,
                                              dtype=float),
                         v0=v0, tol=tol / 100, maxiter=max_iter, rng=rng)
        order = np.argsort(theta)
        theta, X = theta[order], X[:, order]
    BX, MX = B @ X, M @ X
    R = BX - MX * theta[None, :]
    scale = (np.linalg.norm(BX, axis=0)
             + np.abs(theta) * np.linalg.norm(MX, axis=0))
    scale = np.maximum(scale, np.linalg.norm(MX, axis=0))
    return theta, X, np.linalg.norm(R, axis=0) / scale
