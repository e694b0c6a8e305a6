"""Residual a posteriori error indicators for computed eigenpairs.

For each computed pair (value, field) the element indicator combines the
interior residual with flux jumps across interior edges and flux defects
on Neumann edges:

    eps2(K) = (h_K / p_K)^2 |R|_K^2
            + 1/2 sum_{interior e in dK} (h_e / p_e) |r|_e^2
            +     sum_{Neumann  e in dK} (h_e / p_e) |r|_e^2

with R = value * field - c * field + A : Hess(field) on K and r the
jump of the conormal flux A grad(field) . n (single-sided on Neumann
edges, zero on Dirichlet edges).  p_e is the larger adjacent degree.

Totals are correctly rounded sums (math.fsum), so they do not depend
on element order and reruns or renumberings cannot perturb marking.
"""

import math
from dataclasses import dataclass

import numpy as np

from .assembly import reference_kernels
from .basis import tri_shapes
from .mesh import LOCAL_EDGES
from .quadrature import interval_rule

# computed eigenvalues at or below this size are zero modes of pure
# Neumann problems; value-scaled sums skip them
ZERO_MODE_TOL = 1e-8

_CHUNK = 4096


@dataclass
class IndicatorField:
    """Per-element indicators for a cluster of computed eigenpairs.

    local[k, i] is eps2_i(K_k).  mode_totals[i] sums column i over all
    elements.  scaled_local divides each included column by its
    eigenvalue; element_totals sums those rows, and total is the
    value-weighted grand total used for convergence monitoring.
    """
    local: np.ndarray
    values: np.ndarray
    included: np.ndarray
    mode_totals: np.ndarray
    scaled_local: np.ndarray
    element_totals: np.ndarray
    total: float


def element_residual_norms(handler, coeffs_full, values, co):
    """Squared L2 norms of the strong interior residual, shape (ne, m).

    coeffs_full has shape (n_full, m); values has shape (m,).  A is
    constant on each element so the divergence term is the double
    contraction of A with the Hessian.
    """
    mesh = handler.mesh
    values = np.asarray(values, dtype=float)
    m = coeffs_full.shape[1]
    A_el, c_el = co.on_elements(mesh)
    maps = mesh.maps()
    out = np.zeros((mesh.n_elements, m))
    for p, (ids, _, _) in handler.groups.items():
        ker = reference_kernels(p)
        U = handler.gather(coeffs_full, p)
        Jinv = maps["Jinv"][ids]
        W = np.einsum("kab,kbc,kdc->kad", Jinv, A_el[ids], Jinv)
        wvec = np.stack([W[:, 0, 0], 2.0 * W[:, 0, 1], W[:, 1, 1]], axis=1)
        u = np.einsum("ql,klm->kqm", ker["V"], U)
        lap = np.einsum("kc,qlc,klm->kqm", wvec, ker["H"], U)
        R = (values[None, None, :] - c_el[ids, None, None]) * u + lap
        out[ids] = maps["detJ"][ids, None] * np.einsum("q,kqm->km", ker["w"],
                                                        R**2)
    return out


def edge_jump_norms(handler, coeffs_full, co, kinds):
    """Squared L2 norms of conormal flux jumps, shape (n_edges, m).

    Interior edges carry the two-sided jump, Neumann edges the
    single-sided flux, Dirichlet edges zero.  Both sides are evaluated
    at shared physical points on the lower-to-higher vertex
    parametrization of each edge.
    """
    mesh = handler.mesh
    m = coeffs_full.shape[1]
    A_el, _ = co.on_elements(mesh)
    maps = mesh.maps()
    Jinv, origin = maps["Jinv"], maps["origin"]

    sq, wq = interval_rule(2 * int(handler.degrees.max()) + 2)
    nq = sq.size
    ev = mesh.vertices[mesh.edges]
    pts_edge = ev[:, None, 0, :] * (1.0 - sq)[None, :, None] \
        + ev[:, None, 1, :] * sq[None, :, None]

    active = kinds != 1
    jump = np.zeros((mesh.n_edges, nq, m))
    local_a = np.array([e[0] for e in LOCAL_EDGES])
    local_b = np.array([e[1] for e in LOCAL_EDGES])

    for p in handler.groups:
        U_all = handler.gather(coeffs_full, p)
        sides_e, sides_k, sides_l = [], [], []
        for side in range(2):
            on = (mesh.edge_elems[:, side] >= 0) & active
            ks = mesh.edge_elems[on, side]
            sel = handler.degrees[ks] == p
            sides_e.append(np.nonzero(on)[0][sel])
            sides_k.append(ks[sel])
            sides_l.append(mesh.edge_local[on, side][sel])
        sides_e = np.concatenate(sides_e)
        sides_k = np.concatenate(sides_k)
        sides_l = np.concatenate(sides_l)
        if sides_e.size == 0:
            continue
        rows = handler.row[sides_k]

        # outward normal times A, pulled back through the chain rule so
        # the flux is a fixed contraction with reference gradients
        va = mesh.vertices[mesh.elements[sides_k, local_a[sides_l]]]
        vb = mesh.vertices[mesh.elements[sides_k, local_b[sides_l]]]
        t = vb - va
        n = np.stack([t[:, 1], -t[:, 0]], axis=1)
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        an = np.einsum("sab,sb->sa", A_el[sides_k], n)
        qvec = np.einsum("sab,sb->sa", Jinv[sides_k], an)

        for lo in range(0, sides_e.size, _CHUNK):
            sl = slice(lo, min(lo + _CHUNK, sides_e.size))
            e_c, k_c = sides_e[sl], sides_k[sl]
            phys = pts_edge[e_c]
            ref = np.einsum("sqb,sab->sqa", phys - origin[k_c][:, None, :],
                            Jinv[k_c])
            sh = tri_shapes(p, ref.reshape(-1, 2), nderiv=1)
            grads = sh["grad"].reshape(len(e_c), nq, -1, 2)
            flux = np.einsum("sqla,sa,slm->sqm", grads, qvec[sl], U_all[rows[sl]])
            np.add.at(jump, e_c, flux)

    norms = mesh.edge_length[:, None] * np.einsum("q,eqm->em", wq, jump**2)
    norms[~active] = 0.0
    return norms


def estimate(handler, coeffs, values, co):
    """Assemble the indicator field for eigenpairs given by free dofs.

    coeffs has shape (n_dofs, m) with columns the computed fields;
    values are the matching eigenvalues.  Dirichlet edges are read from
    the handler.
    """
    mesh = handler.mesh
    values = np.asarray(values, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 2 or coeffs.shape[1] != values.size:
        raise ValueError("coefficient columns must match eigenvalues")
    full = handler.expand(coeffs)
    kinds = mesh.edge_kinds(handler.dirichlet_tags)

    res = element_residual_norms(handler, full, values, co)
    jumps = edge_jump_norms(handler, full, co, kinds)

    p_el = handler.degrees.astype(float)
    scale_el = (mesh.h / p_el) ** 2
    edge_w = mesh.edge_length / handler.p_edge_max
    edge_w = np.where(kinds == 0, 0.5 * edge_w,
                      np.where(kinds == 2, edge_w, 0.0))
    local = scale_el[:, None] * res \
        + np.einsum("kl,klm->km", edge_w[mesh.elem_edges],
                    jumps[mesh.elem_edges])

    included = np.abs(values) > ZERO_MODE_TOL * max(1.0, float(np.max(np.abs(values))))
    mode_totals = np.array([math.fsum(col) for col in local.T])
    scaled_local = np.zeros_like(local)
    scaled_local[:, included] = local[:, included] / values[included]
    element_totals = scaled_local.sum(axis=1)
    total = math.fsum(mode_totals[included] / values[included])
    return IndicatorField(local=local, values=values.copy(), included=included,
                          mode_totals=mode_totals, scaled_local=scaled_local,
                          element_totals=element_totals, total=float(total))


def total_error(values, refs, included=None):
    """Value-weighted exact error sum((values - refs) / values)."""
    values = np.asarray(values, dtype=float)
    refs = np.asarray(refs, dtype=float)
    if included is None:
        included = np.ones(values.size, dtype=bool)
    rel = (values[included] - refs[included]) / values[included]
    return math.fsum(rel)


def effectivity(field, refs):
    """Ratio of the exact value-weighted error to the estimator total."""
    err = total_error(field.values, refs, field.included)
    return err / field.total
