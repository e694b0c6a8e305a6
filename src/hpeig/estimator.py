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

Quadrature points are fixed on the reference element and its edges, so
both terms are reference tables times local coefficients: one product
per degree group, or per (degree, local edge, orientation) for edges.
The orientation, mesh.elem_reversed, also picks each side's flux buffer:
the two sides of an interior edge run along it in opposite directions.
The outward normal of reference edge l times its length is -GRAD_LAMBDA[l]:
lambda_l vanishes on edge l and grows inward at rate 1/height = length.

Totals are correctly rounded sums (math.fsum), so they do not depend
on element order and reruns or renumberings cannot perturb marking.
"""

import math
from dataclasses import dataclass

import numpy as np

from .assembly import pulled_back_diffusion, reference_kernels
# perfbench/spans.py wraps tri_shapes in this namespace
from .basis import GRAD_LAMBDA, tri_shapes  # noqa: F401

# computed eigenvalues at or below this size are zero modes of pure
# Neumann problems; value-scaled sums skip them
ZERO_MODE_TOL = 1e-8


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


def element_residual_norms(handler, coeffs, values, co):
    """Squared L2 norms of the strong interior residual, shape (ne, m).

    coeffs has shape (n_dofs, m); values has shape (m,).  A is
    constant on each element so the divergence term is the double
    contraction of A with the Hessian.
    """
    mesh = handler.mesh
    values = np.asarray(values, dtype=float)
    m = coeffs.shape[1]
    A_el, c_el = co.on_elements(mesh)
    out = np.zeros((mesh.n_elements, m))
    for p, (ids, _, _) in handler.groups.items():
        ker = reference_kernels(p)
        # rows: values, then the Hessian components (xx, xy, yy)
        table = np.concatenate([ker["V"], *np.moveaxis(ker["H"], 2, 0)])
        U = np.moveaxis(handler.gather(coeffs, p), 1, 0)
        Q = (table @ U.reshape(len(U), -1)).reshape(4, -1, ids.size, m)
        W = pulled_back_diffusion(mesh.Jinv[ids], A_el[ids])
        R = (values - c_el[ids, None]) * Q[0] + W[:, 0, 0, None] * Q[1] \
            + 2.0 * W[:, 0, 1, None] * Q[2] + W[:, 1, 1, None] * Q[3]
        out[ids] = mesh.detJ[ids, None] * np.tensordot(ker["w"], R**2, 1)
    return out


def edge_jump_norms(handler, coeffs, co):
    """Squared L2 norms of conormal flux jumps, shape (n_edges, m).

    coeffs has shape (n_dofs, m).  Interior edges carry the two-sided
    jump, Neumann edges the single-sided flux, Dirichlet edges zero.
    Both sides are evaluated at the same edge points, running from the
    lower to the higher global vertex: those of the edge tables E and
    weights Ew of reference_kernels at the largest degree, whose
    leading n_local(p) columns serve degree p.
    """
    mesh = handler.mesh
    m = coeffs.shape[1]
    A_el, _ = co.on_elements(mesh)
    ker = reference_kernels(int(handler.degrees.max()))
    tables, wq = ker["E"], ker["Ew"]

    # pulled-back conormal of each local edge: Jinv A n = detJ W n_ref / |e|
    W = pulled_back_diffusion(mesh.Jinv, A_el)
    scale = mesh.detJ[:, None] / mesh.edge_length[mesh.elem_edges]
    qvec = (W @ -GRAD_LAMBDA.T).transpose(0, 2, 1) * scale[..., None]
    on = handler.edge_kinds[mesh.elem_edges] != 1  # Dirichlet sides are skipped

    flux = np.zeros((2, mesh.n_edges, wq.size, m))
    for p, (ids, _, _) in handler.groups.items():
        U = np.moveaxis(handler.gather(coeffs, p), 1, 0)
        for l, o in np.ndindex(3, 2):
            sel = np.nonzero(on[ids, l] & (mesh.elem_reversed[ids, l] == o))[0]
            k = ids[sel]
            V = U[:, sel].reshape(len(U), -1)
            G = (tables[l, o, :, :len(V)] @ V).reshape(2, wq.size, sel.size, m)
            q = qvec[k, l]
            flux[o, mesh.elem_edges[k, l]] = np.moveaxis(
                q[:, 0, None] * G[0] + q[:, 1, None] * G[1], 1, 0)
    jump = flux[0] + flux[1]
    return mesh.edge_length[:, None] * np.einsum("q,eqm->em", wq, jump**2)


def estimate(handler, coeffs, values, co):
    """Assemble the indicator field for computed eigenpairs.

    coeffs has shape (n_dofs, m) with columns the computed fields, else
    ValueError; values are the matching eigenvalues.  Dirichlet edges
    are read from the handler.
    """
    mesh = handler.mesh
    values = np.asarray(values, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 2 or coeffs.shape[1] != values.size:
        raise ValueError("coefficient columns must match eigenvalues")
    res = element_residual_norms(handler, coeffs, values, co)
    jumps = edge_jump_norms(handler, coeffs, co)

    p_el = handler.degrees.astype(float)
    scale_el = (mesh.h / p_el) ** 2
    edge_w = mesh.edge_length / handler.p_edge_max
    edge_w = np.where(handler.edge_kinds == 0, 0.5 * edge_w,
                      np.where(handler.edge_kinds == 2, edge_w, 0.0))
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
    return err / field.total if field.total != 0 else math.nan
