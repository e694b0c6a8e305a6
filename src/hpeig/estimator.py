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
each term is one product of a reference table with a degree group's
coefficients, gathered once for both.  The edge rule is mirror-symmetric,
so a side that runs against its edge (mesh.elem_reversed) reads the
one-orientation edge table at its points in reverse order.
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


def element_residual_norms(handler, local, W, values, c_el):
    """Squared L2 norms of the strong interior residual, shape (ne, m).

    local[p] holds the degree-p group's gathered coefficients (n_local(p),
    K, m), W (ne, 2, 2) A pulled back to the reference element, c_el (ne,)
    c.  A is constant per element: the divergence term is A : Hess.
    """
    mesh = handler.mesh
    out = np.zeros((mesh.n_elements, values.size))
    for p, (ids, _, _) in handler.groups.items():
        ker, U, Wk = reference_kernels(p), local[p], W[ids]
        # rows: values, then the Hessian components (xx, xy, yy)
        Q = (ker["VH"] @ U.reshape(len(U), -1)).reshape(4, -1, *U.shape[1:])
        R = (values - c_el[ids, None]) * Q[0] + Wk[:, 0, 0, None] * Q[1] \
            + 2.0 * Wk[:, 0, 1, None] * Q[2] + Wk[:, 1, 1, None] * Q[3]
        out[ids] = mesh.detJ[ids, None] * (ker["w"] @ (R**2).reshape(len(R), -1)
                                           ).reshape(R.shape[1:])
    return out


def edge_jump_norms(handler, local, W):
    """Squared L2 norms of conormal flux jumps, shape (n_edges, m).

    local and W are as in element_residual_norms.  Interior edges carry
    the two-sided jump, Neumann edges the single-sided flux, Dirichlet
    edges zero, at the points of reference_kernels' E and Ew of the largest
    degree (E's leading n_local(p) columns serve degree p), lower vertex first.
    """
    mesh, ne = handler.mesh, handler.mesh.n_elements
    ker = reference_kernels(int(handler.degrees.max()))
    E, wq = ker["E"], ker["Ew"]
    # pulled-back conormal of each local edge: Jinv A n = detJ W n_ref / |e|
    scale = mesh.detJ[:, None] / mesh.edge_length[mesh.elem_edges]
    qvec = ((W @ -GRAD_LAMBDA.T) * scale[:, None, :]).T  # (3, 2, ne)

    # flux[l, k, i]: side l of element k at its point i; absent and
    # Dirichlet sides read element ne, zero
    flux = np.zeros((3, ne + 1, wq.size, next(iter(local.values())).shape[-1]))
    for p, (ids, _, _) in handler.groups.items():
        U = local[p]
        G = (E[:, :, :len(U)].reshape(-1, len(U)) @ U.reshape(len(U), -1)
             ).reshape(3, 2, wq.size, *U.shape[1:])
        q = qvec[:, :, None, ids, None]
        flux[:, ids] = np.swapaxes(q[:, 0] * G[:, 0] + q[:, 1] * G[:, 1], 1, 2)

    # the second side runs against the edge (interior sides differ): read backwards
    k, l = mesh.edge_elems, np.maximum(mesh.edge_local, 0)
    side = l * (ne + 1) + np.where((handler.edge_kinds[:, None] == 1) | (k < 0), ne, k)
    side = np.where(mesh.elem_reversed[k[:, :1], l[:, :1]], side[:, ::-1], side)
    flux = flux.reshape(-1, *flux.shape[2:])
    jump = flux[side[:, 0]] + flux[side[:, 1], ::-1]
    return mesh.edge_length[:, None] * np.einsum("q,eqm->em", wq, jump**2)


def estimate(handler, coeffs, values, co):
    """Assemble the indicator field for computed eigenpairs.

    coeffs has shape (n_dofs, m) with columns the computed fields, else
    ValueError; values are the matching eigenvalues.  Interior edges weigh
    1/2, all others 1: edge_jump_norms is zero on Dirichlet edges.
    """
    mesh = handler.mesh
    values = np.asarray(values, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 2 or coeffs.shape[1] != values.size:
        raise ValueError("coefficient columns must match eigenvalues")
    local = {p: np.ascontiguousarray(handler.gather(coeffs, p).transpose(1, 0, 2))
             for p in handler.groups}
    A_el, c_el = co.on_elements(mesh)
    W = pulled_back_diffusion(mesh.Jinv, A_el)
    res = element_residual_norms(handler, local, W, values, c_el)
    jumps = edge_jump_norms(handler, local, W)

    scale_el = (mesh.h / handler.degrees.astype(float)) ** 2
    edge_w = mesh.edge_length / handler.p_edge_max
    edge_w = np.where(handler.edge_kinds == 0, 0.5 * edge_w, edge_w)
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
