"""Approximation defects of a computed cluster via a fine surrogate.

The defects of the span of computed eigenpairs are the squared
generalized eigenvalues of the pair (E, G), where E collects energy
inner products of solution errors u(field_i) - uhat(field_i) and G the
energies of the exact solutions.  The exact solution operator is
replaced by a fine surrogate space: one uniform bisection of the mesh
with every degree raised by two.  Its solve eliminates each element's
bubbles first (static condensation), and E and G are element energies,
so the surrogate stiffness is never assembled; the coarse identity check
factors the full stiffness.  Both factor under eigensolve.SPD_LU.

In the discrete space itself the solution with an eigenpair source is
the eigenvector divided by its eigenvalue, so the surrogate defect of
field_i is w_i - prolong(field_i) / value_i, w_i the fine solve with
load M prolong(field_i).  Every load here is assemble_load, the product
of assembly.mass_operator: the M of warm adaptive solves.  A cold solve,
as oracle-check makes, applies the assembled M; the two differ by
rounding only.

The defect sum is pinned between the value-weighted error energies
(trace bounds) and bounds the value-weighted eigenvalue errors from
below through the cluster-width constant; both checks are exposed here
together with a Hilbert-Schmidt subspace angle.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import splu

from .assembly import (_scatter, assemble_load, assemble_stiffness,
                       element_stiffness)
from .basis import bubble_indices
from .eigensolve import SPD_LU
from .estimator import total_error
from .mesh import uniform_refine
from .space import DofHandler, transfer


def fine_handler(handler):
    """Surrogate space: mesh bisected once, every degree raised by two."""
    mesh = uniform_refine(handler.mesh)
    return DofHandler(mesh, handler.degrees[mesh.parent] + 2,
                      handler.dirichlet_tags)


def prolong(handler, fine, vectors):
    """Carry coefficient columns into the fine space."""
    return transfer(handler, fine, vectors)


@dataclass
class DefectReport:
    """Defect spectrum of a cluster plus the bound ingredients.

    eta2 holds the squared defects ascending.  trace_lower and
    trace_upper sandwich their sum by sum(E_ii * value_i) scaled with
    the gradient-matrix deviation d_l.
    """
    values: np.ndarray
    eta2: np.ndarray
    E: np.ndarray
    G: np.ndarray
    d_l: float
    fine_dofs: int

    @property
    def trace_upper(self):
        return float(np.sum(np.diag(self.E) * self.values))

    @property
    def trace_lower(self):
        return self.trace_upper / (1.0 + self.d_l)

    def trace_slacks(self):
        """Nonnegative (up to roundoff) gaps of the trace sandwich."""
        s = float(np.sum(self.eta2))
        return s - self.trace_lower, self.trace_upper - s


def _check_coercive(handler, co):
    if not handler.dirichlet_tags and float(np.max(co.c)) == 0.0:
        raise ValueError("solution operator needs Dirichlet data or a "
                         "positive zero-order coefficient")


def condensed_solve(handler, co, loads):
    """Solve B w = loads, loads (n_dofs, m), bubbles eliminated first.

    Bubbles are numbered last, so the interface dofs lead.  Per group,
    one batched solve gives X = K_bb^-1 [K_bi, f_b]; the Schur blocks
    K_ii - K_ib X are scattered and factored, then bubbles recovered.
    """
    n_i = int(handler.edge_offset[-1])
    rhs = loads[:n_i].copy()
    maps, blocks, parts = [], [], []
    for p, (_, g, s) in handler.groups.items():
        K = element_stiffness(handler, co, p)
        b = bubble_indices(p)  # bubbles have sign 1
        i = np.setdiff1d(np.arange(K.shape[1]), b)
        K_ib = K[:, i[:, None], b]
        X = np.linalg.solve(K[:, b[:, None], b], np.concatenate(
            [K_ib.transpose(0, 2, 1), handler.gather(loads, p)[:, b]], axis=2))
        ok = g[:, i] >= 0
        np.subtract.at(rhs, g[:, i][ok],
                       (s[:, i, None] * (K_ib @ X[:, :, i.size:]))[ok])
        maps.append((g[:, i], s[:, i]))
        blocks.append(K[:, i[:, None], i] - K_ib @ X[:, :, :i.size])
        parts.append((p, g[:, b], i, X))
    del K, K_ib  # else alive through the factorisation, the memory peak
    w = np.zeros_like(loads)
    w[:n_i] = splu(_scatter(n_i, maps, blocks).T, **SPD_LU).solve(rhs)
    for p, g_b, i, X in parts:
        w[g_b] = X[:, :, i.size:] - X[:, :, :i.size] @ handler.gather(w, p)[:, i]
    return w


def element_energies(handler, co, vectors):
    """vectors^T B vectors summed over the elements, B never assembled."""
    m = vectors.shape[1]
    gram = np.zeros((m, m))
    for p in handler.groups:
        local = handler.gather(vectors, p)
        energy = element_stiffness(handler, co, p) @ local
        gram += local.reshape(-1, m).T @ energy.reshape(-1, m)
    return 0.5 * (gram + gram.T)


def defect_report(handler, co, values, vectors):
    """Compute the defect spectrum of the given eigenpairs.

    values and vectors are the computed cluster on handler's space
    (one column per pair).  Returns a DefectReport; the
    surrogate handler is also returned for reuse.
    """
    _check_coercive(handler, co)
    values = np.asarray(values, dtype=float)
    fine = fine_handler(handler)
    P = prolong(handler, fine, vectors)
    W = condensed_solve(fine, co, assemble_load(fine, P))
    m = values.size
    gram = element_energies(fine, co, np.hstack([W - P / values[None, :], W]))
    E, G = gram[:m, :m], gram[m:, m:]
    eta2 = scipy.linalg.eigh(E, G, eigvals_only=True)
    D_mu = np.diag(1.0 / values)
    S = np.diag(np.sqrt(values))
    d_l = float(np.linalg.norm(S @ (G - D_mu) @ S, 2))
    report = DefectReport(values=values.copy(), eta2=eta2, E=E, G=G,
                          d_l=d_l, fine_dofs=fine.n_dofs)
    return report, fine


def cluster_bound_check(report, refs, next_value):
    """Lower eigenvalue-error bound from the defect sum.

    refs are reference eigenvalues for the cluster and next_value the
    first one beyond it.  The separation hypothesis compares the top
    defect with the relative gap; when it holds, the value-weighted
    error sum dominates (value_1 / (2 value_M)) * sum(eta2).  ratio <= 1
    exactly when ok: lhs over the bound ok uses, inf if that is <= 0.
    """
    values = report.values
    eta_m = float(np.sqrt(max(report.eta2[-1], 0.0)))
    gap = (next_value - values[-1]) / (next_value + values[-1])
    hypothesis = eta_m < 1.0 and eta_m / (1.0 - eta_m) < gap
    lhs = values[0] / (2.0 * values[-1]) * float(np.sum(report.eta2))
    rhs = total_error(values, refs)
    limit = rhs * (1.0 + 1e-10) + 1e-14
    return {"hypothesis": bool(hypothesis), "lhs": lhs, "rhs": rhs,
            "ratio": lhs / limit if limit > 0 else np.inf,
            "ok": bool(lhs <= limit)}


def asymptotic_ratio(report, refs):
    """sum(eta2) over the value-weighted eigenvalue error sum."""
    return float(np.sum(report.eta2)) / total_error(report.values, refs)


def sin_theta_hs(M, a, b):
    """Hilbert-Schmidt sine of the angles between two subspaces.

    a and b hold basis columns in the inner product given by sparse
    SPD M.  Equals sqrt(sum(1 - s_i^2)) over the singular values of
    the cross Gram of orthonormalized bases.
    """
    def orthonormalize(x):
        g = x.T @ (M @ x)
        return x @ np.linalg.inv(np.linalg.cholesky(g).T)

    qa = orthonormalize(np.asarray(a, dtype=float))
    qb = orthonormalize(np.asarray(b, dtype=float))
    s = np.linalg.svd(qa.T @ (M @ qb), compute_uv=False)
    s = np.clip(s, 0.0, 1.0)
    return float(np.sqrt(np.sum(1.0 - s**2)))


def oracle_checks(handler, co, values, vectors, refs=None, next_value=None):
    """Self-consistency checks of the defect machinery on one cluster.

    Returns a list of dicts with keys name, value, tol, ok, and the
    DefectReport.  With reference values the cluster bound check is
    included.  Raises ValueError before any assembly when the operator
    is not coercive.
    """
    report = defect_report(handler, co, values, vectors)[0]
    checks = []

    def add(name, value, tol, ok):
        checks.append({"name": name, "value": value, "tol": tol, "ok": ok})

    B = assemble_stiffness(handler, co)
    loads = assemble_load(handler, vectors)
    back = splu(B.T, **SPD_LU).solve(loads)
    resid = np.linalg.norm(back - vectors / np.asarray(values)[None, :])
    scale = np.linalg.norm(back)
    add("discrete_solution_identity", resid / scale, 1e-9,
        resid <= 1e-9 * scale)

    lo, hi = report.trace_slacks()
    span = max(report.trace_upper, 1e-300)
    add("trace_sandwich_lower", lo / span, -1e-10, lo >= -1e-10 * span)
    add("trace_sandwich_upper", hi / span, -1e-10, hi >= -1e-10 * span)
    add("defects_nonnegative", float(report.eta2[0]), -1e-12,
        report.eta2[0] >= -1e-12)
    add("defects_below_one", float(report.eta2[-1]), 1.0,
        report.eta2[-1] < 1.0)
    add("gradient_matrix_deviation", report.d_l, 1.0, report.d_l < 1.0)
    if refs is not None and next_value is not None:
        bound = cluster_bound_check(report, refs, next_value)
        add("cluster_lower_bound", bound["ratio"], 1.0, bound["ok"])
    return checks, report
