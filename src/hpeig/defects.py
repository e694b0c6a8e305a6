"""Approximation defects of a computed cluster via a fine surrogate.

The defects of the span of computed eigenpairs are the squared
generalized eigenvalues of the pair (E, G), where E collects energy
inner products of solution errors u(field_i) - uhat(field_i) and G the
energies of the exact solutions.  The exact solution operator is
replaced by a fine surrogate space: one uniform bisection of the mesh
with every degree raised by two.  Both stiffness solves here (the
fine surrogate and the coarse identity check) factor with SuperLU under
the one symmetric positive definite setting, eigensolve.SPD_LU:
symmetric minimum-degree ordering and no pivoting.

In the discrete space itself the solution with an eigenpair source is
the eigenvector divided by its eigenvalue, so the surrogate defect of
field_i is w_i - prolong(field_i) / value_i with w_i the fine solve.

The defect sum is pinned between the value-weighted error energies
(trace bounds) and bounds the value-weighted eigenvalue errors from
below through the cluster-width constant; both checks are exposed here
together with a Hilbert-Schmidt subspace angle.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import splu

from .assembly import assemble_load, assemble_stiffness
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


def defect_report(handler, co, values, vectors):
    """Compute the defect spectrum of the given eigenpairs.

    values and vectors are the computed cluster on handler's space
    (one column per pair).  Returns a DefectReport; the
    surrogate handler is also returned for reuse.
    """
    _check_coercive(handler, co)
    values = np.asarray(values, dtype=float)
    fine = fine_handler(handler)
    Bf = assemble_stiffness(fine, co)
    P = prolong(handler, fine, vectors)
    loads = assemble_load(fine, P)
    W = splu(Bf.T, **SPD_LU).solve(loads)
    D = W - P / values[None, :]
    E = D.T @ (Bf @ D)
    E = 0.5 * (E + E.T)
    G = W.T @ (Bf @ W)
    G = 0.5 * (G + G.T)
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
    error sum dominates (value_1 / (2 value_M)) * sum(eta2).
    """
    values = report.values
    eta_m = float(np.sqrt(max(report.eta2[-1], 0.0)))
    gap = (next_value - values[-1]) / (next_value + values[-1])
    hypothesis = eta_m < 1.0 and eta_m / (1.0 - eta_m) < gap
    lhs = values[0] / (2.0 * values[-1]) * float(np.sum(report.eta2))
    rhs = total_error(values, refs)
    return {"hypothesis": bool(hypothesis), "lhs": lhs, "rhs": rhs,
            "ok": bool(lhs <= rhs * (1.0 + 1e-10) + 1e-14)}


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

    Returns a list of dicts with keys name, value, tol, ok.  With
    reference values the cluster bound check is included.  Raises
    ValueError before any assembly when the operator is not coercive.
    """
    _check_coercive(handler, co)
    checks = []
    B = assemble_stiffness(handler, co)
    loads = assemble_load(handler, vectors)
    back = splu(B.T, **SPD_LU).solve(loads)
    resid = np.linalg.norm(back - vectors / np.asarray(values)[None, :])
    scale = np.linalg.norm(back)
    checks.append({"name": "discrete_solution_identity",
                   "value": resid / scale, "tol": 1e-9,
                   "ok": resid <= 1e-9 * scale})

    report, fine = defect_report(handler, co, values, vectors)
    lo, hi = report.trace_slacks()
    span = max(report.trace_upper, 1e-300)
    checks.append({"name": "trace_sandwich_lower", "value": lo / span,
                   "tol": -1e-10, "ok": lo >= -1e-10 * span})
    checks.append({"name": "trace_sandwich_upper", "value": hi / span,
                   "tol": -1e-10, "ok": hi >= -1e-10 * span})
    checks.append({"name": "defects_nonnegative",
                   "value": float(report.eta2[0]), "tol": -1e-12,
                   "ok": report.eta2[0] >= -1e-12})
    checks.append({"name": "defects_below_one",
                   "value": float(report.eta2[-1]), "tol": 1.0,
                   "ok": report.eta2[-1] < 1.0})
    checks.append({"name": "gradient_matrix_deviation",
                   "value": report.d_l, "tol": 1.0,
                   "ok": report.d_l < 1.0})
    if refs is not None and next_value is not None:
        bound = cluster_bound_check(report, refs, next_value)
        checks.append({"name": "cluster_lower_bound",
                       "value": bound["lhs"] / max(bound["rhs"], 1e-300),
                       "tol": 1.0, "ok": bound["ok"]})
    return checks, report
