"""Adaptive refinement loop driven by the residual indicators.

Each step solves for the lowest cluster, estimates per-element error,
marks a fixed fraction of elements by largest value-weighted indicator,
and splits the marked set between bisection and degree increment using
a per-element analyticity estimate: the local solution is expanded in
an orthonormal modal basis, the block norms a_q per total degree q are
fitted to log a_q ~ const - sigma q, and large decay rates choose the
degree increment.  Degrees of neighboring elements are smoothed to
differ by at most one (raising the lower side).
"""

import math
from dataclasses import dataclass

import numpy as np

from .assembly import assemble_mass, assemble_stiffness, reference_kernels
# tri_shapes is no longer called here, but perfbench/spans.py still wraps
# it in this namespace
from .basis import dubiner_degrees, tri_shapes  # noqa: F401
from .eigensolve import solve_lowest
from .estimator import estimate
from .mesh import refine
from .space import DofHandler, transfer

H_REFINE = "h"
P_INCREMENT = "p"


@dataclass
class AdaptConfig:
    """Knobs for the adaptive loop.

    m is the cluster size; theta the marking fraction; sigma0 the decay
    threshold above which a marked element takes a degree increment;
    p_max caps degrees (capped elements fall back to bisection).  With
    mode "uniform" every element is bisected each step and degrees stay
    at p_init.
    """
    m: int
    theta: float = 0.3
    sigma0: float = 1.0
    p_max: int = 10
    p_init: int = 2
    dof_budget: int = 30000
    mode: str = "adaptive"
    max_steps: int = 100
    solver_tol: float = 1e-10
    solver_max_iter: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("adaptive", "uniform"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")
        if self.m < 1 or self.p_init < 1 or self.p_max < self.p_init:
            raise ValueError("need m >= 1 and 1 <= p_init <= p_max")
        if self.max_steps < 1 or self.solver_max_iter < 1:
            raise ValueError("max_steps and solver max_iter must be >= 1")
        if not 0.0 < self.solver_tol < math.inf:
            raise ValueError("solver tol must be finite and positive")
        if math.isnan(self.sigma0):
            raise ValueError("sigma0 must not be NaN")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class ConvergenceRecord:
    """One adaptive step: discrete space, eigenpairs, indicators."""
    step: int
    handler: DofHandler
    cluster: object
    field: object

    @property
    def n_dofs(self):
        return self.handler.n_dofs


def mark_fixed_fraction(indicators, theta):
    """Ids of the ceil(theta n) largest indicators, ties to lower id."""
    indicators = np.asarray(indicators, dtype=float)
    n = indicators.size
    count = int(math.ceil(theta * n))
    order = np.lexsort((np.arange(n), -indicators))
    return np.sort(order[:count])


def estimate_analyticity(handler, coeffs, elems, members):
    """Modal decay rate sigma per (element, member) pair.

    The local field is projected onto the orthonormal modal basis of
    its element; block norms a_q per polynomial degree decay like
    exp(-sigma q) for analytic fields.  The least-squares fit of
    log a_q against q drops blocks below 1e-14 of the largest and
    ignores the constant block once p >= 3; fewer than two surviving
    points means the expansion is resolved and returns +inf.

    coeffs has shape (n_dofs, m); members[i] is the column judged on
    element elems[i].
    """
    elems = np.asarray(elems, dtype=np.int64)
    members = np.asarray(members, dtype=np.int64)
    sigmas = np.empty(elems.size)
    for p in np.unique(handler.degrees[elems]).tolist():
        sel = np.nonzero(handler.degrees[elems] == p)[0]
        ker = reference_kernels(p)
        local = handler.gather(coeffs, p, handler.row[elems[sel]])
        local = local[np.arange(sel.size), :, members[sel]]
        coef = (local @ ker["V"].T * ker["w"]) @ ker["D"]
        q = np.arange(p + 1)
        a = np.sqrt(coef**2 @ (dubiner_degrees(p)[:, None] == q))
        keep = a >= 1e-14 * np.maximum(a.max(axis=1, keepdims=True), 1e-300)
        if p >= 3:
            keep[:, 0] = False
        # least-squares slope over the kept points of each row
        n = keep.sum(axis=1)
        resolved = n < 2
        q_mean = (keep * q).sum(axis=1) / np.maximum(n, 1)
        dq = np.where(keep, q - q_mean[:, None], 0.0)
        y = np.log(np.where(keep, a, 1.0))
        slope = (dq * y).sum(axis=1) / np.where(resolved, 1.0,
                                                (dq**2).sum(axis=1))
        sigmas[sel] = np.where(resolved, np.inf, -slope)
    return sigmas


def decide_refinements(handler, field, vectors, marked, cfg):
    """Split marked elements into bisection and degree-increment sets.

    Each marked element is judged by its dominant cluster member (the
    one with the largest value-weighted local indicator).  Low degrees
    always bisect; analytic decay at degree below p_max increments.
    Returns (h_marked, p_marked, sigmas).
    """
    empty = np.array([], dtype=np.int64)
    if marked.size == 0:
        return empty, empty, np.array([])
    if field.included.any():
        members = np.asarray(np.argmax(field.scaled_local[marked], axis=1))
    else:
        members = np.zeros(marked.size, dtype=np.int64)
    sigmas = estimate_analyticity(handler, vectors, marked, members)
    p_el = handler.degrees[marked]
    take_p = (p_el >= 2) & (sigmas >= cfg.sigma0) & (p_el < cfg.p_max)
    return marked[~take_p], marked[take_p], sigmas


def solve_cluster(handler, co, cfg, x0=None):
    """Assemble B and M on handler's space and solve for the cluster.

    Without Dirichlet data the shift is -1, which keeps the
    factorization of a pure Neumann problem nonsingular; otherwise 0.
    x0 (n_dofs, k) warm-starts the solve.
    """
    B = assemble_stiffness(handler, co)
    M = assemble_mass(handler)
    shift = 0.0 if handler.dirichlet_tags else -1.0
    return solve_lowest(B, M, cfg.m, shift=shift, tol=cfg.solver_tol,
                        max_iter=cfg.solver_max_iter, seed=cfg.seed, x0=x0)


def adapt_loop(mesh, co, dirichlet_tags, cfg):
    """Generate ConvergenceRecords until the dof budget is met.

    Solves are warm-started by carrying the previous cluster through
    mesh refinement and degree increases.
    """
    degrees = np.full(mesh.n_elements, cfg.p_init, dtype=np.int64)
    prev = None
    for step in range(cfg.max_steps):
        handler = DofHandler(mesh, degrees, dirichlet_tags)
        x0 = None
        if prev is not None:
            x0 = transfer(prev.handler, handler, prev.cluster.vectors)
        cluster = solve_cluster(handler, co, cfg, x0=x0)
        field = estimate(handler, cluster.vectors, cluster.values, co)
        record = ConvergenceRecord(step, handler, cluster, field)
        yield record
        if handler.n_dofs >= cfg.dof_budget:
            return
        prev = record

        if cfg.mode == "uniform":
            mesh = refine(mesh, np.arange(mesh.n_elements))
            degrees = degrees[mesh.parent]
            continue

        marked = mark_fixed_fraction(field.element_totals, cfg.theta)
        h_marked, p_marked, _ = decide_refinements(
            handler, field, cluster.vectors, marked, cfg)

        degrees = degrees.copy()
        degrees[p_marked] += 1
        if h_marked.size:
            mesh = refine(mesh, h_marked)
            degrees = degrees[mesh.parent]
        degrees = smooth_degrees(mesh, degrees)


def smooth_degrees(mesh, degrees):
    """Raise degrees until neighbors differ by at most one."""
    degrees = degrees.copy()
    interior = mesh.edge_elems[:, 1] >= 0
    ka = mesh.edge_elems[interior, 0]
    kb = mesh.edge_elems[interior, 1]
    while True:
        req = degrees.copy()
        np.maximum.at(req, ka, degrees[kb] - 1)
        np.maximum.at(req, kb, degrees[ka] - 1)
        if np.array_equal(req, degrees):
            return degrees
        degrees = req
