"""Lowest eigenpairs of the pencil (B, M) with symmetric B, positive M.

Shift-and-invert Lanczos through ARPACK (Lehoucq, Sorensen and Yang,
ARPACK Users' Guide, 1998): B - shift M is factored once with SuperLU,
and its solves are the operator whose largest eigenvalues ARPACK finds.
A negative shift keeps the factorization definite when B itself is only
semidefinite (pure Neumann problems).  ARPACK needs more unknowns than
pairs plus one, so only smaller pencils go to a dense solver.  M is
only applied: at shift 0 it may be a LinearOperator (mass_operator).

Every matrix hpeig factors is symmetric (here B - shift M and B - tau M;
in defects the coarse stiffness and the surrogate's condensed interface
matrix), and SPD_LU is the one SuperLU setting for all of them: a
minimum-degree ordering of A^T + A applied symmetrically, with no
pivoting (George and Liu, Computer Solution of Large Sparse Positive
Definite Systems, 1981; supernodal LU: Demmel, Eisenstat, Gilbert, Li
and Liu, SIAM J. Matrix Anal. Appl. 20, 1999).  On the 16,192-dof p = 2
slit_square stiffness, default relaxed supernodes took 0.70 s to factor
into 3.8 M entries, against 0.05 s and 0.67 M with relax=1; panel_size=1
keeps that order and fill (relax 2 or 3 with it: 3.5 M) and factors in
17.0 ms against 22.8 ms (best of 7, one BLAS thread).  A call site
factors A.T, A in SuperLU's CSC input form sharing its arrays.  One
vector solves faster transposed (trans="T", A x = b itself): 570 against
767 us there, so solve_lowest's operator does that.  A block does not:
the defect oracle's 4-column solves on its 10,201-dof interface take
2.24 ms transposed, 1.58 ms not, so defects solves A^T x = b as it is.

ARPACK's Ritz estimates bound the residual of the inverted operator,
not the relative residual of the pencil that `tol` limits, so ARPACK is
asked for tol / 100 and the returned pairs are checked against tol.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

SPD_LU = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
          "relax": 1, "panel_size": 1, "options": {"SymmetricMode": True}}


class SolverError(RuntimeError):
    """Eigenvalue iteration failed to converge."""


@dataclass
class EigenCluster:
    """Lowest eigenpairs, ascending; vectors are M-orthonormal columns.

    iterations counts the solves with the factored operator and fill
    the entries stored in its L and U factors (both 0 if dense).
    """
    values: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    iterations: int
    fill: int


def check_residuals(B, M, cluster, tol):
    """Set cluster.residuals, the relative residuals of its pairs on the
    pencil (B, M), and return cluster; SolverError if one is above tol."""
    values, BX, MX = cluster.values, B @ cluster.vectors, M @ cluster.vectors
    R = BX - MX * values[None, :]
    scale = np.linalg.norm(BX, axis=0) + np.abs(values) * np.linalg.norm(MX, axis=0)
    scale = np.maximum(scale, np.linalg.norm(MX, axis=0))
    res = cluster.residuals = np.linalg.norm(R, axis=0) / scale
    if res.max() > tol:
        raise SolverError(f"residual {res.max():.2e} above tolerance "
                          f"{tol:.0e} after {cluster.iterations} solves")
    return cluster


def count_below(B, M, tau):
    """Number of eigenvalues of (B, M), M sparse, below tau: by Sylvester's
    law of inertia, the negative pivots of SPD_LU's B - tau M = P L U P^T."""
    try:
        F = scipy.sparse.linalg.splu((B - tau * M).tocsr().T, **SPD_LU)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SolverError(f"inertia count: B - {tau:.6g} M: {exc}") from exc
    pivots = F.U.diagonal()
    if not np.array_equal(F.perm_r, F.perm_c) or not pivots.all():
        raise SolverError(f"inertia count: B - {tau:.6g} M was pivoted")
    return int(np.count_nonzero(pivots < 0))


def solve_lowest(B, M, m, shift=0.0, tol=1e-10, max_iter=500, seed=0,
                 x0=None):
    """Lowest m eigenpairs of B x = lambda M x.

    Parameters
    ----------
    B, M : symmetric, M positive definite.  B is sparse; M is sparse or,
        at shift 0, a LinearOperator on (n,) and (n, k) arrays.
    m : number of pairs.
    shift : pole of the inverted operator; must stay below the spectrum
        (0 for coercive B, negative when B is singular).
    tol : largest accepted relative residual of a returned pair.
    max_iter : ARPACK restart limit.
    seed : seeds the random start vector of a cold solve.
    x0 : optional (n, k) block of starting vectors (a transferred
        cluster from a previous space); their sum is the start vector.

    A cold solve (x0 None) with a sparse M is certified: ARPACK can miss
    a copy of a multiple eigenvalue, so count_below at tau = lambda_m -
    1e-6 |lambda_m - shift| must equal the number of returned values
    below tau.  If it is larger, one ARPACK pass with the found vectors
    deflated finds the missing pairs, and the merged lowest m are
    counted again.

    Returns
    -------
    EigenCluster; raises SolverError if ARPACK, tol or the count fails.
    """
    n = B.shape[0]
    if m > n:
        raise ValueError(f"asked for {m} pairs in dimension {n}")

    if n <= m + 1:
        cluster = EigenCluster(*scipy.linalg.eigh(
            B.toarray(), M @ np.eye(n), subset_by_index=[0, m - 1]), None, 0, 0)
        return check_residuals(B, M, cluster, tol)

    rng = np.random.default_rng(seed)
    if x0 is None:
        v0 = rng.standard_normal(n)
    else:
        v0 = np.asarray(x0, dtype=float).reshape(n, -1).sum(axis=1)
    A = (B if shift == 0 else B - shift * M).tocsr()
    F = scipy.sparse.linalg.splu(A.T, **SPD_LU)
    solves = 0

    def arpack(k, v0, project=lambda y: y):
        def inverse(b):
            nonlocal solves
            solves += 1
            return project(F.solve(b, trans="T"))
        try:
            return scipy.sparse.linalg.eigsh(
                B, k=k, M=M, sigma=shift, which="LM", v0=project(v0),
                OPinv=scipy.sparse.linalg.LinearOperator((n, n), inverse,
                                                         dtype=float),
                tol=tol / 100, maxiter=max_iter, rng=rng)  # rng: restarts
        except scipy.sparse.linalg.ArpackError as exc:
            raise SolverError(f"ARPACK failed after {solves} solves: {exc}") from exc

    theta, X = arpack(m, v0)
    certify = x0 is None and scipy.sparse.issparse(M)
    for deflated in (False, True) if certify else ():
        tau = theta.max() - 1e-6 * abs(theta.max() - shift)
        missing = count_below(B, M, tau) - np.count_nonzero(theta < tau)
        if missing == 0:
            break
        if deflated or missing < 0:
            raise SolverError(f"inertia count: {missing} eigenvalues below "
                              f"{tau:.6g} missing after {solves} solves")
        more, Y = arpack(missing, rng.standard_normal(n),
                         lambda y, X=X, MX=M @ X: y - X @ (MX.T @ y))
        keep = np.argsort(np.append(theta, more))[:m]
        theta, X = np.append(theta, more)[keep], np.hstack([X, Y])[:, keep]
    order = np.argsort(theta)
    cluster = EigenCluster(theta[order], X[:, order], None, solves, F.nnz)
    return check_residuals(B, M, cluster, tol)
