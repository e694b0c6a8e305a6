"""Lowest eigenpairs of the pencil (B, M) with symmetric B, positive M.

Shift-and-invert Lanczos through ARPACK (Lehoucq, Sorensen and Yang,
ARPACK Users' Guide, 1998): B - shift M is factored once with SuperLU,
and its solves are the operator whose largest eigenvalues ARPACK finds.
A negative shift keeps the factorization definite when B itself is only
semidefinite (pure Neumann problems).  ARPACK needs more unknowns than
pairs plus one, so only smaller pencils go to a dense solver.

Every matrix hpeig factors is symmetric positive definite, and SPD_LU
is the one SuperLU setting for all of them: a minimum-degree ordering
of A^T + A applied symmetrically, with no pivoting (George and Liu,
Computer Solution of Large Sparse Positive Definite Systems, 1981).
It sets relax=1: with SuperLU's default relaxed supernodes the
16,192-dof p = 2 slit_square stiffness took 0.70 s to factor into 3.8 M
entries, against 0.05 s and 0.67 M with relax=1.  SuperLU takes CSC
input; the transpose of a symmetric CSR matrix is that matrix in CSC
form and shares its arrays, so each call site passes A.T, not a copy.

ARPACK's Ritz estimates bound the residual of the inverted operator,
not the relative residual of the pencil that `tol` limits, so ARPACK is
asked for tol / 100 and the returned pairs are checked against tol.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

SPD_LU = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
          "relax": 1, "options": {"SymmetricMode": True}}


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


def _residuals(B, M, values, vectors):
    BX = B @ vectors
    MX = M @ vectors
    R = BX - MX * values[None, :]
    scale = np.linalg.norm(BX, axis=0) + np.abs(values) * np.linalg.norm(MX, axis=0)
    scale = np.maximum(scale, np.linalg.norm(MX, axis=0))
    return np.linalg.norm(R, axis=0) / scale


def solve_lowest(B, M, m, shift=0.0, tol=1e-10, max_iter=500, seed=0,
                 x0=None):
    """Lowest m eigenpairs of B x = lambda M x.

    Parameters
    ----------
    B, M : sparse matrices, symmetric; M positive definite.
    m : number of pairs.
    shift : pole of the inverted operator; must stay below the spectrum
        (0 for coercive B, negative when B is singular).
    tol : largest accepted relative residual of a returned pair.
    max_iter : ARPACK restart limit.
    seed : seeds the random start vector of a cold solve.
    x0 : optional (n, k) block of starting vectors (a transferred
        cluster from a previous space); their sum is the start vector.

    Returns
    -------
    EigenCluster; raises SolverError if ARPACK fails or tol is missed.
    """
    n = B.shape[0]
    if m > n:
        raise ValueError(f"asked for {m} pairs in dimension {n}")

    if n <= m + 1:
        values, vectors = scipy.linalg.eigh(B.toarray(), M.toarray(),
                                            subset_by_index=[0, m - 1])
        return EigenCluster(values, vectors,
                            _residuals(B, M, values, vectors), 0, 0)

    rng = np.random.default_rng(seed)
    if x0 is None:
        v0 = rng.standard_normal(n)
    else:
        v0 = np.asarray(x0, dtype=float).reshape(n, -1).sum(axis=1)
    A = (B if shift == 0 else B - shift * M).tocsr()
    F = scipy.sparse.linalg.splu(A.T, **SPD_LU)
    solves = 0

    def inverse(b):
        nonlocal solves
        solves += 1
        return F.solve(b)

    OPinv = scipy.sparse.linalg.LinearOperator((n, n), matvec=inverse,
                                               dtype=float)
    try:
        theta, X = scipy.sparse.linalg.eigsh(
            B, k=m, M=M, sigma=shift, which="LM", OPinv=OPinv, v0=v0,
            tol=tol / 100, maxiter=max_iter, rng=rng)  # rng: restart vectors
    except scipy.sparse.linalg.ArpackError as exc:
        raise SolverError(f"ARPACK failed after {solves} solves: {exc}") from exc
    order = np.argsort(theta)
    theta, X = theta[order], X[:, order]
    res = _residuals(B, M, theta, X)
    if res.max() > tol:
        raise SolverError(f"residual {res.max():.2e} above tolerance "
                          f"{tol:.0e} after {solves} solves")
    return EigenCluster(theta, X, res, solves, F.nnz)
