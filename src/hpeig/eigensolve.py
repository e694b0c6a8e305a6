"""Lowest eigenpairs of the pencil (B, M) with symmetric B, positive M.

B - shift M is factored once by _factor, the module's one SuperLU call,
and the wanted pairs are the largest eigenvalues mu = 1 / (lambda - shift)
of OP = (B - shift M)^-1 M, self-adjoint in the M inner product.  A
negative shift keeps the factor definite when B is only semidefinite
(pure Neumann problems); a singular pencil is a SolverError (CLI exit 3).
M is only applied: an operator (mass_operator) needs shift 0, else ValueError.

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

Thick-restart (Krylov-Schur) Lanczos on OP (Stewart, SIAM J. Matrix
Anal. Appl. 23, 2001; Wu and Simon, ibid. 22, 2000) on the terms of
ARPACK's shift-invert mode: ncv = min(n, max(2m + 1, 20)); the start is
OP times the given vector; restarts keep the k + (ncv - k) // 2 largest
Ritz pairs; a pair converges at |beta s| <= tol / 100 |mu|, a bound on
OP's residual (the pencil's is checked against tol); vectors are
purified.  M V is kept beside V, so both Gram-Schmidt passes take dot
products with its rows: one M product a solve.  A breakdown goes on
from a random vector, uncoupled; one that orthogonalizes to exactly zero
(n = 1) stays zero.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

SPD_LU = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
          "relax": 1, "panel_size": 1, "options": {"SymmetricMode": True}}


class SolverError(RuntimeError):
    """Eigenvalue iteration failed to converge."""


@dataclass
class EigenCluster:
    """Lowest eigenpairs, ascending; vectors are M-orthonormal columns.

    iterations counts the solves with the factored operator and fill
    the entries stored in its L and U factors.
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
    if not res.max() <= tol:  # NaN too
        raise SolverError(f"residual {res.max():.2e} above tolerance "
                          f"{tol:.0e} after {cluster.iterations} solves")
    return cluster


def _factor(B, M, sigma, what):
    """SPD_LU factor of B - sigma M (of B at sigma 0); SolverError, naming
    what, if SuperLU finds it exactly singular."""
    if sigma != 0 and not scipy.sparse.issparse(M):
        raise ValueError(f"{what}: an operator M needs sigma = 0")
    A = (B if sigma == 0 else B - sigma * M).tocsr()
    try:
        return scipy.sparse.linalg.splu(A.T, **SPD_LU)
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SolverError(f"{what}: B - {sigma:.6g} M: {exc}") from exc


def count_below(B, M, tau):
    """Number of eigenvalues of (B, M), M sparse, below tau: by Sylvester's
    law of inertia, the negative pivots of SPD_LU's B - tau M = P L U P^T."""
    F = _factor(B, M, tau, "inertia count")
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
        at shift 0 only, a LinearOperator on (n,) and (n, k) arrays.
    m : number of pairs, 1 <= m <= n (else ValueError).
    shift : pole of the inverted operator; must stay below the spectrum
        (0 for coercive B, negative when B is singular).
    tol : largest accepted relative residual of a returned pair.
    max_iter : number of restart passes, each filling the basis.
    seed : seeds the random start vector of a cold solve.
    x0 : optional (n, k) block of starting vectors (a transferred
        cluster from a previous space); their sum is the start vector.

    A cold solve (x0 None) with a sparse M is certified: Lanczos from one
    vector can miss a copy of a multiple eigenvalue, so count_below at
    tau = lambda_m - 1e-6 |lambda_m - shift| must equal the number of
    values below tau.  If it is larger, the same iteration with the found
    vectors deflated adds the missing pairs, and the lowest m are counted
    again.

    Returns
    -------
    EigenCluster; SolverError if the factor, Lanczos, tol or the count fails.
    """
    n = B.shape[0]
    if not 1 <= m <= n:
        raise ValueError(f"asked for {m} pairs in dimension {n}")

    rng = np.random.default_rng(seed)
    v0 = (rng.standard_normal(n) if x0 is None
          else np.asarray(x0, dtype=float).reshape(n, -1).sum(axis=1))
    F = _factor(B, M, shift, "shift-invert")
    ncv = min(n, max(2 * m + 1, 20))
    V, MV = np.empty((2, ncv + 1, n))
    solves = 0

    def lanczos(k, v, project=lambda y: y):
        """Lowest k pairs: the largest mu of project(OP)."""
        nonlocal solves
        T = np.zeros((ncv, ncv))

        def extend(j, w):
            # w, M-orthogonalized twice against rows :j, becomes row j; if
            # the second pass took at least what it left, w was rounding in
            # their span, and a random vector replaces it with beta 0
            coef = np.zeros(j)
            for _ in range(2):
                h = MV[:j] @ w
                w -= h @ V[:j]
                coef += h
            Mw = M @ w
            beta = np.sqrt(max(w @ Mw, 0.0))
            if beta <= np.linalg.norm(h):
                w, beta = project(rng.standard_normal(n)), 0.0
                for _ in range(2):
                    w -= (MV[:j] @ w) @ V[:j]
                Mw = M @ w
            norm = beta or np.sqrt(w @ Mw) or 1.0
            V[j], MV[j] = w / norm, Mw / norm
            return coef, beta

        solves += 1  # start in the range of OP, as ARPACK's dgetv0 does
        extend(0, project(F.solve(M @ v, trans="T")))
        j = 0
        for _ in range(max_iter):
            for j in range(j, ncv):
                solves += 1
                T[j, :j + 1], beta = extend(
                    j + 1, project(F.solve(MV[j], trans="T")))
            mu, S = np.linalg.eigh(T, UPLO="L")  # ascending; rows set above
            if np.all(abs(beta * S[-1, -k:]) <= tol / 100 * abs(mu[-k:])):
                # purified as ARPACK's dseupd does: X = OP X diag(1 / mu)
                X = S[:, -k:].T @ V[:ncv] + np.outer(
                    beta * S[-1, -k:] / mu[-k:], V[ncv])
                return shift + 1.0 / mu[-k:], X.T
            j = k + (ncv - k) // 2
            V[:j], MV[:j] = S[:, -j:].T @ V[:ncv], S[:, -j:].T @ MV[:ncv]
            V[j], MV[j] = V[ncv], MV[ncv]
            T = np.diag(np.append(mu[-j:], np.zeros(ncv - j)))
        raise SolverError(f"Lanczos not converged after {solves} solves, "
                          f"max_iter = {max_iter}")

    theta, X = lanczos(m, v0)
    certify = x0 is None and scipy.sparse.issparse(M)
    for deflated in (False, True) if certify else ():
        tau = theta.max() - 1e-6 * abs(theta.max() - shift)
        missing = count_below(B, M, tau) - np.count_nonzero(theta < tau)
        if missing == 0:
            break
        if deflated or missing < 0:
            raise SolverError(f"inertia count: {missing} eigenvalues below "
                              f"{tau:.6g} missing after {solves} solves")
        more, Y = lanczos(missing, rng.standard_normal(n),
                          lambda y, X=X, MX=M @ X: y - X @ (MX.T @ y))
        keep = np.argsort(np.append(theta, more))[:m]
        theta, X = np.append(theta, more)[keep], np.hstack([X, Y])[:, keep]
    order = np.argsort(theta)
    cluster = EigenCluster(theta[order], X[:, order], None, solves, F.nnz)
    return check_residuals(B, M, cluster, tol)
