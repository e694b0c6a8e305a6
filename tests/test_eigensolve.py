import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

import hpeig.cli as cli
import hpeig.eigensolve as eigensolve
from hpeig.assembly import (Coefficients, assemble_mass, assemble_stiffness,
                            mass_operator)
from hpeig.defects import fine_handler
from hpeig.eigensolve import SPD_LU, SolverError, count_below, solve_lowest
from hpeig.mesh import square_grid, uniform_refine
from hpeig.problems import problem
from hpeig.space import DofHandler

from helpers import reference_solve_lowest


def random_pencil(n, seed=0):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.05)
    B = scipy.sparse.csr_matrix(Q @ Q.T + np.diag(np.linspace(1, 50, n)))
    R = rng.standard_normal((n, n)) * 0.02
    M = scipy.sparse.csr_matrix(R @ R.T + np.eye(n))
    return B, M


def test_arpack_matches_dense():
    B, M = random_pencil(300)
    got = solve_lowest(B, M, 6, seed=1)
    assert got.iterations > 0 and got.fill > 0
    ref_vals = reference_solve_lowest(B, M, 6)[0]
    assert np.max(np.abs(got.values / ref_vals - 1.0)) <= 1e-12
    G = got.vectors.T @ (M @ got.vectors)
    assert np.allclose(G, np.eye(6), atol=1e-9)
    assert got.residuals.max() <= 1e-10
    T = got.vectors.T @ (B @ got.vectors)
    assert np.allclose(T, np.diag(got.values), atol=1e-7 * got.values.max())


def test_dense_path_only_below_arpack_limit():
    # the sizes that once went to a dense solver (at most m + 1 unknowns)
    # and the first one past them all go to the Lanczos iteration now
    for n, m in ((1, 1), (4, 3), (5, 4), (6, 4)):
        B, M = random_pencil(n, seed=3)
        got = solve_lowest(B, M, m)
        assert got.iterations > 0
        ref_vals = reference_solve_lowest(B, M, m)[0]
        assert np.allclose(got.values, ref_vals, rtol=1e-12)


def test_dirichlet_laplacian_on_square():
    mesh = uniform_refine(uniform_refine(square_grid(4)))
    h = DofHandler(mesh, 2, dirichlet_tags=("boundary",))
    B = assemble_stiffness(h, Coefficients())
    M = assemble_mass(h)
    got = solve_lowest(B, M, 4, seed=0)
    exact = np.pi**2 * np.array([2.0, 5.0, 5.0, 8.0])
    assert np.all(got.values >= exact - 1e-9)  # Ritz values from above
    assert np.max(np.abs(got.values / exact - 1.0)) < 5e-3
    assert abs(got.values[1] - got.values[2]) < 1e-2 * exact[1]


def test_neumann_zero_mode_with_negative_shift():
    mesh = uniform_refine(uniform_refine(square_grid(4)))
    h = DofHandler(mesh, 2)
    B = assemble_stiffness(h, Coefficients())
    M = assemble_mass(h)
    got = solve_lowest(B, M, 4, shift=-1.0, seed=0)  # factors B + M
    assert got.fill > 0
    exact = np.pi**2 * np.array([0.0, 1.0, 1.0, 2.0])
    assert abs(got.values[0]) < 1e-8
    assert np.max(np.abs(got.values[1:] / exact[1:] - 1.0)) < 2e-3


def oracle_surrogate_stiffness(cells=6):
    spec = problem("square_dirichlet")
    h = DofHandler(spec.mesh(cells), 3, spec.dirichlet_tags)
    return assemble_stiffness(fine_handler(h), spec.coefficients)


def test_spd_factorization_fill():
    B = oracle_surrogate_stiffness()
    assert B.shape[0] == 1741
    default = scipy.sparse.linalg.splu(B.T)
    spd = scipy.sparse.linalg.splu(B.T, **SPD_LU)
    # fill is deterministic: 82 k entries against 352 k with the defaults
    assert 3 * spd.nnz <= default.nnz


@pytest.mark.filterwarnings("error")
def test_spd_fill_on_the_oracle_surrogate():
    # the 20-cell p = 3 surrogate of the oracle workload: 1,173,378
    # entries on the element-clique pattern, 1,355,974 when a global
    # A + A^T had dropped the entries that cancel to zero
    B = oracle_surrogate_stiffness(20)
    assert B.shape[0] == 19801
    assert scipy.sparse.linalg.splu(B.T, **SPD_LU).nnz <= 1_200_000


def test_spd_factorization_solves():
    B = oracle_surrogate_stiffness()
    F = scipy.sparse.linalg.splu(B.T, **SPD_LU)
    b = np.random.default_rng(0).standard_normal((B.shape[0], 4))
    x = F.solve(b)
    rel = np.linalg.norm(B @ x - b, axis=0) / np.linalg.norm(b, axis=0)
    assert rel.max() <= 1e-13


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shift", [0.0, -1.0])
def test_solve_lowest_takes_any_sparse_format(shift):
    mesh = uniform_refine(square_grid(4))
    h = DofHandler(mesh, 3, () if shift else ("boundary",))
    B = assemble_stiffness(h, Coefficients())
    M = assemble_mass(h)
    got = [solve_lowest(B.asformat(f), M.asformat(f), 4, shift=shift, seed=0)
           for f in ("csr", "csc", "coo")]
    for other in got[1:]:
        assert np.array_equal(other.values, got[0].values)
        assert other.fill == got[0].fill


@pytest.mark.parametrize("tags, shift, m", [
    (("boundary",), 0.0, 4), ((), -1.0, 4), (("boundary",), 0.0, 8)])
def test_solve_lowest_with_sparse_mass_is_unchanged(tags, shift, m):
    # a sparse M gives the dense pencil's cluster (n = 9 = m + 1 on the
    # 2-cell grid): within 1e-12 of lambda - shift, spanning the same
    # space, and within 1e-12 of the same solve with the operator M at
    # the shift folded into B
    h = DofHandler(square_grid(2 if m == 8 else 4), 2, tags)
    B = assemble_stiffness(h, Coefficients())
    M = assemble_mass(h)
    got = solve_lowest(B, M, m, shift=shift, seed=3)
    want = reference_solve_lowest(B, M, m)
    scale = want[0] - shift
    assert np.all(np.abs(got.values - want[0]) <= 1e-12 * scale)
    outside = got.vectors - want[1] @ (want[1].T @ (M @ got.vectors))
    assert np.linalg.norm(outside, axis=0).max() <= 1e-12
    assert got.residuals.max() <= 1e-12
    op = solve_lowest(B - shift * M, mass_operator(h), m, seed=3)
    assert np.all(np.abs(op.values + shift - got.values) <= 1e-12 * scale)


def test_warm_start_reduces_iterations():
    B, M = random_pencil(400, seed=5)
    cold = solve_lowest(B, M, 5, seed=2)
    warm = solve_lowest(B, M, 5, seed=2, x0=cold.vectors)
    # iterations counts solves with the factored operator
    assert 0 < warm.iterations <= max(2, cold.iterations // 2)
    assert np.allclose(warm.values, cold.values, rtol=1e-9)


def test_failure_raises(monkeypatch):
    B, M = random_pencil(250, seed=7)
    with pytest.raises(SolverError):
        solve_lowest(B, M, 4, tol=1e-15, max_iter=2)
    nan = eigensolve.EigenCluster(np.ones(1), np.full((250, 1), np.nan),
                                  None, 1, 0)
    with pytest.raises(SolverError, match="residual nan"):
        eigensolve.check_residuals(B, M, nan, 1e-10)

    def no_factor(*args):
        raise AssertionError("factored before checking m")

    # m outside 1..n is rejected before any factorization
    monkeypatch.setattr(eigensolve, "_factor", no_factor)
    for m in (0, -1, 251):
        with pytest.raises(ValueError, match=f"asked for {m} pairs"):
            solve_lowest(B, M, m)


def test_arpack_no_convergence_is_solver_error():
    B, M = random_pencil(250, seed=7)
    with pytest.raises(SolverError, match=r"not converged after 21 solves, "
                       r"max_iter = 1$") as info:
        solve_lowest(B, M, 4, max_iter=1)
    assert info.value.__cause__ is None


def test_run_exits_3_when_arpack_does_not_converge(tmp_path, capsys):
    # the first, cold solve: six pairs from a random vector take more
    # than the one pass of 21 solves that max_iter = 1 allows
    cfg = tmp_path / "run.ini"
    cfg.write_text("[problem]\nname = square_dirichlet\n\n"
                   "[adapt]\nm = 6\n\n[solver]\nmax_iter = 1\n")
    assert cli.main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 3
    assert ("not converged after 21 solves, max_iter = 1"
            in capsys.readouterr().err)


def coarse_pencil(key):
    spec = problem(key)
    h = DofHandler(spec.mesh(), 3, spec.dirichlet_tags)
    return assemble_stiffness(h, spec.coefficients), assemble_mass(h)


def test_count_below_matches_dense_counts():
    # square_dirichlet's coarse space splits the double 5 pi^2 into
    # lambda_2 < lambda_3, 1.8e-4 apart relative; counts either side of
    # each value and between the two agree with the dense spectrum
    B, M = coarse_pencil("square_dirichlet")
    lam = scipy.linalg.eigh(B.toarray(), M.toarray(), eigvals_only=True)
    assert 0 < lam[2] - lam[1] < 1e-3 * lam[1]
    taus = np.concatenate([lam[:5, None] * (1.0 + np.array([-1e-6, 1e-6])),
                           0.5 * (lam[:12, None] + lam[1:13, None])], axis=None)
    for tau in taus:
        assert count_below(B, M, tau) == np.count_nonzero(lam < tau)
    # a cut: m = 2 takes one value of the pair, and nothing is missing
    got = solve_lowest(B, M, 2, seed=0)
    assert np.allclose(got.values, lam[:2], rtol=1e-12)
    tau = got.values[-1] * (1.0 - 1e-6)
    assert count_below(B, M, tau) == np.count_nonzero(got.values < tau) == 1
    # a miss: values 1, 2 and 4 lose lambda_3, and one count shows it
    tau = lam[3] * (1.0 - 1e-6)
    assert count_below(B, M, tau) == 3
    assert np.count_nonzero(lam[[0, 1, 3]] < tau) == 2


def test_count_below_singular_is_solver_error():
    B = scipy.sparse.diags([1.0, 2.0, 3.0]).tocsr()
    M = scipy.sparse.identity(3, format="csr")
    assert count_below(B, M, 2.5) == 2
    with pytest.raises(SolverError, match="inertia"):
        count_below(B, M, 2.0)


def test_singular_pencil_is_solver_error():
    # _factor is solve_lowest's and count_below's one factorization, so
    # SuperLU's exactly singular factor is a SolverError in both
    B = scipy.sparse.diags([0.0, 1.0, 2.0, 3.0, 4.0]).tocsr()
    M = scipy.sparse.identity(5, format="csr")
    with pytest.raises(SolverError, match="exactly singular"):
        solve_lowest(B, M, 2)
    with pytest.raises(SolverError, match="inertia count.*exactly singular"):
        count_below(B, M, 0.0)
    assert count_below(B, M, 0.5) == 1


def test_operator_mass_needs_shift_zero():
    h = DofHandler(square_grid(2), 2)
    B = assemble_stiffness(h, Coefficients())
    with pytest.raises(ValueError, match="operator M needs sigma = 0"):
        solve_lowest(B, mass_operator(h), 2, shift=-1.0)


def test_cold_solves_find_the_double_eigenvalue():
    # triangle_hole at p = 3 (45 dofs) has a double lambda_2 = lambda_3,
    # of which a single start vector sees one copy in exact arithmetic;
    # every seed returns both
    B, M = coarse_pencil("triangle_hole")
    lam = scipy.linalg.eigh(B.toarray(), M.toarray(), eigvals_only=True)[:3]
    assert abs(lam[2] - lam[1]) < 1e-10 * lam[1]
    for seed in range(40):
        got = solve_lowest(B, M, 3, seed=seed)
        assert np.allclose(got.values, lam, rtol=1e-10), seed


def test_a_reported_miss_runs_the_deflated_pass(monkeypatch):
    # the first count reports one eigenvalue more than was returned: the
    # deflated pass runs, finds lambda_4, the merged lowest three are
    # counted again, and the cluster is still the dense one
    B, M = coarse_pencil("triangle_hole")
    lam = scipy.linalg.eigh(B.toarray(), M.toarray(), eigvals_only=True)[:3]
    taus, count = [], eigensolve.count_below

    def one_extra(B, M, tau):
        taus.append(tau)
        return count(B, M, tau) + (len(taus) == 1)

    monkeypatch.setattr(eigensolve, "count_below", one_extra)
    got = solve_lowest(B, M, 3, seed=0)
    assert len(taus) == 2
    assert np.allclose(got.values, lam, rtol=1e-10)
    assert got.residuals.max() <= 1e-10
    monkeypatch.setattr(eigensolve, "count_below", count)
    assert got.iterations > solve_lowest(B, M, 3, seed=0).iterations


def test_count_that_still_disagrees_is_solver_error(monkeypatch):
    B, M = random_pencil(200, seed=4)
    monkeypatch.setattr(eigensolve, "count_below", lambda B, M, tau: 5)
    with pytest.raises(SolverError, match="inertia count"):
        solve_lowest(B, M, 3, seed=0)


def diagonal_pencil(n=200):
    return (scipy.sparse.diags(np.arange(1.0, n + 1)).tocsr(),
            scipy.sparse.identity(n, format="csr"))


@pytest.mark.parametrize("k", [4, 1])
def test_warm_start_on_an_invariant_subspace(k):
    # x0 = the first k eigenvectors of B = diag(1..200), M = I: after k
    # steps the next vector is rounding inside the basis' span, and the
    # iteration goes on from a random vector
    B, M = diagonal_pencil()
    got = solve_lowest(B, M, 4, x0=np.eye(200)[:, :k])
    assert np.allclose(got.values, [1.0, 2.0, 3.0, 4.0], rtol=1e-12)
    assert got.residuals.max() <= 1e-10
    assert got.iterations <= 40


@pytest.mark.parametrize("shift", [0.0, -1.0])
def test_lanczos_matches_dense_on_random_pencils(shift):
    # every size from m, where the basis spans the whole space (at n = 1
    # the breakdown vector is exactly zero), to m + 2, and at m = 4 on to
    # past the basis size; cold and warm-started from the exact vectors
    cases = [(m, n) for m in range(1, 4) for n in range(m, m + 3)]
    for m, n in cases + [(4, n) for n in [*range(4, 61), 400]]:
        B, M = random_pencil(n, seed=n)
        lam, X, _ = reference_solve_lowest(B, M, m)
        for x0 in (None, X):
            got = solve_lowest(B, M, m, shift=shift, seed=n, x0=x0)
            assert got.iterations > 0 and np.isfinite(got.vectors).all()
            assert np.abs(got.values / lam - 1.0).max() <= 1e-12, (m, n)
            assert got.residuals.max() <= 1e-10


def test_one_mass_product_per_solve():
    # M V is kept next to V: a solve applies M once per LU solve, once
    # more for the start vector and m times in the residual check
    spec = problem("slit_square")
    h = DofHandler(spec.mesh(), 3, spec.dirichlet_tags)
    B, op = assemble_stiffness(h, spec.coefficients), mass_operator(h)
    products = []

    def apply(x):
        products.append(1)
        return op @ x

    M = scipy.sparse.linalg.LinearOperator(op.shape, matvec=apply,
                                           dtype=float)
    cold = solve_lowest(B, M, 4, seed=0)
    assert 0 < len(products) <= cold.iterations + 1 + 4
    products.clear()
    x0 = cold.vectors + 1e-3 * np.random.default_rng(0).standard_normal(
        cold.vectors.shape)
    warm = solve_lowest(B, M, 4, seed=0, x0=x0)
    assert 0 < len(products) <= warm.iterations + 1 + 4
