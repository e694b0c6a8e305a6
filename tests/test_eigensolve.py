import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

import hpeig.cli as cli
from hpeig.assembly import Coefficients, assemble_mass, assemble_stiffness
from hpeig.defects import fine_handler
from hpeig.eigensolve import SPD_LU, SolverError, solve_lowest
from hpeig.mesh import square_grid, uniform_refine
from hpeig.problems import problem
from hpeig.space import DofHandler


def random_pencil(n, seed=0):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.05)
    B = scipy.sparse.csr_matrix(Q @ Q.T + np.diag(np.linspace(1, 50, n)))
    R = rng.standard_normal((n, n)) * 0.02
    M = scipy.sparse.csr_matrix(R @ R.T + np.eye(n))
    return B, M


def dense_reference(B, M, m):
    """Full dense solve of the lowest m pairs, as an independent check."""
    values, vectors = scipy.linalg.eigh(B.toarray(), M.toarray())
    return values[:m], vectors[:, :m]


def test_arpack_matches_dense():
    B, M = random_pencil(300)
    got = solve_lowest(B, M, 6, seed=1)
    assert got.iterations > 0 and got.fill > 0
    ref_vals, _ = dense_reference(B, M, 6)
    assert np.max(np.abs(got.values / ref_vals - 1.0)) <= 1e-12
    G = got.vectors.T @ (M @ got.vectors)
    assert np.allclose(G, np.eye(6), atol=1e-9)
    assert got.residuals.max() <= 1e-10
    T = got.vectors.T @ (B @ got.vectors)
    assert np.allclose(T, np.diag(got.values), atol=1e-7 * got.values.max())


def test_dense_path_only_below_arpack_limit():
    # ARPACK needs more than m + 1 unknowns; smaller pencils go dense
    for n, m in ((1, 1), (4, 3), (5, 4)):
        B, M = random_pencil(n, seed=3)
        got = solve_lowest(B, M, m)
        assert got.iterations == 0 and got.fill == 0
        ref_vals, _ = dense_reference(B, M, m)
        assert np.allclose(got.values, ref_vals, rtol=1e-12)
    B, M = random_pencil(6, seed=3)
    got = solve_lowest(B, M, 4)
    assert got.iterations > 0
    ref_vals, _ = dense_reference(B, M, 4)
    assert np.allclose(got.values, ref_vals, rtol=1e-12)


def test_dirichlet_laplacian_on_square():
    mesh = uniform_refine(square_grid(4), 2)
    h = DofHandler(mesh, 2, dirichlet_tags=("boundary",))
    B = assemble_stiffness(h, Coefficients())
    M = assemble_mass(h)
    got = solve_lowest(B, M, 4, seed=0)
    exact = np.pi**2 * np.array([2.0, 5.0, 5.0, 8.0])
    assert np.all(got.values >= exact - 1e-9)  # Ritz values from above
    assert np.max(np.abs(got.values / exact - 1.0)) < 5e-3
    assert abs(got.values[1] - got.values[2]) < 1e-2 * exact[1]


def test_neumann_zero_mode_with_negative_shift():
    mesh = uniform_refine(square_grid(4), 2)
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
    mesh = uniform_refine(square_grid(4), 1)
    h = DofHandler(mesh, 3, () if shift else ("boundary",))
    B = assemble_stiffness(h, Coefficients())
    M = assemble_mass(h)
    got = [solve_lowest(B.asformat(f), M.asformat(f), 4, shift=shift, seed=0)
           for f in ("csr", "csc", "coo")]
    for other in got[1:]:
        assert np.array_equal(other.values, got[0].values)
        assert other.fill == got[0].fill


def test_warm_start_reduces_iterations():
    B, M = random_pencil(400, seed=5)
    cold = solve_lowest(B, M, 5, seed=2)
    warm = solve_lowest(B, M, 5, seed=2, x0=cold.vectors)
    # iterations counts solves with the factored operator
    assert 0 < warm.iterations <= max(2, cold.iterations // 2)
    assert np.allclose(warm.values, cold.values, rtol=1e-9)


def test_failure_raises():
    B, M = random_pencil(250, seed=7)
    with pytest.raises(SolverError):
        solve_lowest(B, M, 4, tol=1e-15, max_iter=2)
    with pytest.raises(ValueError):
        solve_lowest(B, M, 251)


def test_arpack_no_convergence_is_solver_error():
    B, M = random_pencil(250, seed=7)
    with pytest.raises(SolverError, match="ARPACK") as info:
        solve_lowest(B, M, 4, max_iter=1)
    assert isinstance(info.value.__cause__,
                      scipy.sparse.linalg.ArpackNoConvergence)


def test_run_exits_3_when_arpack_does_not_converge(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[problem]\nname = diffusion_a100\n\n"
                   "[adapt]\ndof_budget = 300\n\n"
                   "[solver]\ntol = 1e-14\nmax_iter = 1\n")
    assert cli.main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 3
    assert "ARPACK" in capsys.readouterr().err
