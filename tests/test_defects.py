"""Defect-spectrum checks: identities, invariance, planted angles."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given
from hypothesis import strategies as st

from hpeig import defects
from hpeig.assembly import Coefficients, assemble_mass, assemble_stiffness
from hpeig.eigensolve import SPD_LU, solve_lowest
from hpeig.mesh import refine, square_grid, uniform_refine
from hpeig.space import DofHandler

from helpers import reference_defect_report


def _square_cluster(n, p, m, dirichlet=("boundary",), c=0.0):
    mesh = square_grid(n)
    handler = DofHandler(mesh, np.full(mesh.n_elements, p), dirichlet)
    co = Coefficients(c=c)
    B = assemble_stiffness(handler, co)
    M = assemble_mass(handler)
    cluster = solve_lowest(B, M, m, seed=2)
    return handler, co, cluster


def test_discrete_solution_identity():
    # solving with an eigenpair source inside its own space returns the
    # eigenvector divided by the eigenvalue
    handler, co, cluster = _square_cluster(4, 2, 3)
    checks, _ = defects.oracle_checks(handler, co, cluster.values,
                                      cluster.vectors)
    byname = {c["name"]: c for c in checks}
    assert byname["discrete_solution_identity"]["ok"]
    assert byname["discrete_solution_identity"]["value"] < 1e-10


def test_defect_spectrum_matches_cholesky_reduction():
    handler, co, cluster = _square_cluster(4, 2, 4)
    report, _ = defects.defect_report(handler, co, cluster.values,
                                      cluster.vectors)
    L = np.linalg.cholesky(report.G)
    Linv = np.linalg.inv(L)
    want = np.linalg.eigvalsh(Linv @ report.E @ Linv.T)
    assert report.eta2 == pytest.approx(want, rel=1e-10, abs=1e-15)
    assert np.all(np.diff(report.eta2) >= -1e-16)


def test_defects_invariant_under_column_scaling():
    # the defect spectrum depends on the span only; rescaled eigenvector
    # columns are still eigenvectors and must give identical defects
    handler, co, cluster = _square_cluster(4, 2, 3)
    report, _ = defects.defect_report(handler, co, cluster.values,
                                      cluster.vectors)
    scaled, _ = defects.defect_report(
        handler, co, cluster.values,
        cluster.vectors * np.array([2.0, -0.3, 7.5])[None, :])
    assert scaled.eta2 == pytest.approx(report.eta2, rel=1e-9, abs=1e-16)


def test_zero_defect_when_surrogate_equals_space(monkeypatch):
    handler, co, cluster = _square_cluster(3, 2, 2)
    monkeypatch.setattr(defects, "fine_handler", lambda h: h)
    report, fine = defects.defect_report(handler, co, cluster.values,
                                         cluster.vectors)
    assert fine.n_dofs == handler.n_dofs
    assert np.max(np.abs(report.eta2)) < 1e-9
    assert report.d_l < 1e-7
    assert abs(report.trace_upper) < 1e-9


def test_trace_sandwich_and_bounds_on_square():
    handler, co, cluster = _square_cluster(4, 2, 4)
    refs = np.pi**2 * np.array([2.0, 5.0, 5.0, 8.0])
    checks, report = defects.oracle_checks(handler, co, cluster.values,
                                           cluster.vectors, refs=refs,
                                           next_value=np.pi**2 * 10.0)
    for c in checks:
        assert c["ok"], c
    lo, hi = report.trace_slacks()
    assert lo >= -1e-10 * report.trace_upper
    assert hi >= -1e-10 * report.trace_upper
    assert report.d_l < 1.0
    # value-weighted error of Ritz values is bounded below through the
    # defect sum and stays within a modest factor of it here
    bound = defects.cluster_bound_check(report, refs, np.pi**2 * 10.0)
    assert bound["lhs"] <= bound["rhs"]
    assert bound["rhs"] <= 40.0 * bound["lhs"]
    # the separation hypothesis needs the top defect below the relative
    # gap; one refinement is enough for this cluster
    handler8, co8, cluster8 = _square_cluster(8, 2, 4)
    report8, _ = defects.defect_report(handler8, co8, cluster8.values,
                                       cluster8.vectors)
    bound8 = defects.cluster_bound_check(report8, refs, np.pi**2 * 10.0)
    assert bound8["hypothesis"]
    assert bound8["ok"]


def test_asymptotic_ratio_tightens_under_refinement():
    refs = np.pi**2 * np.array([2.0, 5.0, 5.0, 8.0])
    ratios = []
    for n in (4, 8):
        handler, co, cluster = _square_cluster(n, 2, 4)
        report, _ = defects.defect_report(handler, co, cluster.values,
                                          cluster.vectors)
        ratios.append(defects.asymptotic_ratio(report, refs))
    assert abs(ratios[1] - 1.0) <= abs(ratios[0] - 1.0) + 0.05
    assert 0.5 < ratios[1] < 2.0


def test_sin_theta_planted_angles():
    M = scipy.sparse.identity(6, format="csr")
    theta = 0.3
    a = np.zeros((6, 2))
    a[0, 0] = 1.0
    a[1, 1] = 1.0
    b = np.zeros((6, 2))
    b[0, 0] = np.cos(theta)
    b[2, 0] = np.sin(theta)
    b[1, 1] = 1.0
    got = defects.sin_theta_hs(M, a, b)
    assert got == pytest.approx(np.sin(theta), abs=1e-12)
    # invariant under basis recombination within each span
    mix_a = a @ np.array([[2.0, 1.0], [0.0, -1.5]])
    mix_b = b @ np.array([[0.7, 0.0], [0.3, 3.0]])
    assert defects.sin_theta_hs(M, mix_a, mix_b) == pytest.approx(
        np.sin(theta), abs=1e-12)
    # weighted metric: vectors stay orthogonal, angle unchanged
    Md = scipy.sparse.diags([2.0, 3.0, 2.0, 5.0, 1.0, 4.0]).tocsr()
    c = np.zeros((6, 2))
    c[0, 0] = np.cos(theta) / np.sqrt(2.0)
    c[2, 0] = np.sin(theta) / np.sqrt(2.0)
    c[1, 1] = 1.0
    assert defects.sin_theta_hs(Md, a, c) == pytest.approx(
        np.sin(theta), abs=1e-12)
    assert defects.sin_theta_hs(M, a, a) == pytest.approx(0.0, abs=1e-7)


def test_sin_theta_tracks_subspace_convergence():
    # coarse eigenspace vs fine surrogate eigenspace: the angle must
    # shrink under refinement
    angles = []
    for n in (4, 8):
        handler, co, cluster = _square_cluster(n, 2, 3)
        fine = defects.fine_handler(handler)
        Bf = assemble_stiffness(fine, co)
        Mf = assemble_mass(fine)
        fine_cluster = solve_lowest(Bf, Mf, 3, seed=0)
        P = defects.prolong(handler, fine, cluster.vectors)
        angles.append(defects.sin_theta_hs(Mf, P, fine_cluster.vectors))
    assert angles[1] < angles[0]
    assert angles[0] / angles[1] > 2.0
    assert angles[1] < 1e-2


def test_fault_injection_inflates_defects():
    # a badly polluted vector or a wrong eigenvalue both break the
    # discrete solution identity and inflate the defect sum several-fold
    handler, co, cluster = _square_cluster(4, 2, 3)
    clean, _ = defects.defect_report(handler, co, cluster.values,
                                     cluster.vectors)
    rng = np.random.default_rng(11)
    bad = cluster.vectors.copy()
    bad[:, 1] += 0.5 * rng.standard_normal(bad.shape[0])
    noisy, _ = defects.defect_report(handler, co, cluster.values, bad)
    assert np.sum(noisy.eta2) > 5.0 * np.sum(clean.eta2)

    vals = cluster.values.copy()
    vals[1] *= 1.5
    wrong, _ = defects.defect_report(handler, co, vals, cluster.vectors)
    assert np.sum(wrong.eta2) > 3.0 * np.sum(clean.eta2)


def test_coercivity_guard():
    mesh = square_grid(2)
    handler = DofHandler(mesh, np.full(mesh.n_elements, 2), ())
    with pytest.raises(ValueError):
        defects.defect_report(handler, Coefficients(c=0.0),
                              np.array([1.0]), np.zeros((handler.n_dofs, 1)))


def test_oracle_checks_reject_non_coercive_before_factoring(monkeypatch):
    # a pure Neumann operator without a zero-order term is singular, so
    # the oracle must refuse it before any SuperLU factorisation
    mesh = square_grid(2)
    handler = DofHandler(mesh, np.full(mesh.n_elements, 2), ())
    calls = []

    def counting_splu(*args, **kwargs):
        calls.append(1)
        return scipy.sparse.linalg.splu(*args, **kwargs)

    monkeypatch.setattr(defects, "splu", counting_splu)
    with pytest.raises(ValueError):
        defects.oracle_checks(handler, Coefficients(c=0.0), np.array([1.0]),
                              np.ones((handler.n_dofs, 1)))
    assert len(calls) == 0


@given(data=st.data())
def test_condensed_solve_matches_full_factorisation(data):
    mesh = square_grid(2)
    if data.draw(st.booleans()):
        mesh = refine(mesh, data.draw(st.lists(st.integers(0, 7), max_size=8)))
    ne = mesh.n_elements
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    mesh.region = rng.integers(0, 2, ne)
    # rotated, non-diagonal A per region with eigenvalues 1 .. 10
    Q = np.linalg.qr(rng.standard_normal((2, 2, 2)))[0]
    A = Q * 10.0 ** rng.uniform(0, 1, (2, 1, 2)) @ Q.transpose(0, 2, 1)
    dirichlet = data.draw(st.booleans())
    co = Coefficients(A=0.5 * (A + A.transpose(0, 2, 1)),
                      c=rng.uniform(0.0 if dirichlet else 0.1, 5.0, 2))
    degrees = np.array(data.draw(st.lists(st.integers(1, 10), min_size=ne,
                                          max_size=ne)))
    h = DofHandler(mesh, degrees, ("boundary",) if dirichlet else ())
    B = assemble_stiffness(h, co)
    loads = rng.standard_normal((h.n_dofs, 2))
    got = defects.condensed_solve(h, co, loads)
    want = scipy.sparse.linalg.splu(B.T, **SPD_LU).solve(loads)
    # in the energy norm: at degree 10 both solves carry roundoff of
    # about 1e-10 in the coefficients, each off a refined solution by
    # as much as off the other
    diff = got - want
    assert np.sqrt(np.trace(diff.T @ (B @ diff))
                   / np.trace(want.T @ (B @ want))) <= 1e-10
    V = rng.standard_normal((h.n_dofs, 3))
    energies = V.T @ (B @ V)
    assert np.abs(defects.element_energies(h, co, V) - energies).max() \
        <= 1e-12 * np.abs(energies).max()


def test_interface_matrix_is_the_stiffness_without_bubbles(monkeypatch):
    # at p <= 2 there are no bubbles: the condensed matrix that reaches
    # SuperLU is the assembled stiffness, bit for bit
    mesh = refine(square_grid(3), [0, 4, 9])
    degrees = np.random.default_rng(4).integers(1, 3, mesh.n_elements)
    h = DofHandler(mesh, degrees, ("boundary",))
    co = Coefficients(A=[[10.0, 1.0], [1.0, 2.0]], c=0.5)
    factored = []

    def capturing_splu(A, **kwargs):
        factored.append(A.T)
        return scipy.sparse.linalg.splu(A, **kwargs)

    monkeypatch.setattr(defects, "splu", capturing_splu)
    defects.condensed_solve(h, co, np.ones((h.n_dofs, 1)))
    B = assemble_stiffness(h, co)
    (S,) = factored
    assert S.shape == B.shape
    for part in ("indptr", "indices", "data"):
        assert getattr(S, part).tobytes() == getattr(B, part).tobytes()


@pytest.mark.parametrize("p", [2, 3])
def test_defect_report_matches_full_assembly(p):
    handler, co, cluster = _square_cluster(4, p, 4)
    got, fine = defects.defect_report(handler, co, cluster.values,
                                      cluster.vectors)
    want = reference_defect_report(handler, co, cluster.values,
                                   cluster.vectors)
    assert got.fine_dofs == want.fine_dofs == fine.n_dofs
    assert np.allclose(got.eta2, want.eta2, rtol=1e-10, atol=0.0)
    assert abs(got.d_l - want.d_l) <= 1e-7


def test_cluster_bound_value_agrees_with_ok():
    # ok compares lhs with rhs (1 + 1e-10) + 1e-14; the reported value
    # is lhs over that same bound, and inf once the bound is not positive
    report = defects.DefectReport(
        values=np.array([1.0, 2.0]), eta2=np.array([1e-18, 6e-17]),
        E=np.eye(2), G=np.eye(2), d_l=0.0, fine_dofs=1)
    # refs above the values: rhs = -2 rise
    for rise, ok in ((3.9e-15, True), (0.0, True), (1e-6, False)):
        bound = defects.cluster_bound_check(report,
                                            (1.0 + rise) * report.values, 10.0)
        assert bound["rhs"] <= 0.0
        assert bound["ok"] is ok
        assert (bound["ratio"] <= 1.0) == ok
    assert bound["ratio"] == np.inf
    handler, co, cluster = _square_cluster(4, 2, 4)
    checks, _ = defects.oracle_checks(handler, co, cluster.values,
                                      cluster.vectors,
                                      refs=1.001 * cluster.values,
                                      next_value=100.0)
    (check,) = [c for c in checks if c["name"] == "cluster_lower_bound"]
    assert not check["ok"]
    assert check["value"] == np.inf > check["tol"]
