"""Defect-spectrum checks: identities, invariance, planted angles."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from hpeig import defects
from hpeig.assembly import Coefficients, assemble_mass, assemble_stiffness
from hpeig.eigensolve import solve_lowest
from hpeig.mesh import square_grid, uniform_refine
from hpeig.space import DofHandler


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
