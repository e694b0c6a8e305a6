"""Marking, analyticity fit, degree smoothing, and loop behavior."""

import numpy as np
import pytest

from hpeig import adaptivity
from hpeig.adaptivity import (AdaptConfig, adapt_loop, decide_refinements,
                              estimate_analyticity, mark_fixed_fraction,
                              smooth_degrees)
from hpeig.assembly import Coefficients
from hpeig.basis import tri_shapes
from hpeig.estimator import IndicatorField
from hpeig.mesh import Mesh, refine, slit_square_grid, square_grid
from hpeig.problems import problem
from hpeig.quadrature import triangle_rule
from hpeig.space import DofHandler

from helpers import dubiner, dubiner_degrees, interpolate


def test_mark_fixed_fraction_counts_and_ties():
    equal = np.ones(8)
    assert mark_fixed_fraction(equal, 0.25).tolist() == [0, 1]
    vals = np.array([0.1, 5.0, 3.0, 5.0, 0.2])
    assert mark_fixed_fraction(vals, 0.4).tolist() == [1, 3]
    assert mark_fixed_fraction(vals, 1.0).tolist() == [0, 1, 2, 3, 4]
    assert mark_fixed_fraction(vals, 0.05).tolist() == [1]


def _reference_triangle_mesh():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    elements = np.array([[0, 1, 2]])
    return Mesh(vertices, elements, [["b", "b", "b"]])


def test_analyticity_recovers_planted_decay():
    # field built as sum_q exp(-s q) * (first mode of block q): block
    # norms decay exactly exponentially, so the fit must return s
    mesh = _reference_triangle_mesh()
    p = 6
    handler = DofHandler(mesh, [p], dirichlet_tags=())
    degs = dubiner_degrees(p)
    first = np.array([np.nonzero(degs == q)[0][0] for q in range(p + 1)])
    for s in (0.6, 1.7):
        c = np.zeros(degs.size)
        c[first] = np.exp(-s * np.arange(p + 1))
        coeffs = interpolate(handler, lambda pts: dubiner(p, pts) @ c)
        sigma = estimate_analyticity(handler, coeffs[:, None], [0], [0])
        assert sigma[0] == pytest.approx(s, abs=1e-8)


def test_analyticity_resolved_field_is_infinite():
    # a linear field on a degree-4 element leaves at most one usable
    # block after dropping roundoff blocks and the constant
    mesh = _reference_triangle_mesh()
    handler = DofHandler(mesh, [4], dirichlet_tags=())
    coeffs = interpolate(handler, lambda pts: 2.0 + 3.0 * pts[:, 0] - pts[:, 1])
    sigma = estimate_analyticity(handler, coeffs[:, None], [0], [0])
    assert np.isinf(sigma[0])


def test_analyticity_separates_smooth_from_singular():
    # corner singularity r^(2/3) on an element touching the corner
    # decays algebraically; an entire function decays much faster
    mesh = _reference_triangle_mesh()
    handler = DofHandler(mesh, [6], dirichlet_tags=())
    smooth = interpolate(
        handler, lambda pts: np.sin(pts[:, 0] + 2.0 * pts[:, 1]))
    singular = interpolate(
        handler, lambda pts: (pts[:, 0]**2 + pts[:, 1]**2)**(1.0 / 3.0))
    s_smooth = estimate_analyticity(handler, smooth[:, None], [0], [0])[0]
    s_singular = estimate_analyticity(handler, singular[:, None], [0], [0])[0]
    assert s_smooth > s_singular
    assert s_smooth >= 1.0
    assert s_singular < 1.0


def polyfit_analyticity(handler, coeffs, elems, members):
    """Decay rates fitted one element at a time with np.polyfit."""
    sigmas = np.empty(len(elems))
    for i, (k, mode) in enumerate(zip(elems, members)):
        p = int(handler.degrees[k])
        pts, w = triangle_rule(2 * p)
        V = tri_shapes(p, pts, nderiv=0)["val"]
        D = dubiner(p, pts)
        local = handler.gather(coeffs[:, mode], p,
                               [handler.row[k]])[0]
        coef = D.T @ (w * (V @ local))
        degs = dubiner_degrees(p)
        a = np.array([np.linalg.norm(coef[degs == q]) for q in range(p + 1)])
        q = np.arange(p + 1)
        keep = a >= 1e-14 * max(a.max(), 1e-300)
        if p >= 3:
            keep[0] = False
        if keep.sum() < 2:
            sigmas[i] = np.inf
            continue
        sigmas[i] = -np.polyfit(q[keep], np.log(a[keep]), 1)[0]
    return sigmas


def test_analyticity_matches_per_element_polyfit():
    mesh = refine(slit_square_grid(4), [0, 7, 19])
    rng = np.random.default_rng(11)
    degrees = rng.integers(1, 9, mesh.n_elements)
    handler = DofHandler(mesh, degrees, dirichlet_tags=("outer",))
    # blocks far below the leading one carry roundoff of the projection
    # that depends on the order of the products, so these fields keep
    # every block within a few decades: an oscillatory field, a random
    # space member, and a linear field that is resolved (+inf) at p >= 3
    fields = np.column_stack([
        interpolate(handler, lambda x: np.sin(12 * x[:, 0] + 5 * x[:, 1])
                    * np.cos(9 * x[:, 1])),
        rng.standard_normal(handler.n_dofs),
        interpolate(handler, lambda x: 1.0 + x[:, 0] - 2.0 * x[:, 1]),
    ])
    elems = rng.permutation(mesh.n_elements)
    members = rng.integers(0, 3, elems.size)
    got = estimate_analyticity(handler, fields, elems, members)
    want = polyfit_analyticity(handler, fields, elems, members)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    assert np.isinf(want).any() and np.isfinite(want).any()
    finite = np.isfinite(want)
    assert np.allclose(got[finite], want[finite], rtol=1e-12, atol=0.0)


def _fake_field(handler, scaled_local, included):
    scaled_local = np.asarray(scaled_local, dtype=float)
    values = np.ones(scaled_local.shape[1])
    return IndicatorField(local=scaled_local.copy(), values=values,
                          included=np.asarray(included, dtype=bool),
                          mode_totals=scaled_local.sum(axis=0),
                          scaled_local=scaled_local,
                          element_totals=scaled_local.sum(axis=1),
                          total=float(scaled_local.sum()))


def test_decide_refinements_degree_rules():
    mesh = square_grid(1)
    for degrees, p_max, scaled, included, expect_p in (
            # p=1 bisects, smooth p=4 increments
            ([1, 4], 10, [[1.0], [2.0]], [True], [1]),
            # cap reached: everything bisects
            ([1, 4], 4, [[1.0], [2.0]], [True], []),
            # no mode included: member 0 judges every element
            ([1, 4], 10, [[0.0], [0.0]], [False], [1]),
    ):
        handler = DofHandler(mesh, degrees, dirichlet_tags=())
        vectors = interpolate(handler, lambda pts: pts[:, 0] + pts[:, 1])[:, None]
        field = _fake_field(handler, scaled, included)
        cfg = AdaptConfig(m=1, p_max=p_max)
        marked = np.array([0, 1])
        h_set, p_set, sigmas = decide_refinements(handler, field, vectors,
                                                  marked, cfg)
        assert sorted(h_set.tolist() + p_set.tolist()) == [0, 1]
        assert p_set.tolist() == expect_p
        assert sigmas.size == 2
    h_set, p_set, _ = decide_refinements(handler, field, vectors,
                                         np.array([], dtype=np.int64), cfg)
    assert h_set.size == p_set.size == 0


def test_smooth_degrees_limits_jumps():
    mesh = square_grid(4)
    rng = np.random.default_rng(5)
    degrees = rng.integers(1, 9, mesh.n_elements)
    smoothed = smooth_degrees(mesh, degrees)
    assert np.all(smoothed >= degrees)
    interior = mesh.edge_elems[:, 1] >= 0
    ka, kb = mesh.edge_elems[interior, 0], mesh.edge_elems[interior, 1]
    assert np.max(np.abs(smoothed[ka] - smoothed[kb])) <= 1
    assert np.array_equal(smooth_degrees(mesh, smoothed), smoothed)


def test_adapt_config_validation():
    with pytest.raises(ValueError):
        AdaptConfig(m=1, mode="random")
    with pytest.raises(ValueError):
        AdaptConfig(m=1, theta=0.0)
    with pytest.raises(ValueError):
        AdaptConfig(m=0)
    with pytest.raises(ValueError):
        AdaptConfig(m=1, p_init=5, p_max=4)


def test_adapt_loop_square_converges_and_warm_starts():
    mesh = square_grid(4)
    co = Coefficients()
    cfg = AdaptConfig(m=2, dof_budget=900, p_init=2, seed=1)
    handler = DofHandler(mesh, cfg.p_init, ("boundary",))
    records = list(adapt_loop(handler, co, cfg))
    assert len(records) >= 3
    dofs = [r.n_dofs for r in records]
    assert all(b > a for a, b in zip(dofs, dofs[1:]))
    assert dofs[-1] >= cfg.dof_budget
    exact = 2 * np.pi**2
    first = records[0].cluster.values[0] - exact
    last = records[-1].cluster.values[0] - exact
    assert 0 < last < first
    vals = np.array([r.cluster.values[0] for r in records])
    assert np.all(np.diff(vals) < 1e-9)
    assert all(r.cluster.iterations <= 30 for r in records[1:])


def test_adapt_loop_uniform_mode_bisects_everything():
    mesh = square_grid(2)
    cfg = AdaptConfig(m=1, mode="uniform", p_init=1, dof_budget=120,
                      max_steps=10)
    handler = DofHandler(mesh, cfg.p_init, ("boundary",))
    records = list(adapt_loop(handler, Coefficients(), cfg))
    counts = [r.handler.mesh.n_elements for r in records]
    for a, b in zip(counts, counts[1:]):
        assert b == 2 * a
    assert all(np.all(r.handler.degrees == 1) for r in records)


def test_adapt_loop_caches_nothing_on_mesh_or_handler():
    # derived arrays are set at construction: full steps (solve,
    # estimate, decide, refine, transfer) add no attribute to any mesh
    # or handler; here step 1 raises degrees and step 2 bisects
    mesh = slit_square_grid(4)
    handler = DofHandler(mesh, 2, ("outer",))
    before = set(vars(mesh)), set(vars(handler))
    cfg = AdaptConfig(m=1, dof_budget=10**6, max_steps=3)
    records = list(adapt_loop(handler, Coefficients(), cfg))
    assert records[0].handler is handler
    assert records[-1].handler.mesh.n_elements > mesh.n_elements
    for r in records:
        assert (set(vars(r.handler.mesh)), set(vars(r.handler))) == before


def test_adapt_loop_slit_mixes_h_and_p():
    # singular slit tip forces bisection near the tip while smooth
    # regions take degree increments
    mesh = slit_square_grid(4)
    co = Coefficients(c=1.0)
    cfg = AdaptConfig(m=1, dof_budget=1500, p_init=2, seed=0)
    records = list(adapt_loop(DofHandler(mesh, cfg.p_init, ("outer",)),
                              co, cfg))
    final = records[-1].handler
    assert final.mesh.n_elements > mesh.n_elements
    assert final.degrees.max() > cfg.p_init
    interior = final.mesh.edge_elems[:, 1] >= 0
    ka = final.mesh.edge_elems[interior, 0]
    kb = final.mesh.edge_elems[interior, 1]
    assert np.max(np.abs(final.degrees[ka] - final.degrees[kb])) <= 1


@pytest.mark.parametrize("key, kw", [
    ("square_dirichlet", {}),
    ("triangle", {"theta": 1.0}),
    ("slit_square", {}),
    ("slit_square", {"mode": "uniform"}),
    ("square_neumann", {}),
], ids=["square_dirichlet", "triangle_theta1", "slit_square",
        "slit_square_uniform", "square_neumann"])
def test_adapt_loop_eigenvalues_never_increase(key, kw):
    # bisection and degree raises nest conforming spaces, so no Galerkin
    # eigenvalue rises from one step to the next: a solve that skipped
    # an eigenvalue of the cluster would show as a rise.  The bound is
    # rounding; the square_neumann zero mode moves by 3.4e-15 lambda_m.
    spec = problem(key)
    cfg = AdaptConfig(m=spec.m, dof_budget=3000, **kw)
    handler = DofHandler(spec.mesh(), cfg.p_init, spec.dirichlet_tags)
    records = list(adapt_loop(handler, spec.coefficients, cfg))
    assert len(records) >= 5 and records[-1].n_dofs >= 3000
    vals = np.array([r.cluster.values for r in records])
    rise = np.diff(vals, axis=0) / vals[:-1, -1:]
    step, mode = np.unravel_index(np.argmax(rise), rise.shape)
    assert rise[step, mode] <= 1e-13, (
        f"lambda_{mode + 1} rose by {rise[step, mode]:.2e} lambda_m "
        f"from step {step} to {step + 1}")


def test_adapt_loop_deterministic():
    mesh = square_grid(3)
    cfg = AdaptConfig(m=2, dof_budget=400, seed=3)
    a = list(adapt_loop(DofHandler(mesh, cfg.p_init, ("boundary",)),
                        Coefficients(), cfg))
    b = list(adapt_loop(DofHandler(square_grid(3), cfg.p_init, ("boundary",)),
                        Coefficients(), cfg))
    assert [r.n_dofs for r in a] == [r.n_dofs for r in b]
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.cluster.values, rb.cluster.values)
        assert np.array_equal(ra.field.element_totals, rb.field.element_totals)
