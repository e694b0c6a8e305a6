"""Indicator checks against hand-computed residuals and flux jumps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpeig import estimator
from hpeig.assembly import (Coefficients, assemble_mass, assemble_stiffness,
                            reference_kernels)
from hpeig.basis import tri_shapes
from hpeig.eigensolve import solve_lowest
from hpeig.mesh import LOCAL_EDGES, Mesh, refine, square_grid
from hpeig.problems import problem
from hpeig.quadrature import interval_rule, triangle_rule
from hpeig.space import DofHandler

from helpers import boundary_tag_dict, interpolate


def quadrant_region(c):
    return (c[:, 0] >= 0.5).astype(int) + 2 * (c[:, 1] >= 0.5).astype(int)


def halves_region(c):
    return (c[:, 0] >= 0.5).astype(int)


def test_kahan_sum_compensates():
    # totals are correctly rounded sums, so they cannot depend on the
    # order of the elements
    mesh = square_grid(4)
    handler = DofHandler(mesh, 3, dirichlet_tags=("boundary",))
    co = Coefficients()
    cl = solve_lowest(assemble_stiffness(handler, co), assemble_mass(handler),
                      3, shift=0.0, tol=1e-10, max_iter=500, seed=0)
    field = estimator.estimate(handler, cl.vectors, cl.values, co)
    for i in range(cl.values.size):
        assert field.mode_totals[i] == math.fsum(field.local[::-1, i])
    assert field.total == math.fsum(field.mode_totals[::-1] / cl.values[::-1])
    # relative errors 1e16, 1 and -1e16 cancel exactly to 1
    values = np.array([1.0, 1.0, 1.0])
    refs = np.array([-1e16, 0.0, 1e16])
    assert ((values - refs) / values).tolist() == [1e16, 1.0, -1e16]
    assert sum((values - refs) / values) == 0.0
    assert estimator.total_error(values, refs) == 1.0


def test_element_residual_matches_fine_quadrature():
    # cubic field with region-dependent materials; residual known in
    # closed form and integrated independently at high order
    mesh = square_grid(3, region_fn=halves_region)
    handler = DofHandler(mesh, np.full(mesh.n_elements, 3), dirichlet_tags=())
    co = Coefficients(A=[[[2.0, 1.0], [1.0, 3.0]], [[1.0, 0.0], [0.0, 4.0]]],
                      c=[0.7, 1.2])
    mu = 1.3

    def u(x, y):
        return x**3 - 2 * x * y**2 + x**2

    def strong_residual(x, y, region):
        if region == 0:
            div = 2 * (6 * x + 2) + 2 * (-4 * y) + 3 * (-4 * x)
            cr = 0.7
        else:
            div = 1 * (6 * x + 2) + 4 * (-4 * x)
            cr = 1.2
        return (mu - cr) * u(x, y) + div

    coeffs = interpolate(handler, lambda pts: u(pts[:, 0], pts[:, 1]))
    got = estimator.element_residual_norms(
        handler, coeffs[:, None], np.array([mu]), co)

    pts, w = triangle_rule(12)
    maps = mesh.maps()
    for k in range(mesh.n_elements):
        phys = maps["origin"][k] + pts @ maps["J"][k].T
        vals = strong_residual(phys[:, 0], phys[:, 1], int(mesh.region[k]))
        want = maps["detJ"][k] * np.sum(w * vals**2)
        assert got[k, 0] == pytest.approx(want, rel=1e-11, abs=1e-13)


def _two_triangle_square():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    elements = np.array([[0, 1, 2], [0, 2, 3]])
    tags = {(0, 1): "outer", (1, 2): "outer", (2, 3): "outer", (3, 0): "outer"}
    return Mesh(vertices, elements, tags)


def _edge_id(mesh, a, b):
    key = (min(a, b), max(a, b))
    hits = np.nonzero((mesh.edges == key).all(axis=1))[0]
    assert hits.size == 1
    return int(hits[0])


def test_hat_function_jumps_by_hand():
    # P1 hat at the origin: gradients (-1,0) and (0,-1); the diagonal
    # jump and the Neumann fluxes follow from the geometry directly
    mesh = _two_triangle_square()
    handler = DofHandler(mesh, [1, 1], dirichlet_tags=())
    co = Coefficients(c=5.0)
    coeffs = np.zeros(handler.n_dofs)
    coeffs[0] = 1.0
    kinds = mesh.edge_kinds(())
    jumps = estimator.edge_jump_norms(handler, coeffs[:, None], co, kinds)

    diag = _edge_id(mesh, 0, 2)
    assert jumps[diag, 0] == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-13)
    assert jumps[_edge_id(mesh, 0, 1), 0] == pytest.approx(0.0, abs=1e-14)
    assert jumps[_edge_id(mesh, 3, 0), 0] == pytest.approx(0.0, abs=1e-14)
    assert jumps[_edge_id(mesh, 1, 2), 0] == pytest.approx(1.0, rel=1e-13)
    assert jumps[_edge_id(mesh, 2, 3), 0] == pytest.approx(1.0, rel=1e-13)

    # with c matching the eigenvalue the strong residual vanishes, so
    # the indicator is pure edge terms: 1/2 * sqrt2 * 2 sqrt2 + 1 * 1
    field = estimator.estimate(handler, coeffs[:, None], np.array([5.0]), co)
    assert field.local[:, 0] == pytest.approx([3.0, 3.0], rel=1e-13)
    assert field.total == pytest.approx(6.0 / 5.0, rel=1e-13)
    assert field.element_totals == pytest.approx([0.6, 0.6], rel=1e-13)


def test_smooth_field_has_no_interior_jumps():
    # globally quadratic field with one constant A: conormal flux is
    # continuous, so any nonzero interior jump is a sign or
    # parametrization bug between the two sides
    mesh = square_grid(4, region_fn=quadrant_region)
    handler = DofHandler(mesh, np.full(mesh.n_elements, 2), dirichlet_tags=())
    co = Coefficients(A=[[2.0, 1.0], [1.0, 3.0]], c=0.0)
    coeffs = interpolate(handler, lambda p: p[:, 0]**2 + 3 * p[:, 0] * p[:, 1] + 2 * p[:, 1]**2)
    kinds = mesh.edge_kinds(())
    jumps = estimator.edge_jump_norms(handler, coeffs[:, None], co, kinds)
    interior = kinds == 0
    assert np.max(jumps[interior, 0]) < 1e-24

    # Neumann edges: independent quadrature of (A grad u . n)^2 with the
    # outward side fixed by the adjacent element centroid
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    for e in np.nonzero(kinds == 2)[0]:
        a, b = mesh.edges[e]
        va, vb = mesh.vertices[a], mesh.vertices[b]
        t = vb - va
        n = np.array([t[1], -t[0]]) / np.linalg.norm(t)
        k = mesh.edge_elems[e, 0]
        cen = mesh.vertices[mesh.elements[k]].mean(axis=0)
        if np.dot(n, 0.5 * (va + vb) - cen) < 0:
            n = -n
        s = np.linspace(0.0, 1.0, 9)
        pts = va[None] * (1 - s)[:, None] + vb[None] * s[:, None]
        grad = np.column_stack([2 * pts[:, 0] + 3 * pts[:, 1],
                                3 * pts[:, 0] + 4 * pts[:, 1]])
        r = (grad @ A) @ n
        # integrand is quadratic in s: Simpson on 9 points is exact
        want = np.linalg.norm(t) * np.sum(
            (r**2)[:-1:2] + 4 * (r**2)[1::2] + (r**2)[2::2]) / 6 / 4
        assert jumps[e, 0] == pytest.approx(want, rel=1e-12)


def test_material_interface_jump():
    # u = x lies in the space; A jumps from I to 3I across x = 1/2, so
    # interface edges carry flux jump 2 and squared norm 4 h_e
    mesh = square_grid(2, region_fn=halves_region)
    handler = DofHandler(mesh, np.ones(mesh.n_elements, dtype=int),
                         dirichlet_tags=())
    co = Coefficients(A=[np.eye(2), 3.0 * np.eye(2)], c=[0.0, 0.0])
    coeffs = interpolate(handler, lambda p: p[:, 0])
    kinds = mesh.edge_kinds(())
    jumps = estimator.edge_jump_norms(handler, coeffs[:, None], co, kinds)
    mids = mesh.vertices[mesh.edges].mean(axis=1)
    on_interface = (np.abs(mesh.vertices[mesh.edges][:, :, 0] - 0.5) < 1e-12).all(axis=1)
    assert on_interface.sum() == 2
    for e in np.nonzero(on_interface)[0]:
        assert kinds[e] == 0
        assert jumps[e, 0] == pytest.approx(4.0 * mesh.edge_length[e], rel=1e-13)
    other_interior = (kinds == 0) & ~on_interface
    vertical = np.abs(mids[other_interior][:, 0] - 0.5) < 1e-12
    assert np.max(jumps[other_interior, 0][~vertical] /
                  mesh.edge_length[other_interior][~vertical]) < 1e-24


def test_estimate_bookkeeping_and_zero_mode():
    mesh = square_grid(3, region_fn=quadrant_region)
    degrees = np.where(np.arange(mesh.n_elements) % 3 == 0, 3, 2)
    handler = DofHandler(mesh, degrees, dirichlet_tags=("boundary",))
    co = Coefficients(A=[np.eye(2), 2 * np.eye(2), np.eye(2), 3 * np.eye(2)],
                      c=[0.0, 1.0, 2.0, 0.5])
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal((handler.n_dofs, 2))
    values = np.array([1e-13, 20.0])
    field = estimator.estimate(handler, coeffs, values, co)

    assert field.included.tolist() == [False, True]
    assert field.total == pytest.approx(field.mode_totals[1] / 20.0, rel=1e-15)
    assert np.all(field.scaled_local[:, 0] == 0.0)
    assert field.element_totals == pytest.approx(field.local[:, 1] / 20.0)

    # recombine the parts with the stated weights
    kinds = mesh.edge_kinds(handler.dirichlet_tags)
    res = estimator.element_residual_norms(handler, coeffs, values, co)
    jumps = estimator.edge_jump_norms(handler, coeffs, co, kinds)
    w = mesh.edge_length / handler.p_edge_max
    w = np.where(kinds == 0, 0.5 * w, np.where(kinds == 2, w, 0.0))
    want = (mesh.h / degrees)[:, None] ** 2 * res + np.einsum(
        "kl,klm->km", w[mesh.elem_edges], jumps[mesh.elem_edges])
    assert field.local == pytest.approx(want, rel=1e-14)
    assert np.all(jumps[kinds == 1] == 0.0)

    with pytest.raises(ValueError):
        estimator.estimate(handler, coeffs, np.array([1.0]), co)


def test_estimate_checks_vector_length():
    mesh = square_grid(3)
    handler = DofHandler(mesh, 2, dirichlet_tags=("boundary",))
    # a vector over every dof, Dirichlet ones included, is too long
    full = np.ones((DofHandler(mesh, 2).n_dofs, 1))
    with pytest.raises(ValueError, match="rows"):
        estimator.estimate(handler, full, np.array([1.0]), Coefficients())


def test_estimator_tracks_error_under_refinement():
    # first Dirichlet eigenpair on the square: the total estimate must
    # shrink under uniform refinement roughly like the error and the
    # effectivity must stay in a sane band
    exact = 2 * np.pi**2
    co = Coefficients()
    totals, effs = [], []
    for n in (4, 8, 16):
        mesh = square_grid(n)
        handler = DofHandler(mesh, np.ones(mesh.n_elements, dtype=int),
                             dirichlet_tags=("boundary",))
        B = assemble_stiffness(handler, co)
        M = assemble_mass(handler)
        cluster = solve_lowest(B, M, 1)
        field = estimator.estimate(handler, cluster.vectors,
                                   cluster.values, co)
        totals.append(field.total)
        effs.append(estimator.effectivity(field, [exact]))
    assert totals[0] > totals[1] > totals[2] > 0
    for a, b in zip(totals, totals[1:]):
        assert 2.5 < a / b < 6.0
    for eff in effs:
        assert 1e-2 < eff < 1e2
    assert 0.5 < effs[0] / effs[1] < 2.0


def test_total_error_helper():
    values = np.array([2.0, 4.0])
    refs = np.array([1.0, 3.0])
    assert estimator.total_error(values, refs) == pytest.approx(0.75)
    inc = np.array([False, True])
    assert estimator.total_error(values, refs, inc) == pytest.approx(0.25)


def test_effectivity_of_zero_total_is_nan():
    # a pure Neumann problem with only its zero mode: nothing is
    # included, the total is 0 and the ratio is undefined
    mesh = square_grid(2)
    handler = DofHandler(mesh, 2, dirichlet_tags=())
    field = estimator.estimate(handler, np.ones((handler.n_dofs, 1)),
                               np.array([1e-14]), Coefficients())
    assert field.total == 0.0
    assert math.isnan(estimator.effectivity(field, [0.0]))


# Reference kernels: the per-element einsum versions the table products
# replaced.  They evaluate edge gradients at physical points mapped back
# to each element, so they share no table with the code under test.

_CHUNK = 4096


def _einsum_residual_norms(handler, coeffs_full, values, co):
    mesh = handler.mesh
    values = np.asarray(values, dtype=float)
    m = coeffs_full.shape[1]
    A_el, c_el = co.on_elements(mesh)
    maps = mesh.maps()
    out = np.zeros((mesh.n_elements, m))
    for p, (ids, _, _) in handler.groups.items():
        ker = reference_kernels(p)
        U = handler.gather(coeffs_full, p)
        Jinv = maps["Jinv"][ids]
        W = np.einsum("kab,kbc,kdc->kad", Jinv, A_el[ids], Jinv)
        wvec = np.stack([W[:, 0, 0], 2.0 * W[:, 0, 1], W[:, 1, 1]], axis=1)
        u = np.einsum("ql,klm->kqm", ker["V"], U)
        lap = np.einsum("kc,qlc,klm->kqm", wvec, ker["H"], U)
        R = (values[None, None, :] - c_el[ids, None, None]) * u + lap
        out[ids] = maps["detJ"][ids, None] * np.einsum("q,kqm->km", ker["w"],
                                                        R**2)
    return out


def _einsum_jump_norms(handler, coeffs_full, co, kinds):
    mesh = handler.mesh
    m = coeffs_full.shape[1]
    A_el, _ = co.on_elements(mesh)
    maps = mesh.maps()
    Jinv, origin = maps["Jinv"], maps["origin"]

    sq, wq = interval_rule(2 * int(handler.degrees.max()) + 2)
    nq = sq.size
    ev = mesh.vertices[mesh.edges]
    pts_edge = ev[:, None, 0, :] * (1.0 - sq)[None, :, None] \
        + ev[:, None, 1, :] * sq[None, :, None]

    active = kinds != 1
    jump = np.zeros((mesh.n_edges, nq, m))
    local_a = np.array([e[0] for e in LOCAL_EDGES])
    local_b = np.array([e[1] for e in LOCAL_EDGES])

    for p in handler.groups:
        U_all = handler.gather(coeffs_full, p)
        sides_e, sides_k, sides_l = [], [], []
        for side in range(2):
            on = (mesh.edge_elems[:, side] >= 0) & active
            ks = mesh.edge_elems[on, side]
            sel = handler.degrees[ks] == p
            sides_e.append(np.nonzero(on)[0][sel])
            sides_k.append(ks[sel])
            sides_l.append(mesh.edge_local[on, side][sel])
        sides_e = np.concatenate(sides_e)
        sides_k = np.concatenate(sides_k)
        sides_l = np.concatenate(sides_l)
        if sides_e.size == 0:
            continue
        rows = handler.row[sides_k]

        va = mesh.vertices[mesh.elements[sides_k, local_a[sides_l]]]
        vb = mesh.vertices[mesh.elements[sides_k, local_b[sides_l]]]
        t = vb - va
        n = np.stack([t[:, 1], -t[:, 0]], axis=1)
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        an = np.einsum("sab,sb->sa", A_el[sides_k], n)
        qvec = np.einsum("sab,sb->sa", Jinv[sides_k], an)

        for lo in range(0, sides_e.size, _CHUNK):
            sl = slice(lo, min(lo + _CHUNK, sides_e.size))
            e_c, k_c = sides_e[sl], sides_k[sl]
            phys = pts_edge[e_c]
            ref = np.einsum("sqb,sab->sqa", phys - origin[k_c][:, None, :],
                            Jinv[k_c])
            sh = tri_shapes(p, ref.reshape(-1, 2), nderiv=1)
            grads = sh["grad"].reshape(len(e_c), nq, -1, 2)
            flux = np.einsum("sqla,sa,slm->sqm", grads, qvec[sl],
                             U_all[rows[sl]])
            np.add.at(jump, e_c, flux)

    norms = mesh.edge_length[:, None] * np.einsum("q,eqm->em", wq, jump**2)
    norms[~active] = 0.0
    return norms


def _refined_slit():
    spec = problem("slit_square")
    mesh = spec.mesh(4)
    for _ in range(2):
        mesh = refine(mesh, np.nonzero(
            np.linalg.norm(mesh.centroids() - 0.5, axis=1) < 0.3)[0])
    degrees = 1 + np.arange(mesh.n_elements) % 10
    return mesh, degrees, spec.dirichlet_tags, spec.coefficients


def _a100_quadrants():
    spec = problem("diffusion_a100")
    mesh = spec.mesh(4)
    degrees = 2 + np.arange(mesh.n_elements) % 3
    return mesh, degrees, spec.dirichlet_tags, spec.coefficients


def _full_tensor():
    mesh = square_grid(3, region_fn=halves_region)
    degrees = 1 + np.arange(mesh.n_elements) % 5
    co = Coefficients(A=[[[2.0, 0.7], [0.7, 1.5]], [[1.0, -0.4], [-0.4, 3.0]]],
                      c=[0.3, 1.1])
    return mesh, degrees, (), co


@pytest.mark.parametrize("case", [_refined_slit, _a100_quadrants,
                                  _full_tensor])
def test_table_products_match_einsum_reference(case):
    mesh, degrees, dirichlet, co = case()
    handler = DofHandler(mesh, degrees, dirichlet_tags=dirichlet)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal((handler.n_dofs, 3))
    values = np.array([0.5, 20.0, 75.0])
    kinds = mesh.edge_kinds(handler.dirichlet_tags)
    pairs = [
        (estimator.element_residual_norms(handler, coeffs, values, co),
         _einsum_residual_norms(handler, coeffs, values, co)),
        (estimator.edge_jump_norms(handler, coeffs, co, kinds),
         _einsum_jump_norms(handler, coeffs, co, kinds)),
    ]
    for got, want in pairs:
        scale = np.max(np.abs(want), axis=0)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        np.testing.assert_allclose(got.sum(axis=0), want.sum(axis=0),
                                   rtol=1e-12, atol=0)


def _renumbered(mesh, perm, rot):
    """The same mesh with elements permuted and their vertices rotated."""
    cycle = (np.arange(3)[None, :] + rot[:, None]) % 3
    elements = np.take_along_axis(mesh.elements[perm], cycle, axis=1)
    return Mesh(mesh.vertices, elements, boundary_tag_dict(mesh),
                region=mesh.region[perm])


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4),
       dirichlet=st.booleans())
def test_estimate_independent_of_element_order(seed, n, dirichlet):
    rng = np.random.default_rng(seed)
    mesh = square_grid(n, region_fn=quadrant_region)
    co = Coefficients(A=[np.eye(2), [[2.0, 0.5], [0.5, 1.0]], 3 * np.eye(2),
                         [[1.0, -0.3], [-0.3, 2.0]]], c=[0.0, 1.0, 2.0, 0.5])
    degrees = rng.integers(1, 6, mesh.n_elements)
    perm = rng.permutation(mesh.n_elements)
    other = _renumbered(mesh, perm, rng.integers(0, 3, mesh.n_elements))
    # polynomials of degree <= min(degrees) lie in both spaces
    d = int(degrees.min())
    powers = [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
    c = rng.standard_normal((2, len(powers)))
    values = np.array([3.0, 40.0])
    tags = ("boundary",) if dirichlet else ()

    fields = []
    for msh, deg in ((mesh, degrees), (other, degrees[perm])):
        handler = DofHandler(msh, deg, dirichlet_tags=tags)
        coeffs = np.column_stack([interpolate(
            handler, lambda x, ci=ci: sum(a * x[:, 0]**i * x[:, 1]**j
                                          for a, (i, j) in zip(ci, powers)))
            for ci in c])
        fields.append(estimator.estimate(handler, coeffs, values, co))
    first, second = fields
    np.testing.assert_allclose(second.mode_totals, first.mode_totals,
                               rtol=1e-12, atol=0)
    scale = np.max(np.abs(first.local), axis=0)
    assert np.all(np.abs(second.local - first.local[perm]) <= 1e-12 * scale)
