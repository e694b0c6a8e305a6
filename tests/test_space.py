import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hpeig.assembly
import hpeig.space
from hpeig.basis import (EDGE_VERTICES, bubble_indices, edge_mode_indices,
                         n_local)
from hpeig.mesh import (Mesh, refine, slit_square_grid, square_grid,
                        triangle_grid, uniform_refine)
from hpeig.space import DofHandler, transfer


def mixed_degrees(mesh, lo=2, hi=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(lo, hi + 1, size=mesh.n_elements)


def edge_sample_points(mesh, e, n=5):
    """Matched physical points strictly inside edge e."""
    t = np.linspace(0.15, 0.85, n)
    a, b = mesh.edges[e]
    return mesh.vertices[a] + t[:, None] * (mesh.vertices[b] - mesh.vertices[a])


def to_ref(mesh, k, phys):
    maps = mesh.maps()
    return (phys - maps["origin"][k]) @ maps["Jinv"][k].T


def test_dof_count_fixed_degree():
    # 8x8 grid, degree 3, homogeneous Dirichlet everywhere:
    # 49 interior vertices, 176 interior edges x 2 modes, 128 bubbles
    mesh = square_grid(8)
    h = DofHandler(mesh, 3, dirichlet_tags=("boundary",))
    n_int_edges = mesh.n_edges - np.sum(mesh.boundary_mask)
    assert n_int_edges == 176
    assert h.n_dofs == 49 + 176 * 2 + 128
    assert h.n_full == 81 + 208 * 2 + 128


def test_minimum_rule():
    mesh = square_grid(2)
    degrees = np.full(mesh.n_elements, 2)
    degrees[0] = 4
    h = DofHandler(mesh, degrees)
    for l in range(3):
        e = mesh.elem_edges[0, l]
        other = mesh.edge_elems[e, 1] if mesh.edge_elems[e, 0] == 0 else mesh.edge_elems[e, 0]
        expect = 4 if other < 0 else 2
        assert h.p_conf[e] == expect
        assert h.p_edge_max[e] == 4
    # local modes above the conforming degree are absent
    ids, l2g, signs = h.groups[4]
    assert ids.tolist() == [0] and h.row[0] == 0
    absent = l2g[0] < 0
    shared = [e for e in mesh.elem_edges[0] if mesh.edge_elems[e, 1] >= 0]
    assert absent.sum() == 2 * len(shared)
    assert np.all(signs[0][absent] == 0.0)


def per_element_l2g(h):
    """Local-to-global maps and signs built one element at a time."""
    mesh = h.mesh
    l2g, signs = [], []
    for k in range(mesh.n_elements):
        p = h.degrees[k]
        g = np.full(n_local(p), -1, dtype=np.int64)
        s = np.ones(n_local(p))
        g[:3] = mesh.elements[k]
        if p >= 2:
            idx = edge_mode_indices(p)
            for l in range(3):
                e = mesh.elem_edges[k, l]
                a = mesh.elements[k, EDGE_VERTICES[l][0]]
                for kk in range(2, p + 1):
                    if kk <= h.p_conf[e]:
                        g[idx[l, kk - 2]] = h.edge_offset[e] + kk - 2
                        if a != mesh.edges[e, 0] and kk % 2 == 1:
                            s[idx[l, kk - 2]] = -1.0
                    else:
                        s[idx[l, kk - 2]] = 0.0
        nb = (p - 1) * (p - 2) // 2
        if nb:
            g[bubble_indices(p)] = h.bubble_offset[k] + np.arange(nb)
        l2g.append(g)
        signs.append(s)
    return l2g, signs


@pytest.mark.parametrize("tags", [(), ("outer",), ("outer", "slit")])
def test_groups_match_per_element_reference(tags):
    mesh = refine(refine(slit_square_grid(4), [0, 5, 9, 20]), [3, 11, 30])
    h = DofHandler(mesh, mixed_degrees(mesh, 1, 6, seed=5), tags)
    l2g, signs = per_element_l2g(h)
    seen = np.zeros(mesh.n_elements, dtype=int)
    for p, (ids, g, s) in h.groups.items():
        assert np.all(h.degrees[ids] == p)
        assert np.array_equal(h.row[ids], np.arange(ids.size))
        seen[ids] += 1
        assert g.dtype == np.int64
        assert np.array_equal(g, np.stack([l2g[k] for k in ids]))
        assert np.array_equal(s, np.stack([signs[k] for k in ids]))
    assert np.all(seen == 1)
    # the Dirichlet mask frees exactly the dofs off Dirichlet edges
    kinds = mesh.edge_kinds(tags)
    want = np.ones(h.n_full, dtype=bool)
    for e in np.nonzero(kinds == 1)[0]:
        want[mesh.edges[e]] = False
        want[h.edge_offset[e]:h.edge_offset[e + 1]] = False
    assert np.array_equal(h.free_mask, want)


def test_gather_reads_signed_coefficients():
    mesh = refine(square_grid(3), [0, 4, 7])
    h = DofHandler(mesh, mixed_degrees(mesh, 1, 5, seed=8))
    l2g, signs = per_element_l2g(h)
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal((h.n_full, 3))
    for p, (ids, _, _) in h.groups.items():
        want = np.stack([np.where((l2g[k] >= 0)[:, None],
                                  coeffs[np.maximum(l2g[k], 0)], 0.0)
                         * signs[k][:, None] for k in ids])
        assert np.array_equal(h.gather(coeffs, p), want)
        assert np.array_equal(h.gather(coeffs[:, 1], p), want[:, :, 1])
        rows = np.arange(ids.size)[::-2]
        assert np.array_equal(h.gather(coeffs, p, rows), want[rows])


def test_continuity_across_interior_edges():
    mesh = refine(square_grid(3), [0, 1, 4, 7, 11])
    h = DofHandler(mesh, mixed_degrees(mesh, 1, 5))
    rng = np.random.default_rng(7)
    coeffs = h.expand(rng.standard_normal(h.n_dofs))
    for e in range(mesh.n_edges):
        k0, k1 = mesh.edge_elems[e]
        if k1 < 0:
            continue
        phys = edge_sample_points(mesh, e)
        v0 = h.evaluate(coeffs, [k0], to_ref(mesh, k0, phys))[0]
        v1 = h.evaluate(coeffs, [k1], to_ref(mesh, k1, phys))[0]
        assert np.max(np.abs(v0 - v1)) < 1e-11


def test_dirichlet_mask():
    mesh = square_grid(3)
    h = DofHandler(mesh, 3, dirichlet_tags=("boundary",))
    kinds = mesh.edge_kinds(("boundary",))
    for e in np.nonzero(kinds == 1)[0]:
        assert not h.free_mask[mesh.edges[e]].any()
        assert not h.free_mask[h.edge_offset[e]:h.edge_offset[e + 1]].any()
    # interior vertex dofs stay free
    interior = np.setdiff1d(np.arange(mesh.n_vertices),
                            np.unique(mesh.edges[kinds == 1]))
    assert h.free_mask[interior].all()


def test_unknown_dirichlet_tag_rejected():
    mesh = square_grid(2)
    with pytest.raises(ValueError):
        DofHandler(mesh, 2, dirichlet_tags=("no_such_tag",))


def test_interpolate_reproduces_space_members():
    mesh = refine(square_grid(2), [0, 3])
    h = DofHandler(mesh, mixed_degrees(mesh, 3, 5, seed=2))

    def f(x):
        x = np.atleast_2d(x)
        return 2.0 + x[:, 0] ** 2 + x[:, 0] * x[:, 1] - x[:, 1] ** 3

    coeffs = h.interpolate(f)
    rng = np.random.default_rng(1)
    pts = rng.dirichlet(np.ones(3), size=20)[:, 1:]
    for k in range(mesh.n_elements):
        got = h.evaluate(coeffs, [k], pts)[0]
        maps = mesh.maps()
        phys = maps["origin"][k] + pts @ maps["J"][k].T
        assert np.max(np.abs(got - f(phys))) < 1e-11


COARSE = {"square": lambda: square_grid(2),
          "slit_square": lambda: slit_square_grid(2),
          "triangle": lambda: triangle_grid(2)}


# triangle_grid(2) refines some elements twice in one call, so all six
# child tables are used; a top degree of 10 reaches 12 after raises
@settings(max_examples=30)
@given(coarse=st.sampled_from(sorted(COARSE)), top=st.sampled_from([4, 10]),
       data=st.data())
def test_transfer_is_exact_on_refinement(coarse, top, data):
    mesh = COARSE[coarse]()
    ne = mesh.n_elements
    degrees = np.array(data.draw(st.lists(st.integers(1, top), min_size=ne, max_size=ne)))
    h = DofHandler(mesh, degrees)
    rng = np.random.default_rng(4)
    coeffs = h.expand(rng.standard_normal(h.n_dofs))

    fine = refine(mesh, data.draw(st.lists(st.integers(0, ne - 1), max_size=ne)))
    raise_by = data.draw(st.lists(st.integers(0, 2), min_size=fine.n_elements,
                                  max_size=fine.n_elements))
    hf = DofHandler(fine, degrees[fine.parent] + raise_by)
    out = transfer(h, hf, coeffs)
    # up to degree 12 the child coefficients reach ~1e4 for unit parent
    # ones, and evaluating them loses about n_local * eps of that
    tol = 1e-11 if top == 4 else 1e-14 * n_local(12) * np.abs(out).max()

    pts = rng.dirichlet(np.ones(3), size=12)[:, 1:]
    maps = fine.maps()
    for k in range(fine.n_elements):
        phys = maps["origin"][k] + pts @ maps["J"][k].T
        kp = fine.parent[k]
        want = h.evaluate(coeffs, [kp], to_ref(mesh, kp, phys))[0]
        got = hf.evaluate(out, [k], pts)[0]
        assert np.max(np.abs(got - want)) < tol


def test_transfer_pure_degree_increase():
    mesh = square_grid(2)
    h = DofHandler(mesh, 2)
    rng = np.random.default_rng(9)
    coeffs = h.expand(rng.standard_normal(h.n_dofs))
    hf = DofHandler(mesh, 4)
    out = transfer(h, hf, coeffs)
    pts = rng.dirichlet(np.ones(3), size=10)[:, 1:]
    for k in range(mesh.n_elements):
        a = h.evaluate(coeffs, [k], pts)[0]
        b = hf.evaluate(out, [k], pts)[0]
        assert np.max(np.abs(a - b)) < 1e-12


def test_transfer_rejects_degree_drop():
    mesh = square_grid(2)
    h = DofHandler(mesh, 3)
    with pytest.raises(ValueError):
        transfer(h, DofHandler(mesh, 2), np.zeros(h.n_full))


def test_transfer_rejects_mesh_not_one_refine_away():
    mesh = square_grid(2)
    h = DofHandler(mesh, 2)
    coeffs = np.zeros(h.n_full)
    # parent ids index the once-refined mesh, beyond the old elements
    with pytest.raises(ValueError, match="one refine call"):
        transfer(h, DofHandler(uniform_refine(mesh, times=2), 2), coeffs)
    # parent ids in range, but the elements are not images of them
    fine = uniform_refine(mesh)
    shuffled = Mesh(fine.vertices, fine.elements, fine.boundary_tag_dict(),
                    parent=fine.parent[::-1])
    with pytest.raises(ValueError, match="one refine call"):
        transfer(h, DofHandler(shuffled, 2), coeffs)


def test_transfer_with_warm_tables_evaluates_no_shapes(monkeypatch):
    mesh = triangle_grid(2)
    h = DofHandler(mesh, 3)
    hf = DofHandler(refine(mesh, [0]), 4)
    coeffs = np.ones(h.n_full)
    want = transfer(h, hf, coeffs)

    def boom(*args, **kwargs):
        raise AssertionError("tri_shapes called")
    monkeypatch.setattr(hpeig.space, "tri_shapes", boom)
    monkeypatch.setattr(hpeig.assembly, "tri_shapes", boom)
    assert np.array_equal(transfer(h, hf, coeffs), want)


def test_slit_sides_are_independent():
    mesh = slit_square_grid(4)
    h = DofHandler(mesh, 2, dirichlet_tags=("outer",))
    # find a duplicated vertex pair on the slit
    coords = np.round(mesh.vertices, 12)
    uniq, inverse, counts = np.unique(coords, axis=0, return_inverse=True,
                                      return_counts=True)
    pair = np.nonzero(inverse == np.nonzero(counts == 2)[0][0])[0]
    v_lo, v_hi = pair
    assert h.free_mask[v_lo] and h.free_mask[v_hi]

    full = np.zeros(h.n_full)
    full[v_lo] = 1.0
    # the spike on one slit side vanishes identically on elements that
    # reference the twin vertex
    for k in range(mesh.n_elements):
        tri = mesh.elements[k]
        if v_hi in tri:
            vals = h.evaluate(full, [k], np.array([[1 / 3, 1 / 3]]))[0]
            assert np.max(np.abs(vals)) < 1e-15
        if v_lo in tri:
            vals = h.evaluate(full, [k], np.full((1, 2), 1 / 3))[0]
            assert np.max(np.abs(vals)) > 0.1
