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

from helpers import boundary_tag_dict, evaluate, interpolate


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
    assert DofHandler(mesh, 3).n_dofs == 81 + 208 * 2 + 128


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
    dirichlet = mesh.edge_kinds(h.dirichlet_tags) == 1
    l2g, signs = [], []
    for k in range(mesh.n_elements):
        p = h.degrees[k]
        g = np.full(n_local(p), -1, dtype=np.int64)
        s = np.ones(n_local(p))
        g[:3] = h.vertex_dof[mesh.elements[k]]
        s[:3] = g[:3] >= 0
        if p >= 2:
            idx = edge_mode_indices(p)
            for l in range(3):
                e = mesh.elem_edges[k, l]
                a = mesh.elements[k, EDGE_VERTICES[l][0]]
                for kk in range(2, p + 1):
                    if kk <= h.p_conf[e] and not dirichlet[e]:
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


def full_numbering(h):
    """The earlier numbering of every dof, Dirichlet ones included.

    Returns (groups, edge_offset, bubble_offset, free): groups[p] =
    (l2g, signs) in that numbering, and free masks its non-Dirichlet
    dofs.
    """
    mesh = h.mesh
    nv = mesh.n_vertices
    edge_counts = np.maximum(h.p_conf - 1, 0)
    edge_offset = nv + np.concatenate([[0], np.cumsum(edge_counts)])
    bubble_counts = (h.degrees - 1) * (h.degrees - 2) // 2
    bubble_offset = edge_offset[-1] + np.concatenate(
        [[0], np.cumsum(bubble_counts)])
    n_full = int(bubble_offset[-1])

    first = mesh.elements[:, [a for a, _ in EDGE_VERTICES]]
    reversed_edge = first != mesh.edges[mesh.elem_edges, 0]
    groups = {}
    for p in np.unique(h.degrees).tolist():
        ids = np.nonzero(h.degrees == p)[0]
        l2g = np.full((ids.size, n_local(p)), -1, dtype=np.int64)
        signs = np.ones((ids.size, n_local(p)))
        l2g[:, :3] = mesh.elements[ids]
        if p >= 2:
            e = mesh.elem_edges[ids][:, :, None]
            kk = np.arange(2, p + 1)
            present = kk <= h.p_conf[e]
            odd_flip = reversed_edge[ids][:, :, None] & (kk % 2 == 1)
            idx = edge_mode_indices(p)
            l2g[:, idx] = np.where(present, edge_offset[e] + kk - 2, -1)
            signs[:, idx] = np.where(present,
                                     np.where(odd_flip, -1.0, 1.0), 0.0)
        bi = bubble_indices(p)
        l2g[:, bi] = bubble_offset[ids][:, None] + np.arange(bi.size)
        groups[p] = (l2g, signs)

    dirichlet = mesh.edge_kinds(h.dirichlet_tags) == 1
    free = np.ones(n_full, dtype=bool)
    free[mesh.edges[dirichlet].ravel()] = False
    free[nv:edge_offset[-1]] &= ~np.repeat(dirichlet, edge_counts)
    return groups, edge_offset, bubble_offset, free


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

    # dropping the Dirichlet dofs from the full numbering, order kept,
    # gives the handler's numbering exactly
    groups, edge_offset, bubble_offset, free = full_numbering(h)
    free_to_full = np.nonzero(free)[0]
    full_to_free = np.full(free.size, -1)
    full_to_free[free_to_full] = np.arange(free_to_full.size)
    assert free.all() == (tags == ())
    assert h.n_dofs == free_to_full.size
    assert np.array_equal(h.vertex_dof, full_to_free[:mesh.n_vertices])
    for p, (_, g, s) in h.groups.items():
        g_full, s_full = groups[p]
        want = np.where(g_full >= 0, full_to_free[np.maximum(g_full, 0)], -1)
        assert np.array_equal(g, want)
        assert np.array_equal(s, np.where(want >= 0, s_full, 0.0))
    assert np.array_equal(h.edge_offset,
                          np.searchsorted(free_to_full, edge_offset))
    assert np.array_equal(h.bubble_offset,
                          np.searchsorted(free_to_full, bubble_offset))


def test_gather_reads_signed_coefficients():
    mesh = refine(square_grid(3), [0, 4, 7])
    h = DofHandler(mesh, mixed_degrees(mesh, 1, 5, seed=8))
    l2g, signs = per_element_l2g(h)
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal((h.n_dofs, 3))
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
    coeffs = rng.standard_normal(h.n_dofs)
    for e in range(mesh.n_edges):
        k0, k1 = mesh.edge_elems[e]
        if k1 < 0:
            continue
        phys = edge_sample_points(mesh, e)
        v0 = evaluate(h, coeffs, [k0], to_ref(mesh, k0, phys))[0]
        v1 = evaluate(h, coeffs, [k1], to_ref(mesh, k1, phys))[0]
        assert np.max(np.abs(v0 - v1)) < 1e-11


def test_dirichlet_mask():
    mesh = square_grid(3)
    h = DofHandler(mesh, 3, dirichlet_tags=("boundary",))
    kinds = mesh.edge_kinds(("boundary",))
    # Dirichlet vertices and edges carry no dofs
    for e in np.nonzero(kinds == 1)[0]:
        assert np.all(h.vertex_dof[mesh.edges[e]] == -1)
        assert h.edge_offset[e] == h.edge_offset[e + 1]
    # interior vertices keep theirs, numbered by id
    interior = np.setdiff1d(np.arange(mesh.n_vertices),
                            np.unique(mesh.edges[kinds == 1]))
    assert np.array_equal(h.vertex_dof[interior], np.arange(interior.size))


def test_unknown_dirichlet_tag_rejected():
    mesh = square_grid(2)
    with pytest.raises(ValueError):
        DofHandler(mesh, 2, dirichlet_tags=("no_such_tag",))


def test_non_integer_degrees_rejected():
    mesh = square_grid(2)
    for degrees in (2.7, [2.7] * mesh.n_elements, np.full(mesh.n_elements, 2.0)):
        with pytest.raises(ValueError, match="integers"):
            DofHandler(mesh, degrees)


def test_interpolate_reproduces_space_members():
    mesh = refine(square_grid(2), [0, 3])
    h = DofHandler(mesh, mixed_degrees(mesh, 3, 5, seed=2))

    def f(x):
        x = np.atleast_2d(x)
        return 2.0 + x[:, 0] ** 2 + x[:, 0] * x[:, 1] - x[:, 1] ** 3

    coeffs = interpolate(h, f)
    rng = np.random.default_rng(1)
    pts = rng.dirichlet(np.ones(3), size=20)[:, 1:]
    for k in range(mesh.n_elements):
        got = evaluate(h, coeffs, [k], pts)[0]
        maps = mesh.maps()
        phys = maps["origin"][k] + pts @ maps["J"][k].T
        assert np.max(np.abs(got - f(phys))) < 1e-11


COARSE = {"square": lambda: square_grid(2),
          "slit_square": lambda: slit_square_grid(2),
          "triangle": lambda: triangle_grid(2)}
DIRICHLET = {"square": [(), ("boundary",)],
             "slit_square": [(), ("outer",), ("outer", "slit")],
             "triangle": [(), ("boundary",)]}


# triangle_grid(2) refines some elements twice in one call, so all six
# child tables are used; a top degree of 10 reaches 12 after raises
@settings(max_examples=30)
@given(coarse=st.sampled_from(sorted(COARSE)), top=st.sampled_from([4, 10]),
       data=st.data())
def test_transfer_is_exact_on_refinement(coarse, top, data):
    mesh = COARSE[coarse]()
    ne = mesh.n_elements
    degrees = np.array(data.draw(st.lists(st.integers(1, top), min_size=ne, max_size=ne)))
    tags = data.draw(st.sampled_from(DIRICHLET[coarse]))
    h = DofHandler(mesh, degrees, tags)
    rng = np.random.default_rng(4)
    coeffs = rng.standard_normal(h.n_dofs)

    fine = refine(mesh, data.draw(st.lists(st.integers(0, ne - 1), max_size=ne)))
    raise_by = data.draw(st.lists(st.integers(0, 2), min_size=fine.n_elements,
                                  max_size=fine.n_elements))
    hf = DofHandler(fine, degrees[fine.parent] + raise_by, tags)
    out = transfer(h, hf, coeffs)
    # up to degree 12 the child coefficients reach ~1e4 for unit parent
    # ones, and evaluating them loses about n_local * eps of that
    tol = 1e-11 if top == 4 else 1e-14 * n_local(12) * np.abs(out).max()

    pts = rng.dirichlet(np.ones(3), size=12)[:, 1:]
    maps = fine.maps()
    for k in range(fine.n_elements):
        phys = maps["origin"][k] + pts @ maps["J"][k].T
        kp = fine.parent[k]
        want = evaluate(h, coeffs, [kp], to_ref(mesh, kp, phys))[0]
        got = evaluate(hf, out, [k], pts)[0]
        assert np.max(np.abs(got - want)) < tol


def test_transfer_pure_degree_increase():
    mesh = square_grid(2)
    h = DofHandler(mesh, 2)
    rng = np.random.default_rng(9)
    coeffs = rng.standard_normal(h.n_dofs)
    hf = DofHandler(mesh, 4)
    out = transfer(h, hf, coeffs)
    pts = rng.dirichlet(np.ones(3), size=10)[:, 1:]
    for k in range(mesh.n_elements):
        a = evaluate(h, coeffs, [k], pts)[0]
        b = evaluate(hf, out, [k], pts)[0]
        assert np.max(np.abs(a - b)) < 1e-12


def test_transfer_rejects_degree_drop():
    mesh = square_grid(2)
    h = DofHandler(mesh, 3)
    with pytest.raises(ValueError):
        transfer(h, DofHandler(mesh, 2), np.zeros(h.n_dofs))


def test_transfer_checks_vector_length_and_tags():
    mesh = square_grid(2)
    h = DofHandler(mesh, 2, dirichlet_tags=("boundary",))
    hf = DofHandler(refine(mesh, [0]), 2, dirichlet_tags=("boundary",))
    # a vector over every dof, Dirichlet ones included, is too long
    full = np.ones(DofHandler(mesh, 2).n_dofs)
    with pytest.raises(ValueError, match="rows"):
        transfer(h, hf, full)
    with pytest.raises(ValueError, match="rows"):
        transfer(h, hf, full[:, None])
    with pytest.raises(ValueError, match="Dirichlet"):
        transfer(h, DofHandler(hf.mesh, 2), np.ones(h.n_dofs))


def test_transfer_rejects_mesh_not_one_refine_away():
    mesh = square_grid(2)
    h = DofHandler(mesh, 2)
    coeffs = np.zeros(h.n_dofs)
    # parent ids index the once-refined mesh, beyond the old elements
    with pytest.raises(ValueError, match="one refine call"):
        transfer(h, DofHandler(uniform_refine(mesh, times=2), 2), coeffs)
    # parent ids in range, but the elements are not images of them
    fine = uniform_refine(mesh)
    shuffled = Mesh(fine.vertices, fine.elements, boundary_tag_dict(fine),
                    parent=fine.parent[::-1])
    with pytest.raises(ValueError, match="one refine call"):
        transfer(h, DofHandler(shuffled, 2), coeffs)


def test_transfer_with_warm_tables_evaluates_no_shapes(monkeypatch):
    mesh = triangle_grid(2)
    h = DofHandler(mesh, 3)
    hf = DofHandler(refine(mesh, [0]), 4)
    coeffs = np.ones(h.n_dofs)
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
    assert h.vertex_dof[v_lo] >= 0 and h.vertex_dof[v_hi] >= 0

    coeffs = np.zeros(h.n_dofs)
    coeffs[h.vertex_dof[v_lo]] = 1.0
    # the spike on one slit side vanishes identically on elements that
    # reference the twin vertex
    for k in range(mesh.n_elements):
        tri = mesh.elements[k]
        if v_hi in tri:
            vals = evaluate(h, coeffs, [k], np.array([[1 / 3, 1 / 3]]))[0]
            assert np.max(np.abs(vals)) < 1e-15
        if v_lo in tri:
            vals = evaluate(h, coeffs, [k], np.full((1, 2), 1 / 3))[0]
            assert np.max(np.abs(vals)) > 0.1
