import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpeig.basis import EDGE_VERTICES
from hpeig.mesh import (
    CHILD_POSITIONS,
    Mesh,
    refine,
    slit_square_grid,
    square_grid,
    triangle_grid,
    triangle_hole_grid,
    uniform_refine,
)

from helpers import boundary_tag_dict, loop_triangle_grid, side_tags


def test_square_grid_counts():
    m = square_grid(4)
    assert m.n_vertices == 25
    assert m.n_elements == 32
    assert abs(m.area.sum() - 1.0) < 1e-14
    assert np.sum(m.boundary_mask) == 16
    # all boundary edges tagged, interior edges untagged
    assert np.all(m.edge_tag[m.boundary_mask] >= 0)
    assert np.all(m.edge_tag[~m.boundary_mask] == -1)


def test_refinement_edge_is_longest_edge_initially():
    for m in (square_grid(3), triangle_grid(3), triangle_hole_grid()):
        v = m.vertices[m.elements]
        ref_len = np.linalg.norm(v[:, 1] - v[:, 0], axis=1)
        assert np.all(ref_len >= m.h - 1e-12)


def test_uniform_refine_bisects_every_element():
    m = square_grid(2)
    fine = uniform_refine(m)
    assert fine.n_elements == 2 * m.n_elements
    assert abs(fine.area.sum() - 1.0) < 1e-14
    # children partition their parent
    for k in range(fine.n_elements):
        c = fine.vertices[fine.elements[k]].mean(axis=0)
        p = fine.parent[k]
        pv = m.vertices[m.elements[p]]
        # barycentric coordinates of the child centroid in the parent
        T = np.column_stack([pv[1] - pv[0], pv[2] - pv[0]])
        xi = np.linalg.solve(T, c - pv[0])
        assert xi.min() > -1e-12 and xi.sum() < 1 + 1e-12
    areas = np.zeros(m.n_elements)
    np.add.at(areas, fine.parent, fine.area)
    assert np.allclose(areas, m.area, atol=1e-14)


@pytest.mark.parametrize("base, positions", [(square_grid(2), {0, 1}),
                                             (triangle_grid(2), set(range(6)))])
def test_refined_elements_are_child_positions(base, positions):
    # every split element, in its parent's reference coordinates, is one
    # of the six images; triangle_grid(2) splits some elements twice
    seen = set()
    for marks in (np.arange(base.n_elements), [0]):
        fine = refine(base, marks)
        kp = fine.parent
        split = np.any(fine.elements != base.elements[kp], axis=1)
        ref = np.einsum("kab,kvb->kva", base.Jinv[kp[split]],
                        fine.vertices[fine.elements[split]]
                        - base.vertices[base.elements[kp[split], :1]])
        dist = np.abs(ref[:, None] - CHILD_POSITIONS).max(axis=(2, 3))
        assert np.all(dist.min(axis=1) < 1e-12)
        seen.update(dist.argmin(axis=1).tolist())
    assert seen == positions


def test_local_refinement_stays_conforming():
    rng = np.random.default_rng(5)
    m = square_grid(3)
    for _ in range(6):
        marked = rng.choice(m.n_elements, size=max(1, m.n_elements // 6),
                            replace=False)
        m = refine(m, marked)  # constructor validates conformity
    assert abs(m.area.sum() - 1.0) < 1e-12
    assert np.all(m.area > 0)


def shape_regularity(mesh):
    """max over elements of h(K)^2 / area(K)."""
    return float(np.max(mesh.h**2 / mesh.area))


def test_shape_regularity_bounded():
    m = square_grid(2)
    g0 = shape_regularity(m)
    rng = np.random.default_rng(11)
    for _ in range(8):
        marked = rng.choice(m.n_elements, size=max(1, m.n_elements // 5),
                            replace=False)
        m = refine(m, marked)
    # newest-vertex bisection cycles through finitely many shapes
    assert shape_regularity(m) <= 2.01 * g0


def test_vertex_ids_preserved_by_refine():
    m = square_grid(3)
    fine = refine(m, [0, 5, 7])
    assert np.allclose(fine.vertices[: m.n_vertices], m.vertices)


def test_slit_square_duplicates_vertices():
    m = slit_square_grid(4)
    assert m.n_vertices == 25 + 2
    coords = np.round(m.vertices, 12)
    _, counts = np.unique(coords, axis=0, return_counts=True)
    assert np.sum(counts == 2) == 2  # (0.75, 0.5) and (1.0, 0.5)
    assert len(m.edges_with_tag("slit")) == 4
    assert abs(m.area.sum() - 1.0) < 1e-14


def test_slit_survives_refinement():
    m = uniform_refine(uniform_refine(slit_square_grid(4)))
    slit = m.edges_with_tag("slit")
    assert len(slit) == 8
    # each slit edge sees exactly one element
    assert np.all(m.edge_elems[slit, 1] == -1)
    coords = np.round(m.vertices, 12)
    _, counts = np.unique(coords, axis=0, return_counts=True)
    # slit side vertices coincide pairwise
    assert np.sum(counts == 2) == 4


def test_triangle_grid():
    m = triangle_grid(4, side=2.0)
    assert m.n_elements == 16
    assert abs(m.area.sum() - np.sqrt(3.0)) < 1e-12


@pytest.mark.parametrize("side", [1.0, 2.0])
@pytest.mark.parametrize("n", range(1, 9))
def test_triangle_grid_matches_loop_construction(n, side):
    m = triangle_grid(n, side)
    vertices, elements = loop_triangle_grid(n, side)
    assert m.vertices.dtype == vertices.dtype
    assert m.vertices.tobytes() == vertices.tobytes()
    assert m.elements.dtype == elements.dtype
    assert np.array_equal(m.elements, elements)
    assert len(m.edges_with_tag("boundary")) == 3 * n


def test_triangle_hole_grid():
    m = triangle_hole_grid()
    assert m.n_elements == 15
    assert abs(m.area.sum() - 15.0 / 16.0 * np.sqrt(3.0)) < 1e-12
    assert len(m.edges_with_tag("hole")) == 3
    assert len(m.edges_with_tag("outer")) == 12
    # hole is concentric with the outer triangle
    hole_edges = m.edges_with_tag("hole")
    hole_verts = np.unique(m.edges[hole_edges])
    assert np.allclose(m.vertices[hole_verts].mean(axis=0),
                       [1.0, np.sqrt(3.0) / 3.0], atol=1e-12)


def test_mesh_validation():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        Mesh(verts, [[0, 2, 1]], [["b"] * 3])  # negative orientation
    with pytest.raises(ValueError, match="has no tag"):
        Mesh(verts, [[0, 1, 2]], [["b", "", "b"]])
    fan = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="more than two elements"):
        Mesh(fan, [[0, 1, 2], [0, 1, 3], [0, 1, 4]], [["b"] * 3] * 3)
    quad = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    # (0, 2) is the interior edge: side 1 of element 0, side 2 of element 1
    outline = [["b", "", "b"], ["b", "b", ""]]
    for tags in ([["b"] * 3], [["b"] * 4] * 2, {(0, 1): "b"}):
        with pytest.raises(ValueError, match="shape"):
            Mesh(quad, [[0, 1, 2], [0, 2, 3]], tags)
    for k, l in ((0, 1), (1, 2)):
        tags = np.array(outline)
        tags[k, l] = "b"
        with pytest.raises(ValueError, match="is interior"):
            Mesh(quad, [[0, 1, 2], [0, 2, 3]], tags)
    for name in ("region", "parent"):
        with pytest.raises(ValueError, match=name):
            Mesh(quad, [[0, 1, 2], [0, 2, 3]], outline, **{name: [0]})
    with pytest.raises(ValueError, match="region"):
        square_grid(2, region_fn=lambda c: np.array([1]))


QUAD = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


@pytest.mark.parametrize("vertices, elements, match", [
    (QUAD, [[0, 1, 2], [1, 3, -2]], "elements"),
    (QUAD[:3], [[0.0, 1.5, 2]], "elements"),
    (QUAD, [[0, 1, 2, 3]], "elements"),
    (QUAD, [[0, 1, 4]], "elements"),
    (np.column_stack([QUAD, np.ones(4)]), [[0, 1, 2]], "vertices"),
    (np.where(QUAD == 1.0, np.inf, QUAD), [[0, 1, 2]], "vertices"),
], ids=["negative_id", "fractional_id", "four_columns", "id_out_of_range",
        "3d_vertices", "infinite_vertex"])
def test_mesh_rejects_malformed_connectivity(vertices, elements, match):
    tags = np.full((len(elements), 3), "b")
    with pytest.raises(ValueError, match=match):
        Mesh(vertices, elements, tags)


def test_mesh_rejects_negative_region():
    with pytest.raises(ValueError, match="region ids"):
        square_grid(2, region_fn=lambda c: np.full(len(c), -1))


def test_mesh_rejects_fractional_region():
    # 1.9 x reaches 1.43 on the element centroids; no id is truncated
    with pytest.raises(ValueError, match="region ids must be integers"):
        square_grid(2, region_fn=lambda c: 1.9 * c[:, 0])
    whole = square_grid(2, region_fn=lambda c: 2.0 * (c[:, 0] > 0.5))
    assert whole.region.dtype == np.int64
    assert set(whole.region.tolist()) == {0, 2}


@pytest.mark.parametrize("parent", [[-5, 99], [0.5, 1], [0, np.nan]])
def test_mesh_rejects_negative_or_fractional_parent(parent):
    with pytest.raises(ValueError, match="parent ids must be integers"):
        Mesh(QUAD, [[0, 1, 2], [0, 2, 3]], [["b", "", "b"], ["b", "b", ""]],
             parent=parent)


def test_empty_mesh_stays_valid():
    m = Mesh(np.zeros((0, 2)), np.zeros((0, 3), dtype=np.int64),
             np.zeros((0, 3), dtype=str))
    assert m.n_elements == m.n_edges == 0 and m.tag_names == []


def test_refine_rejects_invalid_marks():
    m = square_grid(2)
    for marked in ([-1], [8], [0.7], [True]):
        with pytest.raises(ValueError):
            refine(m, marked)
    assert refine(m, []).n_elements == m.n_elements


# The edge loops of Mesh.__init__ and the recursive refine as they were
# before both became array operations; the property below holds the
# array code to them element for element.

def _pair(a, b):
    return (a, b) if a < b else (b, a)


def reference_edge_table(elements, boundary_tags):
    ne = len(elements)
    edge_index = {}
    elem_edges = np.empty((ne, 3), dtype=np.int64)
    edge_list = []
    for k in range(ne):
        tri = elements[k]
        for l, (a, b) in enumerate(EDGE_VERTICES):
            key = _pair(tri[a], tri[b])
            e = edge_index.get(key)
            if e is None:
                e = len(edge_list)
                edge_index[key] = e
                edge_list.append(key)
            elem_edges[k, l] = e
    nE = len(edge_list)

    edge_elems = np.full((nE, 2), -1, dtype=np.int64)
    edge_local = np.full((nE, 2), -1, dtype=np.int64)
    for k in range(ne):
        for l in range(3):
            e = elem_edges[k, l]
            if edge_elems[e, 0] < 0:
                edge_elems[e, 0] = k
                edge_local[e, 0] = l
            elif edge_elems[e, 1] < 0:
                edge_elems[e, 1] = k
                edge_local[e, 1] = l
            else:
                raise ValueError(f"edge {e} has more than two elements")

    tag_names = sorted(set(boundary_tags.values()))
    edge_tag = np.full(nE, -1, dtype=np.int64)
    for key, tag in boundary_tags.items():
        edge_tag[edge_index[_pair(*key)]] = tag_names.index(tag)
    return {"edges": np.array(edge_list, dtype=np.int64), "elem_edges": elem_edges,
            "edge_elems": edge_elems, "edge_local": edge_local,
            "edge_tag": edge_tag, "tag_names": tag_names}


def reference_refine(mesh, marked):
    marked = np.asarray(marked, dtype=np.int64)
    marked_edge = np.zeros(mesh.n_edges, dtype=bool)
    marked_edge[mesh.elem_edges[marked, 2]] = True
    while True:
        has_marked = marked_edge[mesh.elem_edges].any(axis=1)
        need = has_marked & ~marked_edge[mesh.elem_edges[:, 2]]
        if not np.any(need):
            break
        marked_edge[mesh.elem_edges[need, 2]] = True

    split_ids = np.nonzero(marked_edge)[0]
    nv = mesh.n_vertices
    midpoints = 0.5 * (mesh.vertices[mesh.edges[split_ids, 0]]
                       + mesh.vertices[mesh.edges[split_ids, 1]])
    mids = {}
    for i, e in enumerate(split_ids):
        a, b = mesh.edges[e]
        mids[_pair(a, b)] = nv + i

    new_elems, new_region, new_parent = [], [], []

    def split(v0, v1, v2, parent_id, region_id):
        m = mids.get(_pair(v0, v1))
        if m is None:
            new_elems.append((v0, v1, v2))
            new_region.append(region_id)
            new_parent.append(parent_id)
            return
        split(v2, v0, m, parent_id, region_id)
        split(v1, v2, m, parent_id, region_id)

    for k in range(mesh.n_elements):
        v0, v1, v2 = mesh.elements[k]
        split(v0, v1, v2, k, int(mesh.region[k]))

    tags = {}
    for (a, b), tag in boundary_tag_dict(mesh).items():
        m = mids.get(_pair(a, b))
        if m is None:
            tags[_pair(a, b)] = tag
        else:
            tags[_pair(a, m)] = tag
            tags[_pair(m, b)] = tag
    return {"vertices": np.vstack([mesh.vertices, midpoints]),
            "elements": np.array(new_elems, dtype=np.int64),
            "region": np.array(new_region, dtype=np.int64),
            "parent": np.array(new_parent, dtype=np.int64), "tags": tags}


BASE_MESHES = {
    "slit_square": lambda: slit_square_grid(4),
    "triangle_hole": triangle_hole_grid,
    "two_regions": lambda: square_grid(
        3, region_fn=lambda c: (c[:, 0] > 0.5).astype(np.int64)),
    "triangle": lambda: triangle_grid(3),
}


def assert_tables_match(mesh, boundary_tags):
    want = reference_edge_table(mesh.elements, boundary_tags)
    for name, value in want.items():
        if name == "tag_names":
            assert mesh.tag_names == value
        else:
            np.testing.assert_array_equal(getattr(mesh, name), value, err_msg=name)
    # elem_reversed against the global edge's first vertex, and opposite
    # on the two sides of every interior edge
    first = mesh.elements[:, [a for a, _ in EDGE_VERTICES]]
    np.testing.assert_array_equal(mesh.elem_reversed,
                                  first != mesh.edges[mesh.elem_edges, 0])
    inner = mesh.edge_elems[:, 1] >= 0
    sides = mesh.elem_reversed[mesh.edge_elems[inner], mesh.edge_local[inner]]
    assert np.all(sides[:, 0] != sides[:, 1])
    # affine maps: edge vectors as columns, the cross product as
    # determinant (bitwise), half of it as area (exactly)
    v = mesh.vertices[mesh.elements]
    d1, d2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    assert np.array_equal(mesh.J, np.stack([d1, d2], axis=2))
    assert np.array_equal(mesh.detJ, d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    assert np.array_equal(mesh.area, 0.5 * mesh.detJ)
    np.testing.assert_allclose(mesh.Jinv @ mesh.J,
                               np.broadcast_to(np.eye(2), mesh.J.shape),
                               rtol=0, atol=1e-13)


@settings(max_examples=20)
@given(base=st.sampled_from(sorted(BASE_MESHES)), data=st.data())
def test_side_tags_round_trip(base, data):
    mesh = BASE_MESHES[base]()
    for _ in range(4):
        again = Mesh(mesh.vertices, mesh.elements, side_tags(mesh))
        np.testing.assert_array_equal(again.edge_tag, mesh.edge_tag)
        assert again.tag_names == mesh.tag_names
        marked = data.draw(st.lists(st.integers(0, mesh.n_elements - 1), max_size=6))
        mesh = refine(mesh, marked)


@settings(max_examples=40)
@given(base=st.sampled_from(sorted(BASE_MESHES)), data=st.data())
def test_refine_matches_reference(base, data):
    mesh = BASE_MESHES[base]()
    assert_tables_match(mesh, boundary_tag_dict(mesh))
    if base == "two_regions":
        assert set(mesh.region) == {0, 1}
    for _ in range(4):
        marked = data.draw(st.lists(st.integers(0, mesh.n_elements - 1), max_size=6))
        want = reference_refine(mesh, marked)
        fine = refine(mesh, marked)
        for name in ("vertices", "elements", "parent", "region"):
            np.testing.assert_array_equal(getattr(fine, name), want[name], err_msg=name)
        assert_tables_match(fine, want["tags"])

        v = fine.vertices[fine.elements]
        d1, d2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
        assert np.all(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] > 0)
        # one refine call bisects an element at most twice, which the six
        # CHILD_POSITIONS and transfer rely on
        halvings = np.rint(np.log2(mesh.area[fine.parent] / fine.area))
        assert set(halvings.tolist()) <= {0.0, 1.0, 2.0}
        np.testing.assert_allclose(fine.area,
                                   mesh.area[fine.parent] / 2.0**halvings,
                                   rtol=1e-12, atol=0)
        for tag in mesh.tag_names:
            np.testing.assert_allclose(fine.edge_length[fine.edges_with_tag(tag)].sum(),
                                       mesh.edge_length[mesh.edges_with_tag(tag)].sum(),
                                       rtol=1e-13)
        mesh = fine
