"""Conforming triangle meshes with newest-vertex bisection refinement.

Elements are stored as vertex triples (v0, v1, v2) with positive
orientation; the refinement edge is (v0, v1) and v2 is the peak (the
newest vertex after a bisection).  Bisecting an element creates the
children (v2, v0, m) and (v1, v2, m) where m is the midpoint of the
refinement edge, so each child's refinement edge is one of the parent's
outer edges.  Refining a marked set is closed so the result is again
conforming.

Slits are represented by duplicated vertices: the two sides of a slit
carry distinct vertex ids at identical coordinates, which keeps the two
sides topologically separate through any number of refinements.

Boundary edges carry string tags ("outer", "slit", ...).  Problems map
tags to boundary conditions; the mesh itself only stores the labels.

Two orderings are part of the result and must be kept:
- `refine` lists the children of each input element contiguously, in
  input-element order, and among themselves in the depth-first order of
  the recursive bisection: the whole subtree of (v2, v0, m) before that
  of (v1, v2, m).
- Edges are numbered by first appearance in (element, local edge)
  order, and `edge_elems` lists the two sides of an edge in that order.
Dof numbering follows both orders, marking breaks ties between equal
indicators by element id, and the rounding of every assembled sum
follows the numbering.  So the byte-identical CSV of a rerun depends on
them: renumbering elements or edges changes results in the last digits.
"""

import numpy as np

from .basis import EDGE_VERTICES


def _edge_table(elements):
    """Edge arrays of a triangulation: edges, elem_edges, edge_elems, edge_local.

    Edges are sorted vertex pairs, numbered by first appearance in
    (element, local edge) order.  edge_elems / edge_local hold the
    element and local edge of each side of an edge in that same order,
    -1 in the second column for boundary edges.
    """
    sides = np.sort(elements[:, np.array(EDGE_VERTICES)], axis=2).reshape(-1, 2)
    code = sides[:, 0] * (elements.max(initial=0) + 1) + sides[:, 1]
    _, first, inverse, count = np.unique(
        code, return_index=True, return_inverse=True, return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    elem_edges = rank[inverse].reshape(-1, 3)
    count = count[order]
    if np.any(count > 2):
        raise ValueError(f"edge {int(np.argmax(count > 2))} has more than two elements")

    # side slots 3 k + l, grouped by edge and in (k, l) order within one
    slot_of = np.argsort(elem_edges.ravel(), kind="stable")
    start = np.cumsum(count) - count
    slot = np.full((order.size, 2), -1, dtype=np.int64)
    slot[:, 0] = slot_of[start]
    two = count == 2
    slot[two, 1] = slot_of[start[two] + 1]
    edge_elems = np.where(slot >= 0, slot // 3, -1)
    edge_local = np.where(slot >= 0, slot % 3, -1)
    return sides[first[order]], elem_edges, edge_elems, edge_local


def _boundary_sides(elements):
    """(ne, 3) mask of the element sides that lie on the boundary."""
    _, elem_edges, edge_elems, _ = _edge_table(elements)
    return (edge_elems[:, 1] < 0)[elem_edges]


def _side_midpoints(vertices, elements):
    """(ne, 3, 2) midpoints of the element sides, in EDGE_VERTICES order."""
    return vertices[elements[:, np.array(EDGE_VERTICES)]].mean(axis=2)


class Mesh:
    """Immutable conforming triangle mesh.

    Parameters
    ----------
    vertices : ndarray (nv, 2)
    elements : ndarray (ne, 3)
        Positively oriented; refinement edge (v0, v1), peak v2.
    side_tags : array_like of str (ne, 3)
        Entry [k, l] tags local edge l of element k (basis.EDGE_VERTICES
        order) where that side lies on the boundary, and is "" elsewhere.
        Every boundary side must be tagged.
    region : ndarray (ne,), optional
        Integer material region per element, default 0.
    parent : ndarray (ne,), optional
        Element id in the mesh this one was refined from (identity for
        meshes built from scratch).

    Every derived array is set here, once.  Element k's affine map is
    x -> vertices[elements[k, 0]] + J[k] x: J (ne, 2, 2) has the edge
    vectors v1 - v0 and v2 - v0 as columns, detJ = 2 area, Jinv = J^-1.

    Global edges run from the lower to the higher vertex id, and
    elem_reversed[k, l] is True where local edge l of element k
    (basis.EDGE_VERTICES order) runs against its edge.  The two sides of
    an interior edge always differ in it, as both are positively oriented.
    """

    def __init__(self, vertices, elements, side_tags, region=None,
                 parent=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.elements = np.asarray(elements, dtype=np.int64)
        ne = self.elements.shape[0]
        self.region = (np.zeros(ne, dtype=np.int64) if region is None
                       else np.asarray(region, dtype=np.int64))
        self.parent = (np.arange(ne, dtype=np.int64) if parent is None
                       else np.asarray(parent, dtype=np.int64))
        for name in ("region", "parent"):
            if getattr(self, name).shape != (ne,):
                raise ValueError(f"{name} needs one entry per element ({ne})")

        v = self.vertices[self.elements]
        J = self.J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)
        detJ = self.detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        if np.any(detJ <= 0):
            bad = int(np.argmin(detJ))
            raise ValueError(f"element {bad} is not positively oriented")
        self.area = 0.5 * detJ
        self.Jinv = np.empty_like(J)
        self.Jinv[:, 0, 0] = J[:, 1, 1] / detJ
        self.Jinv[:, 0, 1] = -J[:, 0, 1] / detJ
        self.Jinv[:, 1, 0] = -J[:, 1, 0] / detJ
        self.Jinv[:, 1, 1] = J[:, 0, 0] / detJ

        self.edges, self.elem_edges, self.edge_elems, self.edge_local = (
            _edge_table(self.elements))
        first, second = np.array(EDGE_VERTICES).T
        self.elem_reversed = self.elements[:, first] > self.elements[:, second]

        side = np.asarray(side_tags, dtype=str)
        if side.shape != (ne, 3):
            raise ValueError(f"side_tags needs shape ({ne}, 3), got {side.shape}")
        boundary = self.boundary_mask
        # column 1 of a boundary edge gathers side -1 and is never read
        tags = side[self.edge_elems, self.edge_local]
        inner = ~boundary & np.any(tags != "", axis=1)
        if np.any(inner):
            e = int(np.argmax(inner))
            raise ValueError(f"tagged edge {tuple(self.edges[e].tolist())} is interior")
        untagged = boundary & (tags[:, 0] == "")
        if np.any(untagged):
            e = int(np.argmax(untagged))
            raise ValueError(f"boundary edge {tuple(self.edges[e].tolist())} has no tag")
        self.tag_names = sorted(set(tags[boundary, 0].tolist()))
        self.edge_tag = np.where(boundary,
                                 np.searchsorted(self.tag_names, tags[:, 0]), -1)

        ev = self.vertices[self.edges]
        self.edge_length = np.linalg.norm(ev[:, 1] - ev[:, 0], axis=1)
        self.h = np.max(self.edge_length[self.elem_edges], axis=1)

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_elements(self):
        return self.elements.shape[0]

    @property
    def n_edges(self):
        return self.edges.shape[0]

    @property
    def boundary_mask(self):
        return self.edge_elems[:, 1] < 0

    def centroids(self):
        return self.vertices[self.elements].mean(axis=1)

    def edges_with_tag(self, tag):
        if tag not in self.tag_names:
            return np.empty(0, dtype=np.int64)
        return np.nonzero(self.edge_tag == self.tag_names.index(tag))[0]

    def edge_kinds(self, dirichlet_tags):
        """Classify edges: 0 interior, 1 Dirichlet, 2 Neumann."""
        kinds = np.where(self.boundary_mask, 2, 0)
        for tag in dirichlet_tags:
            kinds[self.edges_with_tag(tag)] = 1
        return kinds


# The images of the reference triangle (0,0), (1,0), (0,1) that one
# refine call makes, as vertex triples in its coordinates: the children
# (v2, v0, m) and (v1, v2, m), then the children of each, one bisection
# per line.  Only input edges are split, so none is bisected thrice.
CHILD_POSITIONS = np.array([
    [[0, 1], [0, 0], [0.5, 0]], [[1, 0], [0, 1], [0.5, 0]],
    [[0.5, 0], [0, 1], [0, 0.5]], [[0, 0], [0.5, 0], [0, 0.5]],
    [[0.5, 0], [1, 0], [0.5, 0.5]], [[0, 1], [0.5, 0], [0.5, 0.5]]])


def refine(mesh, marked):
    """Bisect the marked elements, with closure to keep conformity.

    Parameters
    ----------
    mesh : Mesh
    marked : array of element ids

    Returns
    -------
    Mesh whose parent array maps each element to the input element it
    descends from (identity where nothing happened).  Vertex ids of the
    input mesh are preserved.  Raises ValueError unless every marked id
    is an integer in [0, n_elements).
    """
    marked = np.asarray(marked)
    if marked.size and not np.issubdtype(marked.dtype, np.integer):
        raise ValueError(f"marked element ids must be integers, got {marked.dtype}")
    marked = marked.astype(np.int64)
    if np.any((marked < 0) | (marked >= mesh.n_elements)):
        raise ValueError(f"marked element ids must lie in [0, {mesh.n_elements})")
    marked_edge = np.zeros(mesh.n_edges, dtype=bool)
    marked_edge[mesh.elem_edges[marked, 2]] = True

    # closure: any marked edge on an element forces its refinement edge
    while True:
        has_marked = marked_edge[mesh.elem_edges].any(axis=1)
        need = has_marked & ~marked_edge[mesh.elem_edges[:, 2]]
        if not np.any(need):
            break
        marked_edge[mesh.elem_edges[need, 2]] = True

    split_ids = np.nonzero(marked_edge)[0]
    midpoints = 0.5 * (mesh.vertices[mesh.edges[split_ids, 0]]
                       + mesh.vertices[mesh.edges[split_ids, 1]])
    vertices = np.vstack([mesh.vertices, midpoints])
    # midpoint vertex of each input edge, -1 where it stays whole; the
    # extra last entry answers the id -1 that marks edges made below
    mid = np.full(mesh.n_edges + 1, -1, dtype=np.int64)
    mid[split_ids] = mesh.n_vertices + np.arange(split_ids.size)

    # Bisect one generation at a time.  Only input edges are ever split,
    # so each element carries the input ids of its three edges (-1 for
    # new ones), their tag codes (halves keep the code of the side they
    # split, new sides get -1) and a path code: doubled every generation,
    # +1 for a second child, so sorting by it gives the depth-first order.
    elems, edge_ids = mesh.elements, mesh.elem_edges
    side = mesh.edge_tag[mesh.elem_edges]
    parent = np.arange(mesh.n_elements)
    code = np.zeros(mesh.n_elements, dtype=np.int64)
    while True:
        m = mid[edge_ids[:, 2]]
        split = np.nonzero(m >= 0)[0]
        if split.size == 0:
            break
        stay = np.nonzero(m < 0)[0]
        v0, v1, v2 = elems[split].T
        m, e0, e1 = m[split], edge_ids[split, 0], edge_ids[split, 1]
        t0, t1, t2 = side[split].T
        new = np.full(split.size, -1)
        elems = np.concatenate([elems[stay], np.column_stack([v2, v0, m]),
                                np.column_stack([v1, v2, m])])
        edge_ids = np.concatenate([edge_ids[stay], np.column_stack([new, new, e1]),
                                   np.column_stack([new, new, e0])])
        side = np.concatenate([side[stay], np.column_stack([t2, new, t1]),
                               np.column_stack([new, t2, t0])])
        rows = np.concatenate([stay, split, split])
        sizes = [stay.size, split.size, split.size]
        parent, code = parent[rows], 2 * code[rows] + np.repeat([0, 0, 1], sizes)
    order = np.lexsort((code, parent))
    parent = parent[order]

    return Mesh(vertices, elems[order], np.append(mesh.tag_names, "")[side[order]],
                region=mesh.region[parent], parent=parent)


def uniform_refine(mesh):
    return refine(mesh, np.arange(mesh.n_elements))


def _normalize(vertices, elements):
    """Orient positively and rotate the longest edge into (v0, v1)."""
    elements = np.array(elements, dtype=np.int64)
    v = vertices[elements]
    d1 = v[:, 1] - v[:, 0]
    d2 = v[:, 2] - v[:, 0]
    flip = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] < 0
    elements[flip] = elements[flip][:, [0, 2, 1]]
    v = vertices[elements]
    lengths = np.stack([
        np.linalg.norm(v[:, 2] - v[:, 1], axis=1),
        np.linalg.norm(v[:, 0] - v[:, 2], axis=1),
        np.linalg.norm(v[:, 1] - v[:, 0], axis=1),
    ], axis=1)
    # peak opposite the longest edge; break ties toward the lowest index
    peak = np.argmax(lengths > lengths.max(axis=1, keepdims=True) - 1e-12, axis=1)
    out = elements.copy()
    for r, order in ((1, (2, 0, 1)), (0, (1, 2, 0))):
        rows = peak == r
        out[rows] = elements[rows][:, order]
    return out


def _unit_square(n):
    """Grid vertices of the unit square and two triangles per cell.

    Vertices and cells run row by row from the bottom.  The cell with
    corners a, b, c, d, counterclockwise from its lower left, gives the
    triangles (a, b, c) and (a, c, d).
    """
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    a = np.arange(n * (n + 1)).reshape(n, n + 1)[:, :n].ravel()
    cells = np.column_stack([a, a + 1, a + n + 2, a + n + 1])
    return np.column_stack([X.ravel(), Y.ravel()]), cells[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3)


def square_grid(n, region_fn=None):
    """Unit square, n x n cells, 2 n^2 triangles, boundary tagged "boundary"."""
    vertices, elements = _unit_square(n)
    elements = _normalize(vertices, elements)
    region = None if region_fn is None else region_fn(vertices[elements].mean(axis=1))
    return Mesh(vertices, elements, np.where(_boundary_sides(elements), "boundary", ""),
                region=region)


def slit_square_grid(n):
    """Unit square with an interior slit from (1/2, 1/2) to (1, 1/2).

    n must be even.  Vertices on the open slit (and its endpoint on the
    outer boundary) are duplicated; elements below the slit use the
    duplicates.  Tags: "outer" for the square boundary, "slit" for both
    sides of the slit.
    """
    if n % 2:
        raise ValueError("n must be even")
    vertices, elements = _unit_square(n)
    half = n // 2
    on_slit = half * (n + 1) + np.arange(half + 1, n + 1)
    dup = np.arange(vertices.shape[0])
    dup[on_slit] = vertices.shape[0] + np.arange(on_slit.size)
    below = slice(0, 2 * n * half)  # the elements of the cell rows below the slit
    elements[below] = dup[elements[below]]
    vertices = np.vstack([vertices, vertices[on_slit]])
    elements = _normalize(vertices, elements)

    bnd = _boundary_sides(elements)
    mid = _side_midpoints(vertices, elements)
    on_outer = np.any((mid < 1e-12) | (mid > 1 - 1e-12), axis=2)
    on_slit = (np.abs(mid[..., 1] - 0.5) < 1e-12) & (mid[..., 0] > 0.5)
    unknown = bnd & ~(on_outer | on_slit)
    if np.any(unknown):
        raise ValueError(f"unclassified boundary edge at {mid[unknown][0]}")
    return Mesh(vertices, elements, np.where(bnd, np.where(on_outer, "outer", "slit"), ""))


def triangle_grid(n, side=2.0):
    """Equilateral triangle cut into n^2 cells, boundary tagged "boundary".

    Row i from the base holds vertices i (n + 1) - i (i - 1) / 2 + j and
    2 (n - i) - 1 cells, pointing up at even and down at odd positions t.
    """
    s = side / n
    i, c = np.triu_indices(n + 1)  # vertex j = c - i of row i
    vertices = np.column_stack([s * (c - 0.5 * i), s * i * np.sqrt(3.0) / 2.0])
    i = np.repeat(np.arange(n), 2 * (n - np.arange(n)) - 1)
    t = np.arange(i.size) - i * (2 * n - i)
    a = i * (n + 1) - i * (i - 1) // 2 + t // 2  # vertex t // 2 of row i
    b = a + n + 1 - i  # the vertex above it in row i + 1
    elements = np.where((t % 2 == 0)[:, None], np.column_stack([a, a + 1, b]),
                        np.column_stack([a + 1, b + 1, b]))
    elements = _normalize(vertices, elements)
    return Mesh(vertices, elements, np.where(_boundary_sides(elements), "boundary", ""))


def triangle_hole_grid():
    """Equilateral triangle of side 2 with a concentric side-1/2 hole.

    Built from the n = 4 structured subdivision with the central upward
    cell removed; outer boundary tagged "outer", hole boundary "hole".
    """
    full = triangle_grid(4)
    centroid = np.array([1.0, np.sqrt(3.0) / 3.0])
    keep = np.linalg.norm(full.centroids() - centroid, axis=1) > 1e-9
    elements = full.elements[keep]
    near = np.linalg.norm(_side_midpoints(full.vertices, elements) - centroid, axis=2) < 0.3
    used = np.unique(elements)
    remap = -np.ones(full.n_vertices, dtype=np.int64)
    remap[used] = np.arange(used.size)
    return Mesh(full.vertices[used], remap[elements],
                np.where(_boundary_sides(elements), np.where(near, "hole", "outer"), ""))
