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
"""

import numpy as np

# local edge l is opposite local vertex l, same convention as the basis
LOCAL_EDGES = ((1, 2), (2, 0), (0, 1))


def _pair(a, b):
    return (a, b) if a < b else (b, a)


class Mesh:
    """Immutable conforming triangle mesh.

    Parameters
    ----------
    vertices : ndarray (nv, 2)
    elements : ndarray (ne, 3)
        Positively oriented; refinement edge (v0, v1), peak v2.
    boundary_tags : dict
        Maps sorted vertex pairs of boundary edges to tag strings.
        Every boundary edge must be tagged.
    region : ndarray (ne,), optional
        Integer material region per element, default 0.
    parent : ndarray (ne,), optional
        Element id in the mesh this one was refined from (identity for
        meshes built from scratch).
    level : ndarray (ne,), optional
        Bisection generation count.
    """

    def __init__(self, vertices, elements, boundary_tags, region=None,
                 parent=None, level=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.elements = np.asarray(elements, dtype=np.int64)
        ne = self.elements.shape[0]
        self.region = (np.zeros(ne, dtype=np.int64) if region is None
                       else np.asarray(region, dtype=np.int64))
        self.parent = (np.arange(ne, dtype=np.int64) if parent is None
                       else np.asarray(parent, dtype=np.int64))
        self.level = (np.zeros(ne, dtype=np.int64) if level is None
                      else np.asarray(level, dtype=np.int64))

        v = self.vertices[self.elements]
        d1 = v[:, 1] - v[:, 0]
        d2 = v[:, 2] - v[:, 0]
        sign = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        if np.any(sign <= 0):
            bad = int(np.argmin(sign))
            raise ValueError(f"element {bad} is not positively oriented")
        self.area = 0.5 * sign

        # edge table
        edge_index = {}
        elem_edges = np.empty((ne, 3), dtype=np.int64)
        edge_list = []
        for k in range(ne):
            tri = self.elements[k]
            for l, (a, b) in enumerate(LOCAL_EDGES):
                key = _pair(tri[a], tri[b])
                e = edge_index.get(key)
                if e is None:
                    e = len(edge_list)
                    edge_index[key] = e
                    edge_list.append(key)
                elem_edges[k, l] = e
        self.edges = np.array(edge_list, dtype=np.int64)
        self.elem_edges = elem_edges
        nE = len(edge_list)

        self.edge_elems = np.full((nE, 2), -1, dtype=np.int64)
        self.edge_local = np.full((nE, 2), -1, dtype=np.int64)
        for k in range(ne):
            for l in range(3):
                e = elem_edges[k, l]
                if self.edge_elems[e, 0] < 0:
                    self.edge_elems[e, 0] = k
                    self.edge_local[e, 0] = l
                elif self.edge_elems[e, 1] < 0:
                    self.edge_elems[e, 1] = k
                    self.edge_local[e, 1] = l
                else:
                    raise ValueError(f"edge {e} has more than two elements")

        boundary = self.edge_elems[:, 1] < 0
        self.tag_names = sorted(set(boundary_tags.values()))
        tag_id = {t: i for i, t in enumerate(self.tag_names)}
        self.edge_tag = np.full(nE, -1, dtype=np.int64)
        for key, tag in boundary_tags.items():
            e = edge_index.get(_pair(*key))
            if e is None:
                raise ValueError(f"tagged edge {key} not in mesh")
            if not boundary[e]:
                raise ValueError(f"tagged edge {key} is interior")
            self.edge_tag[e] = tag_id[tag]
        if np.any(boundary & (self.edge_tag < 0)):
            e = int(np.nonzero(boundary & (self.edge_tag < 0))[0][0])
            raise ValueError(f"boundary edge {tuple(self.edges[e])} has no tag")

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

    def maps(self):
        """Affine reference maps: dict with J (ne,2,2), detJ, Jinv."""
        if not hasattr(self, "_maps"):
            v = self.vertices[self.elements]
            J = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)
            detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
            Jinv = np.empty_like(J)
            Jinv[:, 0, 0] = J[:, 1, 1] / detJ
            Jinv[:, 0, 1] = -J[:, 0, 1] / detJ
            Jinv[:, 1, 0] = -J[:, 1, 0] / detJ
            Jinv[:, 1, 1] = J[:, 0, 0] / detJ
            self._maps = {"J": J, "detJ": detJ, "Jinv": Jinv, "origin": v[:, 0]}
        return self._maps

    def shape_regularity(self):
        """max over elements of h(K)^2 / area(K)."""
        return float(np.max(self.h**2 / self.area))

    def edges_with_tag(self, tag):
        if tag not in self.tag_names:
            return np.empty(0, dtype=np.int64)
        return np.nonzero(self.edge_tag == self.tag_names.index(tag))[0]

    def edge_kinds(self, dirichlet_tags):
        """Classify edges: 0 interior, 1 Dirichlet, 2 Neumann."""
        kinds = np.zeros(self.n_edges, dtype=np.int64)
        boundary = self.boundary_mask
        kinds[boundary] = 2
        for tag in dirichlet_tags:
            kinds[self.edges_with_tag(tag)] = 1
        return kinds

    def boundary_tag_dict(self):
        out = {}
        for e in np.nonzero(self.boundary_mask)[0]:
            out[tuple(self.edges[e])] = self.tag_names[self.edge_tag[e]]
        return out


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
    input mesh are preserved.
    """
    marked = np.asarray(marked, dtype=np.int64)
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
    nv = mesh.n_vertices
    midpoints = 0.5 * (mesh.vertices[mesh.edges[split_ids, 0]]
                       + mesh.vertices[mesh.edges[split_ids, 1]])
    mids = {}
    for i, e in enumerate(split_ids):
        a, b = mesh.edges[e]
        mids[_pair(a, b)] = nv + i
    vertices = np.vstack([mesh.vertices, midpoints])

    new_elems = []
    new_region = []
    new_parent = []
    new_level = []

    def split(v0, v1, v2, lvl, parent_id, region_id):
        m = mids.get(_pair(v0, v1))
        if m is None:
            new_elems.append((v0, v1, v2))
            new_region.append(region_id)
            new_parent.append(parent_id)
            new_level.append(lvl)
            return
        split(v2, v0, m, lvl + 1, parent_id, region_id)
        split(v1, v2, m, lvl + 1, parent_id, region_id)

    for k in range(mesh.n_elements):
        v0, v1, v2 = mesh.elements[k]
        split(v0, v1, v2, int(mesh.level[k]), k, int(mesh.region[k]))

    tags = {}
    for (a, b), tag in mesh.boundary_tag_dict().items():
        m = mids.get(_pair(a, b))
        if m is None:
            tags[_pair(a, b)] = tag
        else:
            tags[_pair(a, m)] = tag
            tags[_pair(m, b)] = tag

    return Mesh(vertices, np.array(new_elems, dtype=np.int64), tags,
                region=np.array(new_region, dtype=np.int64),
                parent=np.array(new_parent, dtype=np.int64),
                level=np.array(new_level, dtype=np.int64))


def uniform_refine(mesh, times=1):
    for _ in range(times):
        mesh = refine(mesh, np.arange(mesh.n_elements))
    return mesh


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


def square_grid(n, region_fn=None, tag="boundary"):
    """Right-triangle grid on the unit square, n x n cells, 2 n^2 elements."""
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    elements = []
    for j in range(n):
        for i in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            elements.append((a, b, c))
            elements.append((a, c, d))
    elements = _normalize(vertices, elements)

    mesh_tmp = Mesh(vertices, elements, _grid_boundary_tags(vertices, elements, tag))
    region = None
    if region_fn is not None:
        region = region_fn(mesh_tmp.centroids())
    return Mesh(vertices, elements, _grid_boundary_tags(vertices, elements, tag),
                region=region)


def _boundary_pairs(elements):
    count = {}
    for tri in elements:
        for a, b in LOCAL_EDGES:
            key = _pair(tri[a], tri[b])
            count[key] = count.get(key, 0) + 1
    return [k for k, c in count.items() if c == 1]


def _grid_boundary_tags(vertices, elements, tag):
    return {key: tag for key in _boundary_pairs(elements)}


def slit_square_grid(n):
    """Unit square with an interior slit from (1/2, 1/2) to (1, 1/2).

    n must be even.  Vertices on the open slit (and its endpoint on the
    outer boundary) are duplicated; elements below the slit use the
    duplicates.  Tags: "outer" for the square boundary, "slit" for both
    sides of the slit.
    """
    if n % 2:
        raise ValueError("n must be even")
    xs = np.linspace(0.0, 1.0, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    half = n // 2
    dup = {}
    extra = []
    for i in range(half + 1, n + 1):
        dup[vid(i, half)] = vertices.shape[0] + len(extra)
        extra.append(vertices[vid(i, half)])
    vertices = np.vstack([vertices, np.array(extra)])

    elements = []
    for j in range(n):
        for i in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            for tri in ((a, b, c), (a, c, d)):
                if j < half:
                    tri = tuple(dup.get(v, v) for v in tri)
                elements.append(tri)
    elements = _normalize(vertices, elements)

    tags = {}
    for a, b in _boundary_pairs(elements):
        mid = 0.5 * (vertices[a] + vertices[b])
        on_outer = (mid[0] < 1e-12 or mid[0] > 1 - 1e-12
                    or mid[1] < 1e-12 or mid[1] > 1 - 1e-12)
        if on_outer:
            tags[_pair(a, b)] = "outer"
        elif abs(mid[1] - 0.5) < 1e-12 and mid[0] > 0.5:
            tags[_pair(a, b)] = "slit"
        else:
            raise ValueError(f"unclassified boundary edge at {mid}")
    return Mesh(vertices, elements, tags)


def triangle_grid(n, side=2.0, tag="boundary"):
    """Structured subdivision of an equilateral triangle into n^2 cells."""
    s = side / n
    rows = []
    verts = []
    for i in range(n + 1):
        row = []
        for j in range(n + 1 - i):
            row.append(len(verts))
            verts.append((s * (j + 0.5 * i), s * i * np.sqrt(3.0) / 2.0))
        rows.append(row)
    vertices = np.array(verts)

    elements = []
    for i in range(n):
        for j in range(n - i):
            elements.append((rows[i][j], rows[i][j + 1], rows[i + 1][j]))
            if j < n - i - 1:
                elements.append((rows[i][j + 1], rows[i + 1][j + 1], rows[i + 1][j]))
    elements = _normalize(vertices, elements)
    return Mesh(vertices, elements, _grid_boundary_tags(vertices, elements, tag))


def triangle_hole_grid():
    """Equilateral triangle of side 2 with a concentric side-1/2 hole.

    Built from the n = 4 structured subdivision with the central upward
    cell removed; outer boundary tagged "outer", hole boundary "hole".
    """
    full = triangle_grid(4)
    vertices = full.vertices
    centroid = np.array([1.0, np.sqrt(3.0) / 3.0])
    cents = full.centroids()
    keep = np.linalg.norm(cents - centroid, axis=1) > 1e-9
    elements = full.elements[keep]

    tags = {}
    for a, b in _boundary_pairs(elements):
        mid = 0.5 * (vertices[a] + vertices[b])
        if np.linalg.norm(mid - centroid) < 0.3:
            tags[_pair(a, b)] = "hole"
        else:
            tags[_pair(a, b)] = "outer"
    used = np.unique(elements)
    remap = -np.ones(vertices.shape[0], dtype=np.int64)
    remap[used] = np.arange(used.size)
    elements = remap[elements]
    tags = {_pair(remap[a], remap[b]): t for (a, b), t in tags.items()}
    return Mesh(vertices[used], elements, tags)


def build_mesh(geometry, **params):
    """Dispatch on geometry name: square, slit_square, triangle, triangle_hole."""
    builders = {
        "square": square_grid,
        "slit_square": slit_square_grid,
        "triangle": triangle_grid,
        "triangle_hole": triangle_hole_grid,
    }
    if geometry not in builders:
        raise ValueError(f"unknown geometry {geometry!r}")
    return builders[geometry](**params)
