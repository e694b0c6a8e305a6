import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hpeig.assembly import (
    Coefficients,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    mass_operator,
    pulled_back_diffusion,
    reference_kernels,
)
from hpeig.basis import tri_shapes
from hpeig.defects import fine_handler
from hpeig.mesh import (Mesh, refine, slit_square_grid, square_grid,
                        triangle_hole_grid)
from hpeig.quadrature import triangle_rule
from hpeig.space import DofHandler

from helpers import (evaluate, reference_element_builders, reference_load,
                     reference_scatter, reference_stiffness_mass)


def quadrant_regions(cents):
    left = cents[:, 0] < 0.5
    low = cents[:, 1] < 0.5
    return ((left & low) | (~left & ~low)).astype(np.int64)


def test_p1_reference_element_matrices():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = Mesh(verts, [[0, 1, 2]], [["b", "b", "b"]])
    h = DofHandler(mesh, 1)
    K = assemble_stiffness(h, Coefficients()).toarray()
    M = assemble_mass(h).toarray()
    K_exact = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    M_exact = np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]) / 24.0
    assert np.allclose(K, K_exact, atol=1e-14)
    assert np.allclose(M, M_exact, atol=1e-15)


def test_energy_identity_against_fine_quadrature():
    mesh = refine(square_grid(2, region_fn=quadrant_regions), [0, 3, 6])
    rng = np.random.default_rng(2)
    degrees = rng.integers(2, 5, size=mesh.n_elements)
    h = DofHandler(mesh, degrees, dirichlet_tags=("boundary",))
    coeffs = Coefficients(A=[np.eye(2), [[10.0, 1.0], [1.0, 2.0]]],
                          c=[0.5, 3.0])
    B = assemble_stiffness(h, coeffs)
    M = assemble_mass(h)

    v = rng.standard_normal(h.n_dofs)

    A_el, c_el = coeffs.on_elements(mesh)
    energy = 0.0
    l2 = 0.0
    for k in range(mesh.n_elements):
        pts, w = triangle_rule(2 * int(degrees[k]) + 6)
        vals = evaluate(h, v, [k], pts)[0]
        grads = evaluate(h, v, [k], pts, deriv=1)[0]
        Ag = grads @ A_el[k].T
        energy += mesh.detJ[k] * np.sum(
            w * (np.sum(Ag * grads, axis=1) + c_el[k] * vals**2))
        l2 += mesh.detJ[k] * np.sum(w * vals**2)

    assert abs(v @ (B @ v) - energy) < 1e-11 * max(1.0, energy)
    assert abs(v @ (M @ v) - l2) < 1e-12 * max(1.0, l2)


def test_load_equals_mass_action():
    mesh = square_grid(3)
    rng = np.random.default_rng(8)
    degrees = rng.integers(1, 5, size=mesh.n_elements)
    h = DofHandler(mesh, degrees, dirichlet_tags=("boundary",))
    M = assemble_mass(h)
    f = rng.standard_normal(h.n_dofs)
    rhs = assemble_load(h, f)
    want = M @ f
    assert np.max(np.abs(rhs - want)) < 1e-13 * max(1.0, np.abs(want).max())


def test_load_checks_vector_length():
    mesh = square_grid(3)
    h = DofHandler(mesh, 2, dirichlet_tags=("boundary",))
    # a vector over every dof, Dirichlet ones included, is too long
    full = np.ones(DofHandler(mesh, 2).n_dofs)
    for coeffs in (full, full[:, None], full[:h.n_dofs - 1],
                   np.ones((h.n_dofs, 3, 1))):
        with pytest.raises(ValueError, match="rows"):
            assemble_load(h, coeffs)


def test_load_on_zero_dof_space_is_empty():
    h = DofHandler(square_grid(1), 1, dirichlet_tags=("boundary",))
    assert h.n_dofs == 0
    assert assemble_load(h, np.zeros(0)).shape == (0,)
    assert assemble_load(h, np.zeros((0, 3))).shape == (0, 3)


def test_stiffness_symmetric_positive():
    mesh = square_grid(3)
    h = DofHandler(mesh, 3, dirichlet_tags=("boundary",))
    B = assemble_stiffness(h, Coefficients(c=1.0))
    assert (B != B.T).nnz == 0
    evals = np.linalg.eigvalsh(B.toarray())
    assert evals.min() > 0


def test_coefficients_validation():
    with pytest.raises(ValueError):
        Coefficients(A=[[1.0, 2.0], [0.0, 1.0]])  # not symmetric
    with pytest.raises(ValueError):
        Coefficients(A=[[1.0, 2.0], [2.0, 1.0]])  # indefinite
    with pytest.raises(ValueError):
        Coefficients(c=-1.0)
    mesh = square_grid(2, region_fn=lambda c: np.arange(len(c)) % 3)
    h = DofHandler(mesh, 1)
    with pytest.raises(ValueError):
        assemble_stiffness(h, Coefficients(c=[1.0, 2.0]))


@given(data=st.data(), regions=st.integers(1, 4))
def test_coefficients_reject_nonfinite(data, regions):
    diag = st.floats(1.0, 10.0)
    A = np.array([np.diag([data.draw(diag), data.draw(diag)])
                  for _ in range(regions)])
    c = np.array([data.draw(st.floats(0.0, 10.0)) for _ in range(regions)])
    flat = np.concatenate([A.ravel(), c])
    for i in data.draw(st.lists(st.integers(0, flat.size - 1), min_size=1,
                                unique=True)):
        flat[i] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(ValueError, match="finite"):
        Coefficients(A=flat[:A.size].reshape(A.shape), c=flat[A.size:])


def row_scaled_error(A, ref, scale):
    """Largest |A - ref| of each row over that row's largest |scale|."""
    err = abs(A - ref).max(axis=1).toarray().ravel()
    return np.max(err / abs(scale).max(axis=1).toarray().ravel(), initial=0.0)


def test_reference_tables_match_einsum():
    for p in range(1, 13):
        pts, w = triangle_rule(2 * p)
        G = tri_shapes(p, pts, nderiv=1)["grad"]
        S = np.einsum("qia,q,qjb->abij", G, w, G)
        size = np.einsum("qia,q,qjb->abij", abs(G), w, abs(G))
        got = reference_kernels(p)["SM"]
        assert np.all(abs(got[:4] - S.reshape(got[:4].shape))
                      <= 1e-15 * size.reshape(got[:4].shape).max())
        assert np.array_equal(got[4], reference_kernels(p)["M"])
    rng = np.random.default_rng(3)
    Jinv = rng.standard_normal((50, 2, 2))
    A = rng.standard_normal((50, 2, 2))
    A = A @ A.transpose(0, 2, 1)
    want = np.einsum("kab,kbc,kdc->kad", Jinv, A, Jinv)
    size = np.einsum("kab,kbc,kdc->kad", abs(Jinv), abs(A), abs(Jinv))
    assert np.all(abs(pulled_back_diffusion(Jinv, A) - want) <= 1e-15 * size)


BASES = {"square": lambda: square_grid(2),
         "slit_square": lambda: slit_square_grid(2),
         "triangle_hole": triangle_hole_grid}


@given(base=st.sampled_from(sorted(BASES)), data=st.data())
def test_assembly_symmetric_and_matches_reference(base, data):
    mesh = BASES[base]()
    for _ in range(data.draw(st.integers(0, 2))):
        mesh = refine(mesh, data.draw(st.lists(
            st.integers(0, mesh.n_elements - 1), max_size=mesh.n_elements)))
    ne = mesh.n_elements
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    regions = data.draw(st.integers(1, 3))
    mesh.region = rng.integers(0, regions, ne)
    # non-diagonal A per region, eigenvalues 10^-2 .. 10^2
    Q = np.linalg.qr(rng.standard_normal((regions, 2, 2)))[0]
    A = Q * 10.0 ** rng.uniform(-2, 2, (regions, 1, 2)) @ Q.transpose(0, 2, 1)
    co = Coefficients(A=0.5 * (A + A.transpose(0, 2, 1)),
                      c=rng.uniform(0, 5, regions))
    tags = [t for t in mesh.tag_names if data.draw(st.booleans())]
    degrees = np.array(data.draw(st.lists(st.integers(1, 10), min_size=ne,
                                          max_size=ne)))
    h = DofHandler(mesh, degrees, tags)
    B, M = assemble_stiffness(h, co), assemble_mass(h)
    for shift in (0.0, -1.0, 2.5):
        assert (B - shift * M != (B - shift * M).T).nnz == 0
    # roundoff scales with the largest term an entry sums, not the entry
    for got, want, size in zip((B, M), reference_stiffness_mass(h, co),
                               reference_stiffness_mass(h, co, True)):
        assert row_scaled_error(got, want, size) <= 1e-15
    # the one-allocation scatter passes the list-and-concatenate path's
    # COO entries in the same order, so the CSR arrays are bitwise equal
    for got, build in zip((B, M), reference_element_builders(h, co)):
        assert_same_csr(got, reference_scatter(h, build))


@given(base=st.sampled_from(sorted(BASES)), data=st.data())
def test_mass_operator_matches_assembled_mass(base, data):
    mesh = BASES[base]()
    for _ in range(data.draw(st.integers(1, 2))):
        mesh = refine(mesh, data.draw(st.lists(
            st.integers(0, mesh.n_elements - 1), min_size=1,
            max_size=mesh.n_elements)))
    degrees = np.array(data.draw(st.lists(
        st.integers(1, 10), min_size=mesh.n_elements,
        max_size=mesh.n_elements)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    k = data.draw(st.integers(2, 6))
    # pure Neumann, then every boundary Dirichlet
    for tags in ((), mesh.tag_names):
        h = DofHandler(mesh, degrees, tags)
        M, op = assemble_mass(h), mass_operator(h)
        assert op.shape == M.shape and h.n_dofs > 0
        for shape in ((h.n_dofs,), (h.n_dofs, 1), (h.n_dofs, k)):
            x = rng.standard_normal(shape)
            got, want = op @ x, M @ x
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part


def test_assembly_on_zero_dof_space_matches_reference():
    h = DofHandler(square_grid(1), 1, dirichlet_tags=("boundary",))
    co = Coefficients(c=1.0)
    for got, build in zip((assemble_stiffness(h, co), assemble_mass(h)),
                          reference_element_builders(h, co)):
        assert got.shape == (0, 0)
        assert_same_csr(got, reference_scatter(h, build))
    for shape in ((0,), (0, 3)):
        got = mass_operator(h) @ np.zeros(shape)
        assert got.shape == shape and got.dtype == float


def test_assembly_peak_memory_within_four_times_result():
    # the defect oracle's 19,801-dof surrogate: a p = 3 square_grid(20)
    # space bisected once at degree 5.  tracemalloc counts numpy's
    # allocations exactly, so the ratio repeats run to run.
    h = fine_handler(DofHandler(square_grid(20), 3, ("boundary",)))
    assert h.n_dofs == 19801
    co = Coefficients(c=1.0)
    for assemble in (lambda: assemble_stiffness(h, co),
                     lambda: assemble_mass(h)):
        assemble()  # reference tables cached outside the count
        tracemalloc.start()
        try:
            A = assemble()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
        assert peak <= 4.0 * size, peak / size


def test_stiffness_and_mass_share_one_pattern():
    mesh = refine(square_grid(3), [0, 5, 11])
    rng = np.random.default_rng(6)
    mesh.region = rng.integers(0, 2, mesh.n_elements)
    h = DofHandler(mesh, rng.integers(1, 6, mesh.n_elements), ("boundary",))
    M = assemble_mass(h)
    for co in (Coefficients(), Coefficients(c=2.0),
               Coefficients(A=[np.eye(2), [[10.0, 1.0], [1.0, 2.0]]],
                            c=[0.0, 3.0])):
        B = assemble_stiffness(h, co)
        assert np.array_equal(B.indptr, M.indptr)
        assert np.array_equal(B.indices, M.indices)
    # at p = 1 on right triangles, A = I and c = 0 give exact zeros on
    # the diagonal edges: kept here, dropped by a global A + A^T
    h1 = DofHandler(square_grid(3), 1)
    B = assemble_stiffness(h1, Coefficients())
    assert np.count_nonzero(B.data == 0) > 0
    assert B.nnz == assemble_mass(h1).nnz
    assert reference_stiffness_mass(h1, Coefficients())[0].nnz < B.nnz


@pytest.mark.parametrize("shape", [(), (1,), (4,)])
def test_load_matches_einsum_reference(shape):
    mesh = refine(slit_square_grid(2), [1, 4, 6])
    rng = np.random.default_rng(9)
    h = DofHandler(mesh, rng.integers(1, 11, mesh.n_elements), ("outer",))
    f = rng.standard_normal((h.n_dofs,) + shape)
    got, want = assemble_load(h, f), reference_load(h, f)
    assert got.shape == want.shape == f.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.abs(want).max()
