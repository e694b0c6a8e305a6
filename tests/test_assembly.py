import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hpeig.assembly import (
    Coefficients,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
)
from hpeig.mesh import Mesh, refine, square_grid
from hpeig.quadrature import triangle_rule
from hpeig.space import DofHandler

from helpers import evaluate


def quadrant_regions(cents):
    left = cents[:, 0] < 0.5
    low = cents[:, 1] < 0.5
    return ((left & low) | (~left & ~low)).astype(np.int64)


def test_p1_reference_element_matrices():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mesh = Mesh(verts, [[0, 1, 2]], {(0, 1): "b", (1, 2): "b", (0, 2): "b"})
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
    maps = mesh.maps()
    energy = 0.0
    l2 = 0.0
    for k in range(mesh.n_elements):
        pts, w = triangle_rule(2 * int(degrees[k]) + 6)
        vals = evaluate(h, v, [k], pts)[0]
        grads = evaluate(h, v, [k], pts, deriv=1)[0]
        Ag = grads @ A_el[k].T
        energy += maps["detJ"][k] * np.sum(
            w * (np.sum(Ag * grads, axis=1) + c_el[k] * vals**2))
        l2 += maps["detJ"][k] * np.sum(w * vals**2)

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
    for coeffs in (full, full[:, None], full[:h.n_dofs - 1]):
        with pytest.raises(ValueError, match="rows"):
            assemble_load(h, coeffs)


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
