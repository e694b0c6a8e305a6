import numpy as np
import pytest

from hpeig.assembly import assemble_mass, assemble_stiffness
from hpeig.eigensolve import solve_lowest
from hpeig.problems import problem, problem_keys
from hpeig.space import DofHandler
from hpeig.spectra import registry


def test_registry_keys():
    keys = problem_keys()
    assert len(keys) == 9
    assert "square_dirichlet" in keys
    assert "slit_square" in keys
    for key in keys:
        # the key names the reference spectrum, and every key has one
        assert problem(key).key == problem(key).reference == key
        assert registry(key).name == key
    with pytest.raises(KeyError):
        problem("no_such_problem")


def test_every_problem_has_enough_references():
    for key in problem_keys():
        spec = problem(key)
        vals, accs = registry(spec.reference).flat(spec.m)
        assert len(vals) == spec.m
        assert spec.mesh().n_elements > 0


def test_checkerboard_regions():
    spec = problem("reaction_kappa10")
    mesh = spec.mesh(4)
    A_el, c_el = spec.coefficients.on_elements(mesh)
    cx = mesh.vertices[mesh.elements].mean(axis=1)
    on_diag = (cx[:, 0] >= 0.5) == (cx[:, 1] >= 0.5)
    assert np.all(c_el[on_diag] == 10.0)
    assert np.all(c_el[~on_diag] == 0.0)
    assert np.allclose(A_el, np.eye(2)[None])

    spec = problem("diffusion_a100")
    A_el, c_el = spec.coefficients.on_elements(mesh)
    assert np.all(c_el == 0.0)
    assert np.allclose(A_el[on_diag], 100.0 * np.eye(2)[None])
    assert np.allclose(A_el[~on_diag], np.eye(2)[None])


def test_slit_problem_shape():
    spec = problem("slit_square")
    mesh = spec.mesh()
    assert spec.dirichlet_tags == ("outer",)
    _, c_el = spec.coefficients.on_elements(mesh)
    assert np.all(c_el == 1.0)


# coarse p=3 solves must already sit within a percent-scale band of the
# published values; this pins mesh, tags and materials per problem
@pytest.mark.parametrize("key,band", [
    ("square_dirichlet", 5e-3),
    ("square_neumann", 1e-4),
    ("triangle", 5e-2),
    ("triangle_hole", 5e-2),
    ("reaction_kappa10", 1e-4),
    ("reaction_kappa100", 5e-3),
    ("diffusion_a10", 2e-2),
    ("diffusion_a100", 5e-2),
    ("slit_square", 5e-2),
])
def test_coarse_spectrum_matches_reference(key, band):
    spec = problem(key)
    mesh = spec.mesh()
    handler = DofHandler(mesh, np.full(mesh.n_elements, 3),
                         dirichlet_tags=spec.dirichlet_tags)
    B = assemble_stiffness(handler, spec.coefficients)
    M = assemble_mass(handler)
    shift = 0.0 if spec.dirichlet_tags else -1.0
    cluster = solve_lowest(B, M, spec.m, shift=shift)
    refs, _ = registry(spec.reference).flat(spec.m)
    for value, ref in zip(cluster.values, refs):
        if abs(ref) < 1e-12:
            assert abs(value) < 1e-8
        else:
            # Ritz values approach from above
            assert value - ref > -1e-8 * abs(ref)
            assert abs(value - ref) <= band * abs(ref)
