"""Benchmark problem definitions: geometry, materials, references.

Each problem pairs a mesh factory with boundary conditions and piecewise
constant materials; its key also names its reference spectrum.  The
checkerboard problems put the contrast on the lower-left and
upper-right quadrants of the unit square.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .assembly import Coefficients
from .mesh import (slit_square_grid, square_grid, triangle_grid,
                   triangle_hole_grid)


def _quadrants(centroids):
    return ((centroids[:, 0] >= 0.5).astype(np.int64)
            + 2 * (centroids[:, 1] >= 0.5).astype(np.int64))


@dataclass(frozen=True)
class ProblemSpec:
    """A named benchmark: mesh builder, boundary data, materials.  The key
    also names its reference spectrum, spectra.registry(key)."""
    key: str
    description: str
    build: object
    default_cells: int
    dirichlet_tags: tuple
    coefficients: Coefficients
    m: int

    @property
    def reference(self):
        return self.key

    def mesh(self, cells=None):
        """Initial mesh with the given (or default) resolution."""
        return self.build(self.default_cells if cells is None else cells)


def _checkerboard(kind, value):
    if kind == "reaction":
        return Coefficients(c=[value, 0.0, 0.0, value])
    eye = np.eye(2)
    return Coefficients(A=[value * eye, eye, eye, value * eye],
                        c=[0.0, 0.0, 0.0, 0.0])


@functools.cache
def _registry():
    sq_q = lambda n: square_grid(n, region_fn=_quadrants)
    tri = lambda n: triangle_grid(n, side=1.0)
    hole = lambda n: triangle_hole_grid()
    return {spec.key: spec for spec in (
        ProblemSpec("square_dirichlet",
                    "Laplacian on the unit square, Dirichlet boundary",
                    square_grid, 4, ("boundary",), Coefficients(), 4),
        ProblemSpec("square_neumann",
                    "Laplacian on the unit square, Neumann boundary",
                    square_grid, 4, (), Coefficients(), 4),
        ProblemSpec("triangle",
                    "Laplacian on the unit equilateral triangle, Dirichlet",
                    tri, 4, ("boundary",), Coefficients(), 4),
        ProblemSpec("triangle_hole",
                    "equilateral triangle, side 2, concentric side-1/2 hole, "
                    "Dirichlet on both boundaries",
                    hole, 0, ("outer", "hole"), Coefficients(), 3),
        ProblemSpec("reaction_kappa10",
                    "checkerboard zero-order term, contrast 10, Neumann",
                    sq_q, 4, (), _checkerboard("reaction", 10.0), 4),
        ProblemSpec("reaction_kappa100",
                    "checkerboard zero-order term, contrast 100, Neumann",
                    sq_q, 4, (), _checkerboard("reaction", 100.0), 4),
        ProblemSpec("diffusion_a10",
                    "checkerboard diffusion, contrast 10, Dirichlet",
                    sq_q, 4, ("boundary",), _checkerboard("diffusion", 10.0), 3),
        ProblemSpec("diffusion_a100",
                    "checkerboard diffusion, contrast 100, Dirichlet",
                    sq_q, 4, ("boundary",), _checkerboard("diffusion", 100.0), 3),
        ProblemSpec("slit_square",
                    "unit square with interior slit, shifted operator, "
                    "Dirichlet outside, Neumann on the slit",
                    slit_square_grid, 4, ("outer",), Coefficients(c=1.0), 4),
    )}


def problem(key):
    """Look up a benchmark by key; raises KeyError with the options."""
    specs = _registry()
    if key not in specs:
        raise KeyError(f"unknown problem {key!r}; choose from "
                       f"{sorted(specs)}")
    return specs[key]


def problem_keys():
    return sorted(_registry())
