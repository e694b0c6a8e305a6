"""Legacy ASCII VTK output for meshes with per-element fields.

One file per adaptive step is enough for inspecting refinement
patterns; points are written with a zero third coordinate and all
per-element data goes into CELL_DATA sections.
"""

import numpy as np


def write_vtk(path, mesh, cell_data=None):
    """Write a triangle mesh and per-element scalars to a .vtk file.

    cell_data maps whitespace-free names to 1-D length-n_elements
    arrays (else ValueError, before anything is written); integer
    arrays are written as int scalars, everything else as double.
    """
    cell_data = {name: np.asarray(arr) for name, arr in (cell_data or {}).items()}
    for name, arr in cell_data.items():
        if arr.shape != (mesh.n_elements,):
            raise ValueError(f"cell field {name!r} has wrong length or is not 1-D")
        if name.split() != [name]:
            raise ValueError(f"cell field name {name!r} is empty or has whitespace")
    lines = ["# vtk DataFile Version 3.0", "hpeig step", "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.n_vertices} double"]
    for x, y in mesh.vertices:
        lines.append(f"{x:.17g} {y:.17g} 0")
    lines.append(f"CELLS {mesh.n_elements} {4 * mesh.n_elements}")
    for a, b, c in mesh.elements:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {mesh.n_elements}")
    lines.extend(["5"] * mesh.n_elements)
    if cell_data:
        lines.append(f"CELL_DATA {mesh.n_elements}")
        for name, arr in cell_data.items():
            if np.issubdtype(arr.dtype, np.integer):
                lines.append(f"SCALARS {name} int 1")
                lines.append("LOOKUP_TABLE default")
                lines.extend(str(int(v)) for v in arr)
            else:
                lines.append(f"SCALARS {name} double 1")
                lines.append("LOOKUP_TABLE default")
                lines.extend(f"{float(v):.17g}" for v in arr)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
