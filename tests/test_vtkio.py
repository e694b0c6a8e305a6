import numpy as np
import pytest

from hpeig.mesh import Mesh, square_grid
from hpeig.vtkio import write_vtk


def _two_triangles():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    elems = np.array([[0, 1, 2], [0, 2, 3]])
    return Mesh(verts, elems, [["b", "", "b"], ["b", "b", ""]])


def test_file_structure(tmp_path):
    mesh = _two_triangles()
    path = tmp_path / "out.vtk"
    write_vtk(str(path), mesh,
              {"degree": np.array([2, 3]),
               "indicator": np.array([0.5, 0.25])})
    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert lines[4] == "POINTS 4 double"
    pts = [list(map(float, lines[5 + i].split())) for i in range(4)]
    assert np.allclose(pts, np.hstack([mesh.vertices, np.zeros((4, 1))]))
    assert lines[9] == "CELLS 2 8"
    assert lines[10].split() == ["3", "0", "1", "2"]
    assert lines[11].split() == ["3", "0", "2", "3"]
    assert lines[12] == "CELL_TYPES 2"
    assert lines[13] == lines[14] == "5"
    assert lines[15] == "CELL_DATA 2"
    assert lines[16] == "SCALARS degree int 1"
    assert lines[17] == "LOOKUP_TABLE default"
    assert [lines[18], lines[19]] == ["2", "3"]
    assert lines[20] == "SCALARS indicator double 1"
    assert [float(lines[22]), float(lines[23])] == [0.5, 0.25]


def test_no_cell_data(tmp_path):
    mesh = square_grid(2)
    path = tmp_path / "plain.vtk"
    write_vtk(str(path), mesh)
    text = path.read_text()
    assert "CELL_DATA" not in text
    assert f"CELLS {mesh.n_elements} {4 * mesh.n_elements}" in text


def test_wrong_length_rejected(tmp_path):
    mesh = _two_triangles()
    with pytest.raises(ValueError, match="wrong length"):
        write_vtk(str(tmp_path / "bad.vtk"), mesh, {"f": np.zeros(3)})


@pytest.mark.parametrize("field", [np.zeros((2, 2)), np.zeros((2, 1)), np.float64(1.0)])
def test_field_not_1d_rejected_before_writing(tmp_path, field):
    path = tmp_path / "bad.vtk"
    with pytest.raises(ValueError, match="not 1-D"):
        write_vtk(str(path), _two_triangles(), {"f": field})
    assert not path.exists()


@pytest.mark.parametrize("name", ["my field", "tab\tname", "line\n", ""])
def test_field_name_with_whitespace_rejected_before_writing(tmp_path, name):
    path = tmp_path / "bad.vtk"
    with pytest.raises(ValueError, match="whitespace"):
        write_vtk(str(path), _two_triangles(), {name: np.zeros(2)})
    assert not path.exists()
