import csv
import math

import numpy as np
import pytest

import hpeig.cli as cli
from hpeig import adaptivity
from hpeig.adaptivity import AdaptConfig
from hpeig.config import RunSetup
from hpeig.eigensolve import SolverError
from hpeig.problems import problem
from hpeig.runner import csv_header, run_study
from hpeig.space import DofHandler
from hpeig.spectra import registry


def _setup(key, m, budget, **kw):
    cfg = AdaptConfig(m=m, dof_budget=budget, **kw)
    spec = problem(key)
    handler = DofHandler(spec.mesh(4), cfg.p_init, spec.dirichlet_tags)
    return RunSetup(problem_key=key, initial_cells=4, config=cfg,
                    handler=handler)


class FakeClock:
    """Deterministic stand-in for perf_counter: 0, 1, 2, ..."""

    def __init__(self):
        self.t = -1.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_header_layout():
    cols = csv_header(2)
    assert cols == ["step", "dofs", "sqrt_dofs", "lambda_1", "lambda_2",
                    "relerr_1", "relerr_2", "eps2_1", "eps2_2",
                    "total_est", "total_err", "effectivity", "seconds"]


def test_square_study_csv(tmp_path):
    out = tmp_path / "square.csv"
    records, rows = run_study(_setup("square_dirichlet", 4, 500),
                              out_path=str(out), clock=FakeClock())
    with open(out, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == csv_header(4)
    assert len(table) == len(records) + 1
    refs, _ = registry("square_dirichlet").flat(4)
    for row, record in zip(table[1:], records):
        vals = dict(zip(table[0], row))
        assert int(vals["step"]) == record.step
        assert int(vals["dofs"]) == record.n_dofs
        assert math.isclose(float(vals["sqrt_dofs"]),
                            math.sqrt(record.n_dofs))
        lam = [float(vals[f"lambda_{i}"]) for i in range(1, 5)]
        assert np.allclose(lam, record.cluster.values)
        rel = [float(vals[f"relerr_{i}"]) for i in range(1, 5)]
        want = [(v - r) / v for v, r in zip(lam, refs)]
        assert np.allclose(rel, want)
        assert math.isclose(float(vals["total_est"]), record.field.total)
        assert math.isclose(float(vals["total_err"]), sum(rel),
                            rel_tol=1e-12)
        assert math.isclose(float(vals["effectivity"]),
                            sum(rel) / record.field.total, rel_tol=1e-12)
        assert float(vals["seconds"]) == 1.0
    # dofs must grow to the budget and the error must drop
    dofs = [r.n_dofs for r in records]
    assert all(b > a for a, b in zip(dofs, dofs[1:]))
    assert dofs[-1] >= 500
    first = float(table[1][table[0].index("total_err")])
    last = float(table[-1][table[0].index("total_err")])
    assert last < 0.1 * first


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    setup = _setup("slit_square", 4, 400)
    run_study(setup, out_path=str(a), clock=FakeClock())
    run_study(setup, out_path=str(b), clock=FakeClock())
    assert a.read_bytes() == b.read_bytes()


def test_zero_mode_blank_relerr(tmp_path):
    out = tmp_path / "neumann.csv"
    run_study(_setup("square_neumann", 4, 300), out_path=str(out),
              clock=FakeClock())
    with open(out, newline="") as fh:
        table = list(csv.reader(fh))
    head = table[0]
    for row in table[1:]:
        vals = dict(zip(head, row))
        assert vals["relerr_1"] == ""
        assert vals["relerr_2"] != ""
        assert abs(float(vals["lambda_1"])) < 1e-6
        # totals skip the excluded zero mode but stay well defined
        assert float(vals["total_err"]) > 0


def test_vtk_snapshots(tmp_path):
    vtk = tmp_path / "vtk"
    records, _ = run_study(_setup("square_dirichlet", 4, 200),
                           vtk_dir=str(vtk), clock=FakeClock())
    files = sorted(p.name for p in vtk.iterdir())
    assert files == [f"step_{r.step:03d}.vtk" for r in records]
    text = (vtk / files[-1]).read_text()
    mesh = records[-1].handler.mesh
    assert f"POINTS {mesh.n_vertices} double" in text
    assert f"CELL_DATA {mesh.n_elements}" in text
    assert "SCALARS degree int 1" in text
    assert "SCALARS indicator double 1" in text


def _fail_on_call(monkeypatch, n):
    """Make the n-th solve_cluster call of adapt_loop raise SolverError."""
    solve, calls = adaptivity.solve_cluster, []

    def failing(*args, **kwargs):
        calls.append(None)
        if len(calls) == n:
            raise SolverError("injected failure")
        return solve(*args, **kwargs)
    monkeypatch.setattr(adaptivity, "solve_cluster", failing)


def test_a_failed_study_keeps_its_finished_rows(tmp_path, monkeypatch,
                                                capsys):
    setup = _setup("square_dirichlet", 4, 3000)
    full, cut = tmp_path / "full.csv", tmp_path / "cut.csv"
    run_study(setup, out_path=str(full), clock=FakeClock())
    lines = full.read_bytes().splitlines(keepends=True)
    assert len(lines) > 5
    # step 3's solve fails: the header and the rows of steps 0-2 stay
    _fail_on_call(monkeypatch, 4)
    with pytest.raises(SolverError, match="injected failure"):
        run_study(setup, out_path=str(cut), clock=FakeClock())
    assert cut.read_bytes() == b"".join(lines[:4])
    # the same study through hpeig run exits 3 with the same rows, whose
    # seconds column reads the real clock
    cfg = tmp_path / "run.ini"
    cfg.write_text("[problem]\nname = square_dirichlet\n\n"
                   "[adapt]\ndof_budget = 3000\n")
    _fail_on_call(monkeypatch, 4)
    assert cli.main(["run", "--config", str(cfg), "--out", str(cut)]) == 3
    assert "injected failure" in capsys.readouterr().err
    got = [row.rsplit(b",", 1)[0] for row in cut.read_bytes().splitlines()]
    assert got == [row.rsplit(b",", 1)[0] for row in lines[:4]]
