import dataclasses

import numpy as np
import pytest

import hpeig.cli as cli
from hpeig.eigensolve import SolverError
from hpeig.problems import problem


def write_config(tmp_path, body):
    path = tmp_path / "run.ini"
    path.write_text(body)
    return str(path)


SMALL = """
[problem]
name = square_dirichlet

[adapt]
dof_budget = 300
"""


def test_list_problems(capsys):
    assert cli.main(["list-problems"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 9
    assert "slit_square" in out and "reaction_kappa100" in out


def test_run_small_study(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "log.csv"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert out.exists()
    head = out.read_text().splitlines()[0]
    assert head.startswith("step,dofs,sqrt_dofs,lambda_1")
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("out, vtk_dir", [("absent/x.csv", None),
                                          ("x.csv", "taken")])
def test_run_unwritable_output_exits_2_before_solving(tmp_path, capsys,
                                                     monkeypatch, out, vtk_dir):
    def boom(*a, **kw):
        raise AssertionError("solved before checking the output paths")
    monkeypatch.setattr("hpeig.adaptivity.solve_lowest", boom)
    (tmp_path / "taken").write_text("")
    argv = ["run", "--config", write_config(tmp_path, SMALL),
            "--out", str(tmp_path / out)]
    if vtk_dir:
        argv += ["--vtk-dir", str(tmp_path / vtk_dir)]
    assert cli.main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_run_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "[problem]\nname = bogus\n")
    assert cli.main(["run", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_m_above_references_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "[problem]\nname = slit_square\n\n"
                                 "[adapt]\nm = 8\n")
    assert cli.main(["run", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("section, setting", [
    ("adapt", "max_steps = 0"),
    ("adapt", "dof_budget = 0"),
    ("adapt", "dof_budget = -5"),
    ("adapt", "sigma0 = nan"),
    ("solver", "max_iter = 0"),
    ("solver", "tol = 0"),
    ("solver", "tol = -1"),
    ("solver", "tol = nan"),
    ("solver", "seed = -1"),
    ("problem", "initial_cells = 0"),
    ("problem", "initial_cells = -2"),
    # the mesh's first array, 8 PB of grid coordinates, cannot be allocated
    ("problem", f"initial_cells = {10**15}"),
    # the space's first array, 11 PiB of dof ids, cannot be allocated
    pytest.param("adapt", "p_init = 10000000\np_max = 10000000",
                 id="adapt-p_init = p_max = 10000000"),
])
def test_run_out_of_range_setting_exits_2(tmp_path, capsys, section, setting):
    # [problem] settings join the name line; a second [problem] header
    # would be a parse error of its own
    head = "" if section == "problem" else f"\n[{section}]"
    cfg = write_config(tmp_path, "[problem]\nname = square_dirichlet\n"
                                 f"{head}\n{setting}\n")
    assert cli.main(["run", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["run", "oracle-check"])
@pytest.mark.parametrize("body, message", [
    (b"\xff\xfe[problem]\nname = square_dirichlet\n", "cannot parse"),
    (b"[problem]\nname = square_dirichlet\n\n[adapt]\ntheta = 30%\n",
     "bad value for 'theta'"),
], ids=["not-utf8", "percent"])
def test_non_utf8_file_and_percent_value_exit_2(tmp_path, capsys, command,
                                               body, message):
    path = tmp_path / "run.ini"
    path.write_bytes(body)
    argv = [command, "--config", str(path)]
    if command == "run":
        argv += ["--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "x.csv").exists()


TINY_SPACE = """
[problem]
name = square_dirichlet
initial_cells = 1

[adapt]
p_init = 2
"""


@pytest.mark.parametrize("body", [
    "[problem]\nname = slit_square\ninitial_cells = 3\n", TINY_SPACE])
def test_run_unbuildable_initial_space_exits_2(tmp_path, capsys, body):
    cfg = write_config(tmp_path, body)
    assert cli.main(["run", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["run", "oracle-check"])
def test_initial_cells_beyond_32bit_ids_exits_2(tmp_path, capsys, monkeypatch,
                                                command):
    def never(n):
        raise AssertionError("the mesh builder ran")
    spec = dataclasses.replace(problem("square_dirichlet"), build=never)
    monkeypatch.setattr("hpeig.config.problem", lambda key: spec)
    argv = [command, "--config", write_config(
        tmp_path, "[problem]\nname = square_dirichlet\ninitial_cells = 1000000000\n")]
    if command == "run":
        argv += ["--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 2
    assert "32-bit dof ids" in capsys.readouterr().err


def test_run_missing_config(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "none.ini"),
                     "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("command", ["run", "oracle-check"])
def test_run_solver_failure(tmp_path, capsys, monkeypatch, command):
    def boom(*a, **kw):
        raise SolverError("did not converge")
    monkeypatch.setattr("hpeig.adaptivity.solve_lowest", boom)
    argv = [command, "--config", write_config(tmp_path, SMALL)]
    if command == "run":
        argv += ["--out", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 3
    assert "solver failure: did not converge" in capsys.readouterr().err


def test_verify_references_ok(capsys):
    assert cli.main(["verify-references"]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "passed" in out
    assert "FAIL" not in out


def test_verify_references_failure_exit(capsys, monkeypatch):
    bad = [{"name": "fine", "got": 3.0, "want": 3.0, "tol": 1e-12,
            "ok": True},
           {"name": "broken", "got": 1.0, "want": 2.0, "tol": 0.1,
            "ok": False}]
    monkeypatch.setattr(cli, "verify_references", lambda: bad)
    assert cli.main(["verify-references"]) == 4
    assert capsys.readouterr() == (
        "ok   fine: got 3, want 3 (tol 1e-12)\n"
        "FAIL broken: got 1, want 2 (tol 0.1)\n",
        "1 of 2 reference checks failed\n")


def test_oracle_check_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    assert cli.main(["oracle-check", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "trace_sandwich_lower" in out
    assert "cluster_lower_bound" in out
    assert "skip" not in out
    assert "oracle checks passed" in out


def test_oracle_check_says_when_it_skips_the_cluster_bound(tmp_path, capsys):
    # reaction_kappa10 lists exactly m reference values
    cfg = write_config(tmp_path, "[problem]\nname = reaction_kappa10\n")
    assert cli.main(["oracle-check", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert ("skip cluster_lower_bound: no reference value beyond the cluster"
            in out.splitlines())
    assert "oracle checks passed" in out


def test_oracle_check_failure_exit(tmp_path, capsys, monkeypatch):
    def rigged(*a, **kw):
        return ([{"name": "rigged", "value": 2.0, "tol": 1.0, "ok": False}],
                type("R", (), {"eta2": np.zeros(1), "fine_dofs": 0})())
    monkeypatch.setattr(cli, "oracle_checks", rigged)
    cfg = write_config(tmp_path, SMALL)
    assert cli.main(["oracle-check", "--config", cfg]) == 4
    assert "oracle checks failed" in capsys.readouterr().err


def test_oracle_check_not_coercive(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[problem]
name = square_neumann
""")
    assert cli.main(["oracle-check", "--config", cfg]) == 2
    assert "not applicable" in capsys.readouterr().err


def test_oracle_check_not_coercive_exits_2_before_solving(tmp_path, capsys,
                                                          monkeypatch):
    def boom(*a, **kw):
        raise SolverError("did not converge")
    monkeypatch.setattr("hpeig.adaptivity.solve_lowest", boom)
    cfg = write_config(tmp_path, "[problem]\nname = square_neumann\n")
    assert cli.main(["oracle-check", "--config", cfg]) == 2
    assert "oracle not applicable" in capsys.readouterr().err


def test_oracle_check_space_below_m_dofs_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY_SPACE)
    assert cli.main(["oracle-check", "--config", cfg]) == 2
    assert "fewer than m" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert cli.main(["no-such-command"]) == 2


def test_entry_point_installed():
    # the console script where it is installed, else the module run from
    # the directory this hpeig was imported from
    import os
    import shutil
    import subprocess
    import sys
    exe = shutil.which("hpeig")
    env = None
    if exe is None:
        argv = [sys.executable, "-m", "hpeig.cli", "list-problems"]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(
            os.path.dirname(os.path.abspath(cli.__file__)))}
    else:
        argv = [exe, "list-problems"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "square_dirichlet" in proc.stdout
