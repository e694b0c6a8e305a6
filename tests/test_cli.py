import numpy as np
import pytest

import hpeig.cli as cli
from hpeig.eigensolve import SolverError


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
    ("adapt", "sigma0 = nan"),
    ("solver", "max_iter = 0"),
    ("solver", "tol = 0"),
    ("solver", "tol = -1"),
    ("solver", "tol = nan"),
    ("solver", "seed = -1"),
    ("problem", "initial_cells = 0"),
    ("problem", "initial_cells = -2"),
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


def test_run_missing_config(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "none.ini"),
                     "--out", str(tmp_path / "x.csv")]) == 2


def test_run_solver_failure(tmp_path, capsys, monkeypatch):
    def boom(*a, **kw):
        raise SolverError("did not converge")
    monkeypatch.setattr("hpeig.adaptivity.solve_lowest", boom)
    cfg = write_config(tmp_path, SMALL)
    assert cli.main(["run", "--config", cfg,
                     "--out", str(tmp_path / "x.csv")]) == 3
    assert "solver failure" in capsys.readouterr().err


def test_verify_references_ok(capsys):
    assert cli.main(["verify-references"]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "passed" in out
    assert "FAIL" not in out


def test_verify_references_failure_exit(capsys, monkeypatch):
    bad = [{"name": "broken", "got": 1.0, "want": 2.0, "tol": 0.1,
            "ok": False}]
    monkeypatch.setattr(cli, "verify_references", lambda: bad)
    assert cli.main(["verify-references"]) == 4
    assert "FAIL broken" in capsys.readouterr().out


def test_oracle_check_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    assert cli.main(["oracle-check", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "trace_sandwich_lower" in out
    assert "cluster_lower_bound" in out
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


def test_usage_error_exit_code():
    assert cli.main(["no-such-command"]) == 2


def test_entry_point_installed():
    import shutil
    import subprocess
    exe = shutil.which("hpeig")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "list-problems"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert "square_dirichlet" in proc.stdout
