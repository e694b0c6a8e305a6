import dataclasses

import pytest

from hpeig.adaptivity import AdaptConfig
from hpeig.config import ConfigError, parse_config
from hpeig.problems import problem


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def test_minimal_config_uses_problem_defaults(tmp_path):
    setup = parse_config(write(tmp_path, """
[problem]
name = square_dirichlet
"""))
    assert setup.problem_key == "square_dirichlet"
    assert setup.initial_cells == 4
    assert setup.config.m == 4
    assert setup.config.mode == "adaptive"
    assert setup.config.dof_budget == 30000
    assert setup.config.solver_tol == 1e-10
    # unset [solver] keys take AdaptConfig's defaults
    assert setup.config == AdaptConfig(m=4)


def test_overrides(tmp_path):
    setup = parse_config(write(tmp_path, """
[problem]
name = diffusion_a10
initial_cells = 8

[adapt]
m = 2
theta = 0.5
sigma0 = 0.75
p_max = 6
dof_budget = 1234
mode = uniform
p_init = 1
max_steps = 12

[solver]
tol = 1e-8
max_iter = 99
seed = 7
"""))
    assert setup.initial_cells == 8
    cfg = setup.config
    assert (cfg.m, cfg.theta, cfg.p_max) == (2, 0.5, 6)
    assert (cfg.dof_budget, cfg.mode, cfg.p_init) == (1234, "uniform", 1)
    assert (cfg.sigma0, cfg.max_steps) == (0.75, 12)
    assert (cfg.solver_tol, cfg.solver_max_iter, cfg.seed) == (1e-8, 99, 7)


def test_initial_cells_rejected_for_fixed_mesh(tmp_path):
    with pytest.raises(ConfigError, match="fixed mesh"):
        parse_config(write(tmp_path, """
[problem]
name = triangle_hole
initial_cells = 8
"""))
    setup = parse_config(write(tmp_path, "[problem]\nname = triangle_hole\n"))
    assert setup.initial_cells == 0


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(str(tmp_path / "absent.ini"))


def test_missing_problem_section(tmp_path):
    with pytest.raises(ConfigError, match="problem"):
        parse_config(write(tmp_path, "[adapt]\nm = 4\n"))


def test_missing_name(tmp_path):
    with pytest.raises(ConfigError, match="name"):
        parse_config(write(tmp_path, "[problem]\ninitial_cells = 4\n"))


def test_unknown_problem(tmp_path):
    with pytest.raises(ConfigError, match="unknown problem"):
        parse_config(write(tmp_path, "[problem]\nname = nonsense\n"))


def test_unknown_section(tmp_path):
    with pytest.raises(ConfigError, match="unknown sections"):
        parse_config(write(tmp_path, """
[problem]
name = triangle

[extra]
x = 1
"""))


def test_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(write(tmp_path, """
[problem]
name = triangle

[adapt]
thetta = 0.3
"""))


def test_bad_value(tmp_path):
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(write(tmp_path, """
[problem]
name = triangle

[adapt]
theta = warm
"""))


def test_invalid_adapt_settings_rejected(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, """
[problem]
name = triangle

[adapt]
theta = 1.5
"""))
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, """
[problem]
name = triangle

[adapt]
mode = random
"""))


def test_m_above_reference_count_rejected(tmp_path):
    with pytest.raises(ConfigError, match="reference"):
        parse_config(write(tmp_path, """
[problem]
name = slit_square

[adapt]
m = 8
"""))


@pytest.mark.parametrize("body, match", [
    (b"\xff\xfe[problem]\nname = triangle\n", "cannot parse"),
    (b"[problem]\nname = triangle\n\n[adapt]\ntheta = 30%\n",
     "bad value for 'theta'"),
], ids=["not-utf8", "percent"])
def test_non_utf8_file_and_percent_value_rejected(tmp_path, body, match):
    # values are read literally: a '%' is no interpolation syntax
    path = tmp_path / "run.ini"
    path.write_bytes(body)
    with pytest.raises(ConfigError, match=match):
        parse_config(str(path))


@pytest.mark.parametrize("section, key, value", [
    ("adapt", "max_steps", "0"),
    ("adapt", "dof_budget", "0"),
    ("adapt", "dof_budget", "-5"),
    ("adapt", "sigma0", "nan"),
    ("solver", "max_iter", "0"),
    ("solver", "tol", "0"),
    ("solver", "tol", "-1"),
    ("solver", "tol", "nan"),
    ("solver", "tol", "inf"),
    ("solver", "seed", "-1"),
])
def test_out_of_range_run_settings_rejected(tmp_path, section, key, value):
    with pytest.raises(ConfigError):
        parse_config(write(tmp_path, f"""
[problem]
name = square_dirichlet

[{section}]
{key} = {value}
"""))


@pytest.mark.parametrize("cells", ["0", "-2"])
def test_nonpositive_initial_cells_rejected(tmp_path, cells):
    with pytest.raises(ConfigError, match="initial_cells"):
        parse_config(write(tmp_path, f"""
[problem]
name = square_dirichlet
initial_cells = {cells}
"""))


def test_odd_slit_cells_rejected(tmp_path):
    with pytest.raises(ConfigError, match="even"):
        parse_config(write(tmp_path, """
[problem]
name = slit_square
initial_cells = 3
"""))


def test_initial_space_below_m_dofs_rejected(tmp_path):
    text = """
[problem]
name = square_dirichlet
initial_cells = 1

[adapt]
p_init = {}
"""
    with pytest.raises(ConfigError, match="1 dofs, fewer than m = 4"):
        parse_config(write(tmp_path, text.format(2)))
    # degree 3 gives exactly m = 4 dofs, which is enough
    assert parse_config(write(tmp_path, text.format(3))).config.p_init == 3


def test_initial_cells_beyond_32bit_ids_rejected_before_building(tmp_path,
                                                                 monkeypatch):
    # a grid of 2 n^2 >= 2^31 elements is refused without calling the
    # builder; the largest n below the bound reaches it
    class Built(Exception):
        pass

    def builder(n):
        raise Built(n)

    spec = dataclasses.replace(problem("square_dirichlet"), build=builder)
    monkeypatch.setattr("hpeig.config.problem", lambda key: spec)
    text = "[problem]\nname = square_dirichlet\ninitial_cells = {}\n"
    for cells in (32768, 10**9):
        with pytest.raises(ConfigError, match="32-bit"):
            parse_config(write(tmp_path, text.format(cells)))
    with pytest.raises(Built):
        parse_config(write(tmp_path, text.format(32767)))
