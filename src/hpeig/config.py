"""Run configuration from INI files.

A run file has a [problem] section naming the benchmark and optional
[adapt] and [solver] sections overriding the defaults in AdaptConfig.
Unknown sections or keys are rejected so typos fail loudly.  The initial
mesh and space are built once: a grid past 32-bit ids, a mesh the problem's
builder rejects, a mesh or space there is no memory for, or a space under
m dofs fail here.
"""

import configparser
from dataclasses import dataclass, fields

from .adaptivity import AdaptConfig
from .problems import problem
from .space import DofHandler
from .spectra import registry


class ConfigError(ValueError):
    """Raised for unreadable, incomplete or mistyped run files."""


@dataclass(frozen=True)
class RunSetup:
    """A parsed run file: benchmark, adaptation parameters, initial space."""
    problem_key: str
    initial_cells: int
    config: AdaptConfig
    handler: DofHandler


_PROBLEM_KEYS = {"name": str, "initial_cells": int}
# [solver] sets these AdaptConfig fields under shorter keys, [adapt] the rest
_SOLVER_FIELDS = {"tol": "solver_tol", "max_iter": "solver_max_iter", "seed": "seed"}
_FIELD_TYPES = {f.name: f.type for f in fields(AdaptConfig)}
_SOLVER_KEYS = {k: _FIELD_TYPES[f] for k, f in _SOLVER_FIELDS.items()}
_ADAPT_KEYS = {f: t for f, t in _FIELD_TYPES.items()
               if f not in _SOLVER_FIELDS.values()}


def _section(parser, name, allowed):
    if not parser.has_section(name):
        return {}
    out = {}
    for key, raw in parser.items(name):
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in section [{name}]")
        try:
            out[key] = allowed[key](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r} in [{name}]: "
                              f"{raw!r}") from exc
    return out


def parse_config(path):
    """Parse a run file into a RunSetup; raises ConfigError on problems."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    known = {"problem", "adapt", "solver"}
    extra = set(parser.sections()) - known
    if extra:
        raise ConfigError(f"unknown sections {sorted(extra)}")
    if not parser.has_section("problem"):
        raise ConfigError("missing required section [problem]")

    prob = _section(parser, "problem", _PROBLEM_KEYS)
    if "name" not in prob:
        raise ConfigError("[problem] must set name")
    try:
        spec = problem(prob["name"])
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    if "initial_cells" in prob and spec.default_cells == 0:
        raise ConfigError(f"problem {spec.key!r} has a fixed mesh; "
                          "remove initial_cells")
    cells = prob.get("initial_cells", spec.default_cells)
    if "initial_cells" in prob and (cells < 1 or 2 * cells**2 >= 2**31):
        raise ConfigError(f"initial_cells must be >= 1 and its grid's 2 n^2 "
                          f"elements within 32-bit dof ids, got {cells}")

    adapt = _section(parser, "adapt", _ADAPT_KEYS)
    solver = _section(parser, "solver", _SOLVER_KEYS)
    kwargs = {"m": spec.m, **adapt}
    kwargs.update((_SOLVER_FIELDS[k], v) for k, v in solver.items())
    try:
        cfg = AdaptConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        registry(spec.reference).flat(cfg.m)
    except ValueError as exc:
        raise ConfigError(f"reference spectrum {exc}") from exc
    try:
        handler = DofHandler(spec.mesh(cells), cfg.p_init, spec.dirichlet_tags)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"the initial space (initial_cells = {cells}, "
                          f"p_init = {cfg.p_init}): {exc}") from exc
    if handler.n_dofs < cfg.m:
        raise ConfigError(f"the initial space has {handler.n_dofs} dofs, "
                          f"fewer than m = {cfg.m}")
    return RunSetup(problem_key=spec.key, initial_cells=cells, config=cfg,
                    handler=handler)
