"""Run configuration from INI files.

A run file has a [problem] section naming the benchmark and optional
[adapt] and [solver] sections overriding the defaults in AdaptConfig.
Unknown sections or keys are rejected so typos fail loudly.
"""

import configparser
from dataclasses import dataclass

from .adaptivity import AdaptConfig
from .problems import problem
from .spectra import registry


class ConfigError(ValueError):
    """Raised for unreadable, incomplete or mistyped run files."""


@dataclass(frozen=True)
class RunSetup:
    """A parsed run file: the benchmark plus adaptation parameters."""
    problem_key: str
    initial_cells: int
    config: AdaptConfig


_PROBLEM_KEYS = {"name": str, "initial_cells": int}
_ADAPT_KEYS = {"m": int, "theta": float, "sigma0": float, "p_max": int,
               "p_init": int, "dof_budget": int, "mode": str,
               "max_steps": int}
_SOLVER_KEYS = {"tol": float, "max_iter": int, "seed": int}


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
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
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
    if "initial_cells" in prob and cells < 1:
        raise ConfigError(f"initial_cells must be >= 1, got {cells}")

    adapt = _section(parser, "adapt", _ADAPT_KEYS)
    solver = _section(parser, "solver", _SOLVER_KEYS)
    kwargs = {"m": spec.m}
    kwargs.update(adapt)
    kwargs["solver_tol"] = solver.get("tol", 1e-10)
    kwargs["solver_max_iter"] = solver.get("max_iter", 500)
    kwargs["seed"] = solver.get("seed", 0)
    try:
        cfg = AdaptConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    n_refs = len(registry(spec.reference).flat()[0])
    if cfg.m > n_refs:
        raise ConfigError(f"m = {cfg.m} exceeds the {n_refs} reference "
                          f"eigenvalues of problem {spec.key!r}")
    return RunSetup(problem_key=spec.key, initial_cells=cells, config=cfg)
