"""The four workloads, each one round in the calling (fresh) process.

A round goes through hpeig's public entry points the way the CLI does,
times the set-up (everything before the first call into the solve
path) apart from the solve path, and checks the outputs with `checks`.
Library calls are looked up on their modules at call time so that the
traced mode sees them.

Every round function takes the solver seed, a scratch directory for
the INI and CSV files, and `setup_only`; with `setup_only` it returns
as soon as set-up ends.  It returns a dict with `t_solve` (perf_counter
at the start of the solve path), and unless `setup_only`: `t_end`,
`time_to_tol_s`, `dofs_at_tol`, `ops`, `failed` and `problems` (check
failures).
"""

import csv
import os
import time
import traceback

import numpy as np

import checks

import hpeig.assembly
import hpeig.config
import hpeig.defects
import hpeig.eigensolve
import hpeig.problems
import hpeig.runner
import hpeig.space
import hpeig.spectra

SOLVER_TOL = 1e-10
SLIT_DISK_VALUES = 6  # the slit-disk eigenvalues verify_references covers

# `hpeig run` studies of slit_square.  target is the summed relative
# eigenvalue error that time_to_tol_s waits for; the current code meets
# it about halfway through the run.
STUDIES = {
    "slit_adaptive": {
        "adapt": {"m": 4, "dof_budget": 4000},
        "target": 4e-4,
        "rate": None,
    },
    "h_uniform": {
        "adapt": {"m": 4, "mode": "uniform", "p_init": 2,
                  "dof_budget": 16000},
        "target": 5e-3,
        # mode 2 is singular like r^(1/2): rate 1/2 in dofs at fixed p
        "rate": (1, 0.35, 0.75),
    },
}

# `hpeig oracle-check` runs on fixed-degree spaces
ORACLES = [
    ("square_dirichlet", {"initial_cells": 20}, {"m": 4, "p_init": 3}),
    ("diffusion_a100", {"initial_cells": 20}, {"m": 3, "p_init": 3}),
]


def write_ini(path, problem, seed, problem_keys=None, adapt=None):
    """An hpeig run file with the given sections."""
    lines = ["[problem]", f"name = {problem}"]
    lines += [f"{k} = {v}" for k, v in (problem_keys or {}).items()]
    lines += ["", "[adapt]"]
    lines += [f"{k} = {v}" for k, v in (adapt or {}).items()]
    lines += ["", "[solver]", f"tol = {SOLVER_TOL!r}", f"seed = {seed}", ""]
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    return path


class _SetupDone(Exception):
    pass


def study_round(name, seed, workdir, setup_only=False):
    spec = STUDIES[name]
    ini = write_ini(os.path.join(workdir, f"{name}.ini"), "slit_square",
                    seed, adapt=spec["adapt"])
    out = os.path.join(workdir, f"{name}.csv")
    setup = hpeig.config.parse_config(ini)
    m = setup.config.m
    refs, accs = checks.references(setup.problem_key, m)
    stamps = []

    # run_study reads the clock once before the loop and once per step
    def clock():
        stamps.append(time.perf_counter())
        if setup_only:
            raise _SetupDone
        return stamps[-1]

    try:
        records, _ = hpeig.runner.run_study(setup, out_path=out, clock=clock)
    except _SetupDone:
        return {"t_solve": stamps[0]}
    except Exception:
        traceback.print_exc()
        return {"t_solve": stamps[0] if stamps else time.perf_counter(),
                "t_end": time.perf_counter(), "ops": 1, "failed": 1,
                "problems": []}
    t_end = time.perf_counter()

    steps = [{"dofs": r.n_dofs,
              "values": r.cluster.values.tolist(),
              "residual": float(np.max(r.cluster.residuals)),
              "est": float(r.field.total)} for r in records]
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    problems = checks.check_study(steps, refs, accs, SOLVER_TOL,
                                  spec["target"], rows, m)
    if spec["rate"]:
        mode, lo, hi = spec["rate"]
        problems += checks.check_rate(steps, refs, mode, lo, hi)
    result = {"t_solve": stamps[0], "t_end": t_end, "ops": 1, "failed": 0,
              "problems": problems, "time_to_tol_s": None,
              "dofs_at_tol": None}
    for k, step in enumerate(steps):
        if checks.summed_error(step["values"], refs) <= spec["target"]:
            result["time_to_tol_s"] = stamps[k + 1] - stamps[0]
            result["dofs_at_tol"] = step["dofs"]
            break
    return result


def oracle_round(name, seed, workdir, setup_only=False):
    cases = []
    for key, problem_keys, adapt in ORACLES:
        ini = write_ini(os.path.join(workdir, f"{key}.ini"), key, seed,
                        problem_keys, adapt)
        setup = hpeig.config.parse_config(ini)
        spec = hpeig.problems.problem(setup.problem_key)
        spectrum = hpeig.spectra.registry(spec.reference)
        cases.append((setup, spec, spec.mesh(setup.initial_cells),
                      spectrum.flat(setup.config.m)[0], spectrum.flat()[0]))
    t_solve = time.perf_counter()
    if setup_only:
        return {"t_solve": t_solve}

    problems, failed, dofs = [], 0, 0
    for setup, spec, mesh, refs, all_refs in cases:
        cfg = setup.config
        # the same sequence as `hpeig oracle-check`
        try:
            handler = hpeig.space.DofHandler(
                mesh, np.full(mesh.n_elements, cfg.p_init),
                dirichlet_tags=spec.dirichlet_tags)
            B = hpeig.assembly.assemble_stiffness(handler, spec.coefficients)
            M = hpeig.assembly.assemble_mass(handler)
            shift = 0.0 if spec.dirichlet_tags else -1.0
            cluster = hpeig.eigensolve.solve_lowest(
                B, M, cfg.m, shift=shift, tol=cfg.solver_tol,
                max_iter=cfg.solver_max_iter, seed=cfg.seed)
            next_value = all_refs[cfg.m] if len(all_refs) > cfg.m else None
            found, _ = hpeig.defects.oracle_checks(
                handler, spec.coefficients, cluster.values, cluster.vectors,
                refs=refs, next_value=next_value)
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        own_refs, accs = checks.references(spec.key, cfg.m)
        problems += checks.check_oracle(
            spec.key, found, cluster.values, own_refs, accs,
            need_bound=spec.key == "square_dirichlet")
        dofs += handler.n_dofs
    t_end = time.perf_counter()
    return {"t_solve": t_solve, "t_end": t_end, "ops": len(cases),
            "failed": failed, "problems": problems,
            "time_to_tol_s": t_end - t_solve, "dofs_at_tol": dofs}


def references_round(name, seed, workdir, setup_only=False):
    t_solve = time.perf_counter()
    if setup_only:
        return {"t_solve": t_solve}
    try:
        found = hpeig.spectra.verify_references()
    except Exception:
        traceback.print_exc()
        return {"t_solve": t_solve, "t_end": time.perf_counter(), "ops": 1,
                "failed": 1, "problems": []}
    t_end = time.perf_counter()
    disk = checks.slit_disk(SLIT_DISK_VALUES)
    return {"t_solve": t_solve, "t_end": t_end, "ops": 1, "failed": 0,
            "problems": checks.check_references(found, disk),
            "time_to_tol_s": t_end - t_solve, "dofs_at_tol": len(found)}


ROUNDS = {
    "slit_adaptive": study_round,
    "h_uniform": study_round,
    "oracle": oracle_round,
    "references": references_round,
}
