"""Command line interface.

Subcommands:
  run                run a configured adaptive study, write the CSV log
  verify-references  recompute the reference spectra and check them
  oracle-check       run the defect oracle on a configured problem
  list-problems      print the benchmark registry

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 acceptance-check failure.
"""

import argparse
import sys

import numpy as np

from .adaptivity import solve_cluster
from .config import ConfigError, parse_config
from .defects import _check_coercive, oracle_checks
from .eigensolve import SolverError
from .problems import problem, problem_keys
from .runner import run_study
from .spectra import registry, verify_references

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_CHECK = 4


def _cmd_run(args):
    setup = parse_config(args.config)
    records, _ = run_study(setup, out_path=args.out, vtk_dir=args.vtk_dir)
    final = records[-1]
    values = " ".join(f"{v:.9g}" for v in final.cluster.values)
    print(f"{setup.problem_key}: {len(records)} steps, "
          f"{final.n_dofs} dofs, values [{values}]")
    print(f"wrote {args.out}")
    return EXIT_OK


def _report(checks, detail, what, notes=(), passed=""):
    """Print a line per check (detail formats its fields), the notes and
    the verdict; return the exit code."""
    bad = 0
    for check in checks:
        status = "ok" if check["ok"] else "FAIL"
        print(f"{status:4s} {check['name']}: {detail.format(**check)}")
        bad += not check["ok"]
    for note in notes:
        print(note)
    if bad:
        print(f"{bad} of {len(checks)} {what} checks failed", file=sys.stderr)
        return EXIT_CHECK
    print(f"all {len(checks)} {what} checks passed{passed}")
    return EXIT_OK


def _cmd_verify_references(args):
    return _report(verify_references(),
                   "got {got:.15g}, want {want:.15g} (tol {tol:g})",
                   "reference")


def _cmd_oracle_check(args):
    setup = parse_config(args.config)
    spec = problem(setup.problem_key)
    cfg = setup.config
    handler = setup.handler
    try:
        _check_coercive(handler, spec.coefficients)
    except ValueError as exc:
        print(f"oracle not applicable: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    cluster = solve_cluster(handler, spec.coefficients, cfg)
    vals, _ = registry(spec.reference).flat()
    next_value = vals[cfg.m] if len(vals) > cfg.m else None
    checks, report = oracle_checks(handler, spec.coefficients,
                                   cluster.values, cluster.vectors,
                                   refs=vals[:cfg.m], next_value=next_value)
    notes = ["skip cluster_lower_bound: no reference value beyond the "
             "cluster"] if next_value is None else []
    notes.append(f"defect spectrum: {np.array2string(report.eta2, precision=6)}")
    return _report(checks, "value={value:.6g}, tol={tol:.6g}", "oracle", notes,
                   f" ({handler.n_dofs} dofs, surrogate {report.fine_dofs})")


def _cmd_list_problems(args):
    for key in problem_keys():
        spec = problem(key)
        print(f"{key:20s} m={spec.m}  {spec.description}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hpeig", description="hp-adaptive elliptic eigenvalue solver")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an adaptive study from a config")
    run.add_argument("--config", required=True, help="INI run file")
    run.add_argument("--out", required=True, help="CSV output path")
    run.add_argument("--vtk-dir", default=None,
                     help="directory for per-step VTK snapshots")
    run.set_defaults(func=_cmd_run)

    ver = sub.add_parser("verify-references",
                         help="recompute and check reference spectra")
    ver.set_defaults(func=_cmd_verify_references)

    orc = sub.add_parser("oracle-check",
                         help="defect-oracle checks on a configured problem")
    orc.add_argument("--config", required=True, help="INI run file")
    orc.set_defaults(func=_cmd_oracle_check)

    lst = sub.add_parser("list-problems", help="list benchmark keys")
    lst.set_defaults(func=_cmd_list_problems)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching our config code
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
