"""Adaptive study driver: runs a benchmark and writes a CSV log.

One CSV row per adaptive step with the cluster values, per-mode
relative errors against the reference spectrum, per-mode indicator
totals, the value-weighted estimator and error totals, and wall time.
The clock is injectable so reruns with a fake clock are byte
identical.
"""

import csv
import os
import time

import numpy as np

from .adaptivity import adapt_loop
from .config import ConfigError
from .estimator import effectivity, total_error
from .problems import problem
from .spectra import registry
from .vtkio import write_vtk


def csv_header(m):
    """Column names for a cluster of size m."""
    cols = ["step", "dofs", "sqrt_dofs"]
    cols += [f"lambda_{i + 1}" for i in range(m)]
    cols += [f"relerr_{i + 1}" for i in range(m)]
    cols += [f"eps2_{i + 1}" for i in range(m)]
    cols += ["total_est", "total_err", "effectivity", "seconds"]
    return cols


def _fmt(x):
    return f"{float(x):.17g}"


def study_rows(record, refs, seconds):
    """Format one ConvergenceRecord as a CSV row (list of strings)."""
    values = record.cluster.values
    field = record.field
    row = [str(record.step), str(record.n_dofs), _fmt(np.sqrt(record.n_dofs))]
    row += [_fmt(v) for v in values]
    row += [_fmt((v - r) / v) if inc else ""
            for v, r, inc in zip(values, refs, field.included)]
    row += [_fmt(e) for e in field.mode_totals]
    row.append(_fmt(field.total))
    if field.included.any():
        row.append(_fmt(total_error(values, refs, field.included)))
        eff = effectivity(field, refs)
        row.append("" if np.isnan(eff) else _fmt(eff))
    else:
        row += ["", ""]
    row.append(_fmt(seconds))
    return row


def run_study(setup, out_path=None, vtk_dir=None, clock=None):
    """Run a configured study; returns (records, rows).

    setup is a RunSetup; out_path, when given, gets the CSV header before
    the first solve and each row as its step ends (a failed study keeps
    them), vtk_dir one mesh snapshot per step; an unwritable path is a
    ConfigError before the first solve.  clock defaults to perf_counter.
    """
    clock = clock or time.perf_counter
    spec = problem(setup.problem_key)
    refs, _ = registry(spec.reference).flat(setup.config.m)
    try:
        if vtk_dir is not None:
            os.makedirs(vtk_dir, exist_ok=True)
        fh = open(out_path or os.devnull, "w", newline="", buffering=1)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    with fh:
        writer = csv.writer(fh)
        writer.writerow(csv_header(setup.config.m))
        records, rows = [], []
        last = clock()
        for record in adapt_loop(setup.handler, spec.coefficients,
                                 setup.config):
            now = clock()
            rows.append(study_rows(record, refs, now - last))
            writer.writerow(rows[-1])
            last = now
            records.append(record)
            if vtk_dir is not None:
                write_vtk(os.path.join(vtk_dir, f"step_{record.step:03d}.vtk"),
                          record.handler.mesh,
                          {"region": record.handler.mesh.region,
                           "degree": record.handler.degrees,
                           "indicator": record.field.element_totals})
    return records, rows
