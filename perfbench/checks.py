"""Correctness checks on hpeig outputs, against values made apart from it.

References are closed forms evaluated here, published values restated
here with their stated accuracy, and `mpmath.besseljzero` for the
slit-disk roots.  Every check function takes plain data and returns a
list of messages, one per violation; an empty list means the output
is correct.
"""

import math

import numpy as np


def csv_header(m):
    """The CSV columns the README documents for a cluster of size m."""
    return (["step", "dofs", "sqrt_dofs"]
            + [f"lambda_{i}" for i in range(1, m + 1)]
            + [f"relerr_{i}" for i in range(1, m + 1)]
            + [f"eps2_{i}" for i in range(1, m + 1)]
            + ["total_est", "total_err", "effectivity", "seconds"])


def square_dirichlet(m):
    """Lowest m of pi^2 (i^2 + j^2), i, j >= 1, with multiplicity."""
    vals = sorted(math.pi ** 2 * (i * i + j * j)
                  for i in range(1, m + 2) for j in range(1, m + 2))
    return vals[:m], [1e-14] * m


# published values and their stated relative accuracy
PUBLISHED = {
    "slit_square": ([20.739208802, 34.485320, 50.348022005, 67.581165196],
                    [1e-8, 1e-5, 1e-8, 1e-8]),
    "diffusion_a100": ([77.800981966, 78.564198245, 193.916538067],
                       [1e-8, 1e-8, 1e-8]),
}


def references(key, m):
    """(values, relative accuracies) of the lowest m eigenvalues."""
    if key == "square_dirichlet":
        return square_dirichlet(m)
    vals, accs = PUBLISHED[key]
    return vals[:m], accs[:m]


def slit_disk(count):
    """Lowest slit-disk eigenvalues: sorted squared roots j_{(2k-1)/4, n}."""
    import mpmath

    with mpmath.workdps(30):
        fam = [float(mpmath.besseljzero(mpmath.mpf(2 * k - 1) / 4, n) ** 2)
               for k in range(1, 9) for n in range(1, 5)]
    return sorted(fam)[:count]


def summed_error(values, refs):
    """Sum over modes of |lambda_i - ref_i| / lambda_i."""
    values = np.asarray(values, dtype=float)
    return float(np.sum(np.abs(values - np.asarray(refs)) / values))


def check_study(steps, refs, accs, solver_tol, target, csv_rows, m):
    """Checks on one adaptive study.

    steps: per step a dict with dofs, values, residual (largest
    eigen-residual) and est (estimator total).  csv_rows: the parsed
    CSV, header first.
    """
    bad = []
    refs = np.asarray(refs, dtype=float)
    lower = refs * (1.0 - np.asarray(accs, dtype=float))
    prev = None
    ratios = []
    for k, step in enumerate(steps):
        values = np.asarray(step["values"], dtype=float)
        if np.any(values < lower):
            bad.append(f"step {k}: eigenvalues {values.tolist()} below "
                       "the min-max bound from the references")
        if prev is not None and np.any(values > prev * (1.0 + 1e-12)):
            bad.append(f"step {k}: eigenvalues rose in a nested space")
        if not step["residual"] <= solver_tol:
            bad.append(f"step {k}: residual {step['residual']:.3g} above "
                       f"solver tol {solver_tol:g}")
        ratios.append(summed_error(values, refs) / step["est"])
        prev = values
    if not any(summed_error(s["values"], refs) <= target for s in steps):
        bad.append(f"error target {target:g} not reached")
    if ratios and not (min(ratios) > 0 and max(ratios) / min(ratios) <= 100):
        bad.append(f"error/estimate ratio left a band of 100: "
                   f"[{min(ratios):.3g}, {max(ratios):.3g}]")
    if not csv_rows or csv_rows[0] != csv_header(m):
        bad.append("CSV header differs from the documented one")
    elif len(csv_rows) - 1 != len(steps):
        bad.append(f"CSV has {len(csv_rows) - 1} rows for {len(steps)} steps")
    elif any(int(row[1]) != s["dofs"] for row, s in zip(csv_rows[1:], steps)):
        bad.append("CSV dofs column differs from the computed spaces")
    return bad


def fitted_rate(dofs, errors):
    """Convergence rate: minus the slope of log|error| on log dofs."""
    slope = np.polyfit(np.log(dofs), np.log(np.abs(errors)), 1)[0]
    return float(-slope)


def check_rate(steps, refs, mode, lo, hi):
    """The fitted rate of one mode's relative error lies in [lo, hi]."""
    dofs = [s["dofs"] for s in steps]
    errs = [(s["values"][mode] - refs[mode]) / s["values"][mode]
            for s in steps]
    rate = fitted_rate(dofs, errs)
    if not lo <= rate <= hi:
        return [f"mode {mode + 1} rate {rate:.3f} outside [{lo}, {hi}]"]
    return []


def check_oracle(key, checks, values, refs, accs, need_bound):
    """Every oracle check passed; coarse values above the references."""
    bad = [f"{key}: oracle check {c['name']} failed"
           for c in checks if not c["ok"]]
    if need_bound and not any(c["name"] == "cluster_lower_bound"
                              for c in checks):
        bad.append(f"{key}: cluster lower bound was not checked")
    lower = np.asarray(refs) * (1.0 - np.asarray(accs))
    if np.any(np.asarray(values) < lower):
        bad.append(f"{key}: coarse eigenvalues below the references")
    return bad


def check_references(checks, disk):
    """verify_references() passed and its slit-disk values match disk."""
    bad = [f"reference check {c['name']} failed"
           for c in checks if not c["ok"]]
    got = {c["name"]: c["got"] for c in checks}
    for k, want in enumerate(disk, start=1):
        value = got.get(f"slit_disk_k{k}")
        if value is None or abs(value - want) > 1e-12 * want:
            bad.append(f"slit_disk_k{k} = {value} differs from "
                       f"besseljzero^2 = {want!r}")
    return bad
