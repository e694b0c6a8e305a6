"""End-to-end acceptance runs over the benchmark suite.

Each test covers one headline capability: reference-value verification,
adaptive convergence on smooth and singular problems, discontinuous
coefficients, estimator effectivity, and the defect-oracle machinery.
The square and triangle studies are module-scoped so the convergence
and effectivity tests share a single run.
"""
import time

import numpy as np
import pytest

from hpeig.adaptivity import AdaptConfig, adapt_loop
from hpeig.assembly import assemble_mass, assemble_stiffness
from hpeig.defects import (asymptotic_ratio, cluster_bound_check,
                           fine_handler, oracle_checks, prolong,
                           sin_theta_hs)
from hpeig.eigensolve import solve_lowest
from hpeig.estimator import estimate
from hpeig.problems import problem
from hpeig.space import DofHandler
from hpeig.spectra import registry, verify_references

RESOLVABLE = 1e-12  # below this the exact error is roundoff noise


def _run_study(key, cfg, cells=None):
    spec = problem(key)
    refs = np.array(registry(spec.reference).flat(cfg.m)[0])
    steps = []
    t0 = time.perf_counter()
    handler = DofHandler(spec.mesh(cells), cfg.p_init, spec.dirichlet_tags)
    for rec in adapt_loop(handler, spec.coefficients, cfg):
        values = rec.cluster.values.copy()
        rel = (values - refs) / values
        steps.append({"dofs": rec.n_dofs, "values": values, "rel": rel,
                      "err": float(rel.sum()),
                      "est": rec.field.total,
                      "p_max": int(rec.handler.degrees.max())})
    return {"steps": steps, "refs": refs,
            "seconds": time.perf_counter() - t0}


def _r_squared(steps):
    errs = np.array([abs(s["err"]) for s in steps])
    sqd = np.sqrt([s["dofs"] for s in steps])
    mask = errs > RESOLVABLE
    y = np.log(errs[mask])
    A = np.vstack([sqd[mask], np.ones(int(mask.sum()))]).T
    _, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return 1.0 - float(res[0]) / ss_tot if res.size else 1.0


@pytest.fixture(scope="module")
def square_study():
    return _run_study("square_dirichlet", AdaptConfig(m=4, dof_budget=30000),
                      cells=4)


@pytest.fixture(scope="module")
def triangle_study():
    cfg = AdaptConfig(m=4, theta=1.0, sigma0=1.5, dof_budget=30000)
    return _run_study("triangle", cfg, cells=4)


@pytest.fixture(scope="module")
def oracle_sequence():
    """Fixed degree 2, cluster of 4, on 4x4, 8x8, 16x16 square grids."""
    spec = problem("square_dirichlet")
    refs5 = np.array(registry(spec.reference).flat(5)[0])
    refs, next_value = refs5[:4], float(refs5[4])
    levels = []
    t0 = time.perf_counter()
    for n in (4, 8, 16):
        handler = DofHandler(spec.mesh(n), 2, spec.dirichlet_tags)
        B = assemble_stiffness(handler, spec.coefficients)
        M = assemble_mass(handler)
        cl = solve_lowest(B, M, 4)
        checks, report = oracle_checks(handler, spec.coefficients,
                                       cl.values, cl.vectors,
                                       refs=refs, next_value=next_value)
        bound = cluster_bound_check(report, refs, next_value)

        fine = fine_handler(handler)
        Bf = assemble_stiffness(fine, spec.coefficients)
        Mf = assemble_mass(fine)
        clf = solve_lowest(Bf, Mf, 4)
        angle = sin_theta_hs(Mf, prolong(handler, fine, cl.vectors),
                             clf.vectors)
        field = estimate(handler, cl.vectors, cl.values, spec.coefficients)
        levels.append({"n": n, "checks": checks, "bound": bound,
                       "ratio": asymptotic_ratio(report, refs),
                       "angle": angle, "est": field.total})
    return {"levels": levels, "seconds": time.perf_counter() - t0}


def test_reference_spectra_verify():
    t0 = time.perf_counter()
    checks = verify_references()
    seconds = time.perf_counter() - t0
    by_name = {c["name"]: c for c in checks}
    for k in range(1, 7):
        c = by_name[f"slit_disk_k{k}"]
        assert c["tol"] <= 1e-11 and c["ok"], c
    bad = [c["name"] for c in checks if not c["ok"]]
    assert not bad, f"failed reference checks: {bad}"
    assert seconds < 5.0, f"verification took {seconds:.1f}s"
    print(f"PASS reference verification: {len(checks)} checks ok "
          f"in {seconds:.2f}s")


def test_square_adaptive_convergence(square_study):
    steps = square_study["steps"]
    best = min(abs(s["err"]) for s in steps)
    r2 = _r_squared(steps)
    seconds = square_study["seconds"]
    assert steps[-1]["dofs"] <= 2 * 30000
    assert best <= 1e-7, f"best total relative error {best:.2e}"
    assert r2 >= 0.9, f"log(error) vs sqrt(dofs) fit R^2={r2:.3f}"
    assert seconds <= 120.0, f"run took {seconds:.1f}s"
    print(f"PASS square adaptive: best sum relerr={best:.2e} "
          f"R^2={r2:.3f} {seconds:.1f}s")


def test_triangle_adaptive_convergence(triangle_study):
    steps = triangle_study["steps"]
    best = min(abs(s["err"]) for s in steps)
    r2 = _r_squared(steps)
    seconds = triangle_study["seconds"]
    assert best <= 1e-7, f"best total relative error {best:.2e}"
    assert r2 >= 0.9, f"log(error) vs sqrt(dofs) fit R^2={r2:.3f}"
    assert seconds <= 120.0, f"run took {seconds:.1f}s"

    spreads = []
    for s in steps:
        rel = np.abs(s["rel"])
        if rel.min() > RESOLVABLE:
            spreads.append(float(rel.max() / rel.min()))
    worst = max(spreads)
    n_over = sum(1 for s in spreads if s > 10.0)
    print(f"triangle adaptive: best sum relerr={best:.2e} R^2={r2:.3f} "
          f"{seconds:.1f}s worst per-mode spread={worst:.1f} "
          f"({n_over}/{len(spreads)} steps above one decade)")
    assert worst <= 10.0, (
        f"per-mode relative errors span a factor {worst:.1f} (> 10) at "
        f"{n_over}/{len(spreads)} resolvable steps.  This is structural: "
        "for this cluster (multipliers 3, 7, 7, 12 of a common factor) "
        "the spread under refinement at effective degree p approaches "
        "(lam_4/lam_1)^p = 4^p, measured 4.0 / 15.9 / 63.5 / 255 at "
        "p = 1..4 under uniform bisection.  Reaching sum relerr 1e-7 "
        "within 30000 dofs requires effective degree >= 2, hence a "
        "spread >= ~14.  The per-mode error curves are parallel (equal "
        "decay rates, constant vertical offsets) but more than one "
        "decade apart; no marking or degree schedule tested gets below "
        "13.1 while still converging to 1e-7."
    )


def test_slit_square_singular_mode():
    spec = problem("slit_square")
    refs = np.array(registry(spec.reference).flat(4)[0])
    t0 = time.perf_counter()

    best_rel2 = np.inf
    dominated = True
    cfg = AdaptConfig(m=4, dof_budget=9000)
    handler = DofHandler(spec.mesh(), cfg.p_init, spec.dirichlet_tags)
    for rec in adapt_loop(handler, spec.coefficients, cfg):
        rel = np.abs((rec.cluster.values - refs) / rec.cluster.values)
        best_rel2 = min(best_rel2, rel[1])
        if rel[1] <= max(rel[0], rel[2], rel[3]):
            dominated = False

    rates = []
    cfg_u = AdaptConfig(m=4, mode="uniform", p_init=1, dof_budget=6000)
    handler = DofHandler(spec.mesh(), cfg_u.p_init, spec.dirichlet_tags)
    for rec in adapt_loop(handler, spec.coefficients, cfg_u):
        rel2 = abs((rec.cluster.values[1] - refs[1]) / rec.cluster.values[1])
        rates.append((rec.n_dofs, rel2))
    dofs = np.log([d for d, _ in rates])
    errs = np.log([e for _, e in rates])
    slope = np.polyfit(dofs, errs, 1)[0]
    seconds = time.perf_counter() - t0

    assert best_rel2 <= 1e-5, f"second-mode relative error {best_rel2:.2e}"
    assert dominated, "second mode did not dominate at every step"
    assert 0.35 <= -slope <= 0.75, f"uniform p=1 rate {-slope:.3f}"
    assert seconds <= 300.0, f"runs took {seconds:.1f}s"
    print(f"PASS slit square: rel2={best_rel2:.2e} dominant at every "
          f"step, uniform rate {-slope:.3f}, {seconds:.1f}s")


def test_slit_square_dof_path():
    # the standing result check: any change to marking, the hp decision,
    # refinement or numbering that moves this study shows here
    spec = problem("slit_square")
    cfg = AdaptConfig(m=4, dof_budget=4000)
    handler = DofHandler(spec.mesh(), cfg.p_init, spec.dirichlet_tags)
    records = list(adapt_loop(handler, spec.coefficients, cfg))
    assert [rec.n_dofs for rec in records] == [
        52, 72, 97, 145, 230, 390, 577, 706, 946, 1141, 1440, 1751, 2089,
        2455, 2826, 3241, 3691, 4158]
    # and the estimator along it: a change beyond rounding shows here
    np.testing.assert_allclose([rec.field.total for rec in records], [
        2.137848989934971, 1.304560985199945, 0.7763997546692046,
        0.40001102317355886, 0.18432791751058922, 0.10217919786535297,
        0.05928285663576115, 0.038693654464162695, 0.022680666315258724,
        0.015612702859006155, 0.010292239958030167, 0.006900681656744075,
        0.00485179314255838, 0.0034474890443959853, 0.002424749697748474,
        0.0017232959155943522, 0.001212205966932278, 0.0008615758662196634],
        rtol=1e-10, atol=0)


def test_slit_square_uniform_dof_path():
    # the standing uniform path (the h_uniform benchmark workload):
    # every element bisected each step at p = 2
    spec = problem("slit_square")
    cfg = AdaptConfig(m=4, mode="uniform", p_init=2, dof_budget=16000)
    handler = DofHandler(spec.mesh(), cfg.p_init, spec.dirichlet_tags)
    records = list(adapt_loop(handler, spec.coefficients, cfg))
    assert [rec.n_dofs for rec in records] == [
        52, 116, 232, 488, 976, 2000, 4000, 8096, 16192]
    np.testing.assert_allclose([rec.field.total for rec in records], [
        2.137848989934971, 0.612393829629199, 0.29482291189261467,
        0.15095005914195428, 0.10061583790958438, 0.063855971586708,
        0.0467363207928815, 0.030965098503837583, 0.023056175497778258],
        rtol=1e-10, atol=0)


def test_discontinuous_coefficients():
    outcomes = []
    for key, budget, tol in (("reaction_kappa10", 4000, 1e-6),
                             ("diffusion_a100", 8000, 1e-5)):
        spec = problem(key)
        refs = np.array(registry(spec.reference).flat(spec.m)[0])
        cfg = AdaptConfig(m=spec.m, dof_budget=budget)
        t0 = time.perf_counter()
        rec = None
        handler = DofHandler(spec.mesh(), cfg.p_init, spec.dirichlet_tags)
        for rec in adapt_loop(handler, spec.coefficients, cfg):
            pass
        seconds = time.perf_counter() - t0
        worst = float(np.max(np.abs((rec.cluster.values - refs) / refs)))
        assert worst <= tol, f"{key}: worst relative error {worst:.2e}"
        assert seconds <= 300.0, f"{key} took {seconds:.1f}s"
        outcomes.append(f"{key} worst={worst:.2e} ({seconds:.1f}s)")
    print("PASS discontinuous coefficients: " + "; ".join(outcomes))


def test_effectivity_stability(square_study, triangle_study):
    notes = []
    for name, study in (("square", square_study),
                        ("triangle", triangle_study)):
        effs, p_maxes = [], []
        for s in study["steps"]:
            if s["err"] > RESOLVABLE and s["est"] > 0.0:
                effs.append(s["err"] / s["est"])
                p_maxes.append(s["p_max"])
        effs = np.array(effs)
        band = float(effs.max() / effs.min())
        assert band <= 100.0, f"{name}: effectivity band ratio {band:.1f}"
        worst_drift = 1.0
        for t in range(len(effs) - 1):
            growth = p_maxes[t + 1] / p_maxes[t]
            allowed = max(growth, 1.0) ** 3 * np.sqrt(10.0)
            drift = effs[t + 1] / effs[t]
            drift = max(drift, 1.0 / drift)
            worst_drift = max(worst_drift, drift / allowed)
            assert 1.0 / allowed <= effs[t + 1] / effs[t] <= allowed, (
                f"{name} step {t}: effectivity drift {drift:.2f} exceeds "
                f"degree-growth bound {allowed:.2f}")
        notes.append(f"{name} band={band:.2f} "
                     f"worst drift/allowance={worst_drift:.2f}")
    print("PASS effectivity stability: " + "; ".join(notes))


def test_defect_oracle_sandwich_and_bound(oracle_sequence):
    levels = oracle_sequence["levels"]
    seconds = oracle_sequence["seconds"]
    for lev in levels:
        bad = [c["name"] for c in lev["checks"] if not c["ok"]]
        assert not bad, f"n={lev['n']}: failed oracle checks {bad}"
        b = lev["bound"]
        assert b["ok"], (f"n={lev['n']}: lower bound {b['lhs']:.3e} "
                         f"exceeds error sum {b['rhs']:.3e}")
    assert levels[-1]["bound"]["hypothesis"], \
        "separation hypothesis fails at the finest level"
    assert seconds <= 60.0, f"oracle sequence took {seconds:.1f}s"
    quot = [lev["bound"]["lhs"] / lev["bound"]["rhs"] for lev in levels]
    print(f"PASS defect oracle: bound holds at all levels "
          f"(lhs/rhs = {', '.join(f'{q:.3f}' for q in quot)}), "
          f"{seconds:.1f}s")


def test_defect_error_ratio(oracle_sequence):
    ratio = oracle_sequence["levels"][-1]["ratio"]
    assert 0.5 <= ratio <= 2.0, f"defect/error ratio {ratio:.3f}"
    print(f"PASS defect/error ratio at finest level: {ratio:.3f}")


def test_subspace_angle_decay(oracle_sequence):
    levels = oracle_sequence["levels"]
    angles = [lev["angle"] for lev in levels]
    for t in range(len(angles) - 1):
        assert angles[t + 1] <= 1.1 * angles[t], (
            f"sin-theta did not decrease: {angles[t]:.3e} -> "
            f"{angles[t + 1]:.3e}")
    ratios = np.array([lev["angle"] / np.sqrt(lev["est"])
                       for lev in levels])
    band = float(ratios.max() / ratios.min())
    assert band <= 10.0, f"angle/estimate ratio band {band:.2f}"
    print(f"PASS subspace angles: "
          f"{' -> '.join(f'{a:.3e}' for a in angles)}, "
          f"ratio band {band:.2f}")
