"""Each correctness check of the benchmark rejects a perturbed output."""

import copy
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402

REFS, ACCS = checks.references("slit_square", 4)


def _study(n=6):
    steps, rows = [], [checks.csv_header(4)]
    for k in range(n):
        err = 10.0 ** (-1 - k)
        values = [r * (1 + err) for r in REFS]
        steps.append({"dofs": 100 * 2 ** k, "values": values,
                      "residual": 1e-12, "est": 10 * err})
        rows.append([str(k), str(100 * 2 ** k)] + ["0"] * 17)
    return steps, rows


def _run(steps, rows, target=1e-4):
    return checks.check_study(steps, REFS, ACCS, 1e-10, target, rows, 4)


def test_study_checks_pass_on_a_correct_study():
    assert _run(*_study()) == []


@pytest.mark.parametrize("perturb", [
    "below_reference", "rises", "residual", "ratio", "header", "rows",
    "dofs"])
def test_study_checks_reject_perturbations(perturb):
    steps, rows = copy.deepcopy(_study())
    if perturb == "below_reference":
        steps[3]["values"][0] = REFS[0] * (1 - 1e-6)
    elif perturb == "rises":
        steps[3]["values"][2] = steps[2]["values"][2] * (1 + 1e-9)
    elif perturb == "residual":
        steps[4]["residual"] = 2e-10
    elif perturb == "ratio":
        steps[5]["est"] *= 1e3
    elif perturb == "header":
        rows[0][3] = "lambda1"
    elif perturb == "rows":
        rows.pop()
    elif perturb == "dofs":
        rows[2][1] = "7"
    assert _run(steps, rows)


def test_study_checks_reject_an_unreached_target():
    assert _run(*_study(), target=1e-9)


def test_rate_check_band():
    dofs = [100 * 2 ** k for k in range(8)]
    for rate, ok in ((0.5, True), (1.0, False), (0.2, False)):
        steps = [{"dofs": d, "values": [r * (1 + d ** -rate) for r in REFS]}
                 for d in dofs]
        assert (checks.check_rate(steps, REFS, 1, 0.35, 0.75) == []) == ok


def test_closed_form_square():
    vals, _ = checks.square_dirichlet(6)
    assert vals == pytest.approx([math.pi ** 2 * v
                                  for v in (2, 5, 5, 8, 10, 10)], rel=1e-15)


def _oracle_checks(bound=True):
    found = [{"name": "trace_sandwich_lower", "ok": True},
             {"name": "defects_below_one", "ok": True}]
    if bound:
        found.append({"name": "cluster_lower_bound", "ok": True})
    return found


def test_oracle_checks():
    refs, accs = checks.references("square_dirichlet", 4)
    above = [r * 1.001 for r in refs]
    assert checks.check_oracle("sq", _oracle_checks(), above, refs, accs,
                               True) == []
    failed = _oracle_checks()
    failed[1]["ok"] = False
    assert checks.check_oracle("sq", failed, above, refs, accs, True)
    assert checks.check_oracle("sq", _oracle_checks(False), above, refs,
                               accs, True)
    below = list(above)
    below[2] = refs[2] * (1 - 1e-12)
    assert checks.check_oracle("sq", _oracle_checks(), below, refs, accs,
                               True)


def test_reference_checks():
    disk = checks.slit_disk(6)
    assert disk[0] == pytest.approx(7.73333653346596686390263803337,
                                    rel=1e-15)
    found = [{"name": f"slit_disk_k{k}", "got": v, "ok": True}
             for k, v in enumerate(disk, start=1)]
    found.append({"name": "square_first", "got": 1.0, "ok": True})
    assert checks.check_references(found, disk) == []
    perturbed = copy.deepcopy(found)
    perturbed[4]["got"] *= 1 + 1e-10
    assert checks.check_references(perturbed, disk)
    failed = copy.deepcopy(found)
    failed[-1]["ok"] = False
    assert checks.check_references(failed, disk)
    assert checks.check_references(found[1:], disk)
