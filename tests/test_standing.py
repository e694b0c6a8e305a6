"""standing/check.py: one small study, one oracle config and
verify-references as a record.

The full standing run stays out of tier-1, because its digits depend on
the CPU; this makes the record of a config directory of its own and
checks its shape, its JSON text and the comparison.
"""

import importlib.util
import json
import os

from hpeig.runner import csv_header

CHECK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "standing", "check.py")


def _check_module():
    spec = importlib.util.spec_from_file_location("standing_check", CHECK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_standing_record_shape(tmp_path):
    (tmp_path / "studies").mkdir()
    (tmp_path / "oracle").mkdir()
    (tmp_path / "studies" / "small.ini").write_text(
        "[problem]\nname = square_dirichlet\n\n[adapt]\ndof_budget = 200\n")
    (tmp_path / "oracle" / "coarse.ini").write_text(
        "[problem]\nname = square_dirichlet\n")
    check = _check_module()
    record = check.make_record(str(tmp_path))
    assert json.loads(check.dumps(record)) == record
    assert list(record) == ["studies", "oracle", "references"]

    study = record["studies"]["small"]
    assert (study["exit"], study["stderr"]) == (0, "")
    dofs = study["n_dofs"]
    assert len(dofs) >= 2 and dofs == sorted(dofs) and dofs[-1] >= 200
    assert list(study["columns"]) == csv_header(4)[:-1]  # all but seconds
    assert study["columns"]["dofs"] == [str(n) for n in dofs]
    assert all(len(col) == len(dofs) for col in study["columns"].values())

    oracle = record["oracle"]["coarse"]
    assert (oracle["exit"], oracle["stderr"]) == (0, "")
    assert "oracle checks passed" in oracle["stdout"]
    references = record["references"]["verify-references"]
    assert (references["exit"], references["stderr"]) == (0, "")
    assert "reference checks passed" in references["stdout"]

    assert check.compare(record, record) == []
    older = {k: v for k, v in record.items() if k != "references"}
    assert check.compare(older, record) == [
        "references verify-references: only in the new record"]
    moved = json.loads(json.dumps(record))
    moved["studies"]["small"]["columns"]["lambda_1"][-1] = "1"
    moved["oracle"]["coarse"]["exit"] = 4
    moved["references"]["verify-references"]["stderr"] = "late\n"
    assert check.compare(record, moved) == [
        "studies small:",
        f"  lambda_1: 1 of {len(dofs)} rows moved (first at step "
        f"{len(dofs) - 1}), largest relative move "
        f"{abs(1 / float(study['columns']['lambda_1'][-1]) - 1):.2g}",
        "oracle coarse:", "  exit 0 -> 4",
        "references verify-references:", "  stderr +late"]
