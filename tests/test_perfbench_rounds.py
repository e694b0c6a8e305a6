"""One round of every benchmark workload passes its own output checks.

`python3 perfbench/run.py` reports `outputs_incorrect` when a round
fails or one of its checks finds a problem.  This runs each round once,
in-process with seed 0, and changes nothing under perfbench/.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.ROUNDS))
def test_round_passes_its_checks(name, tmp_path):
    res = workloads.ROUNDS[name](name, 0, str(tmp_path))
    assert res["failed"] == 0
    assert res["problems"] == []
