"""The names the benchmark's tracer wraps still resolve in every caller.

perfbench/spans.py patches each TARGETS entry in the namespaces of the
modules that call it; a rename or a dropped import would make
`--trace 1` fail or silently stop counting.  This reads TARGETS and
changes nothing.
"""

import ast
import importlib
import os

import pytest
import scipy.sparse.linalg

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "spans.py")


def _targets():
    with open(SPANS) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("no TARGETS in perfbench/spans.py")


@pytest.mark.parametrize("name, home, attr, callers", _targets(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_span_targets_resolve_in_callers(name, home, attr, callers):
    defined = getattr(importlib.import_module(f"hpeig.{home}"), attr)
    for caller in callers:
        module = importlib.import_module(f"hpeig.{caller}")
        assert getattr(module, attr) is defined, f"{name} in {caller}"


def test_superlu_names_stay_traceable():
    # install() wraps defects.splu and scipy.sparse.linalg.splu, which
    # eigensolve looks up at call time; a module-level splu binding in
    # eigensolve would escape the wrapper
    defects = importlib.import_module("hpeig.defects")
    eigensolve = importlib.import_module("hpeig.eigensolve")
    assert defects.splu is scipy.sparse.linalg.splu
    assert not hasattr(eigensolve, "splu")
