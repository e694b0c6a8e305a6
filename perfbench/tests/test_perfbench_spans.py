"""Self-time accounting of the benchmark's span recorder."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import spans  # noqa: E402


def test_self_time_subtracts_direct_children():
    tree = [
        ["study", 0.0, 10.0, -1],
        ["estimate", 1.0, 4.0, 0],
        ["tri_shapes", 2.0, 3.0, 1],
        ["solve", 5.0, 9.0, 0],
        ["splu", 5.5, 6.5, 3],
        ["estimate", 9.5, 9.9, 0],
    ]
    table = spans.self_times(tree)
    assert table["study"] == pytest.approx((1, 10.0, 10.0 - 3.0 - 4.0 - 0.4))
    assert table["estimate"] == pytest.approx((2, 3.4, 2.0 + 0.4))
    assert table["tri_shapes"] == pytest.approx((1, 1.0, 1.0))
    assert table["solve"] == pytest.approx((1, 4.0, 3.0))
    assert table["splu"] == pytest.approx((1, 1.0, 1.0))
    total_self = sum(row[2] for row in table.values())
    assert total_self == pytest.approx(10.0)


def test_tracer_records_parents_and_closes_on_error():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)

    def fail():
        raise ValueError("boom")

    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    failing = tracer.wrap("failing", fail)
    assert outer(1) == 4
    with pytest.raises(ValueError):
        failing()
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("failing", -1)]
    assert all(s[2] is not None and s[2] > s[1] for s in tracer.spans)
    assert tracer._stack == []


def test_per_layer_covers_the_declared_metrics():
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    produced = set(spans.per_layer(spans.Tracer())) | {"trace.overhead_s"}
    assert produced == declared
