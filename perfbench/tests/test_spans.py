"""Self-time arithmetic and the wrapping of amp's layers."""

from pathlib import Path

import pytest

import amp.cli
import amp.csm
import amp.projection
import amp.psm
from perfbench import spans


def span(name, start, end, parent=-1, op="op", raised=False):
    return [name, start, end, parent, op, raised]


def test_self_time_subtracts_only_covered_child_time():
    tree = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 3.0, 0),
        span("c", 2.0, 5.0, 0),         # overlaps b: [1, 5] is covered once
        span("d", 9.0, 12.0, 0),        # ends after its parent: clipped
        span("e", 2.5, 4.5, 2),         # a grandchild does not count for a
        span("f", 20.0, 21.0),          # a second root
    ]
    assert spans.self_times(tree) == pytest.approx(
        [10 - 4 - 1, 2.0, 3 - 2, 3.0, 2.0, 1.0])


def test_layer_totals_sum_self_time_calls_and_raises():
    tree = [
        span("cli.main", 0.0, 4.0),
        span("psm.validate", 1.0, 2.0, 0),
        span("psm.validate", 2.0, 2.5, 0, raised=True),
    ]
    totals = spans.layer_totals(tree)
    assert totals["cli.main"] == {"self_s": pytest.approx(2.5), "calls": 1,
                                  "raised": 0}
    assert totals["psm.validate"] == {"self_s": pytest.approx(1.5),
                                      "calls": 2, "raised": 1}
    assert totals["csm.explore"]["calls"] == 0


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (amp.cli.main, amp.csm.check_projection,
                 amp.projection.check_projection, amp.psm.validate)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert amp.projection.check_projection is not originals[2]
        assert amp.projection.check_projection is amp.csm.check_projection
        kle = Path(__file__).resolve().parents[2] / "protocols" / "kle.psm.json"
        tracer.op = "0/validate"
        assert amp.cli.main(["validate", str(kle), "--json"]) == 0
    finally:
        tracer.uninstall()
    assert (amp.cli.main, amp.csm.check_projection,
            amp.projection.check_projection, amp.psm.validate) == originals
    names = [s[spans.NAME] for s in tracer.spans]
    assert names[0] == "cli.main" and "psm.validate" in names
    assert "psm.build_config_graph" in names
    root = tracer.spans[0]
    assert root[spans.PARENT] == -1
    assert all(s[spans.PARENT] >= 0 for s in tracer.spans[1:])
    assert {s[spans.OP] for s in tracer.spans} == {"0/validate"}
    assert tracer.count("psm.build_config_graph.nodes") > 0
    assert tracer.op_counts["0/validate"]["psm.build_config_graph.nodes"] > 0


def test_hot_spots_rank_self_time_per_op():
    tree = [span("cli.main", 0.0, 4.0, op="0/x"),
            span("projection.minimize", 0.5, 3.5, 0, op="0/x")]
    wall, top = spans.op_hot_spots(tree)["0/x"]
    assert wall == pytest.approx(4.0)
    assert top[0] == ("projection.minimize", pytest.approx(3.0))
