"""Self-time arithmetic on synthetic span trees, and module-level patching."""

import types

import pytest

from spans import Span, Tracer, self_times, totals


def test_self_time_subtracts_child_coverage():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
        Span("c", 8.0, 9.5, 0),   # overlaps b: the union 5..9.5 is covered once
        Span("d", 9.8, 11.0, 0),  # runs past the root: clipped to 9.8..10
    ]
    own = self_times(spans)
    assert own == pytest.approx([10.0 - 3.0 - 4.5 - 0.2, 2.0, 1.0, 4.0, 1.5, 1.2])


def test_totals_sum_calls_self_times_and_counts():
    spans = [
        Span("root", 0.0, 6.0, None),
        Span("leaf", 1.0, 2.0, 0, {"bytes": 10}),
        Span("leaf", 3.0, 5.0, 0, {"bytes": 5}),
    ]
    agg = totals(spans)
    assert agg["root"]["self_s"] == pytest.approx(3.0)
    assert agg["leaf"] == {"calls": 2, "total_s": pytest.approx(3.0),
                           "self_s": pytest.approx(3.0), "counts": {"bytes": 15}}
    # self times of one tree add up to the root's duration
    assert sum(a["self_s"] for a in agg.values()) == pytest.approx(6.0)


def test_install_patches_every_holder_and_restores():
    def work(x):
        return helper(x) + 1

    def helper(x):
        return 2 * x

    home = types.SimpleNamespace(helper=helper)
    other = types.SimpleNamespace(helper=helper)  # imported by name elsewhere
    tracer = Tracer()
    targets = [(home, "helper", "home.helper", lambda r, x: {"arg": x})]
    with tracer.install(targets, [home, other]):
        assert home.helper is not helper and other.helper is home.helper
        assert home.helper(3) == 6  # outside any op: not recorded
        assert tracer.spans == []
        with tracer.span("op"):
            assert other.helper(4) == 8
    assert home.helper is helper and other.helper is helper
    assert [(s.name, s.parent, s.counts) for s in tracer.spans] == [
        ("op", None, {}), ("home.helper", 0, {"arg": 4})]
    assert work(1) == 3
