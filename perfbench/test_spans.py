"""Tests of the benchmark's span arithmetic and wrapping, on synthetic spans
and a synthetic package.  Run with ``python3 -m pytest perfbench``."""

import types

import pytest

import spans


def _tracer(rows):
    """Tracer holding (name, start, end, parent) rows as finished spans."""
    t = spans.Tracer()
    for name, start, end, parent in rows:
        t.add(name, start, end, parent)
    return t


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    starts, ends, parents = [0, 1, 2, 5], [10, 4, 3, 9], [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == [3, 2, 1, 4]


def test_self_times_partition_the_root():
    starts = [0.0, 0.5, 0.7, 2.0, 2.5, 6.0]
    ends = [8.0, 1.5, 1.0, 5.0, 4.0, 7.5]
    parents = [-1, 0, 1, 0, 3, 0]
    assert sum(spans.self_times(starts, ends, parents)) == pytest.approx(8.0)


def test_overlapping_and_overhanging_children_count_once():
    # children [1, 5] and [3, 7] overlap on [3, 5]; [8, 12] overhangs the
    # parent's end at 10.  Covered: [1, 7] and [8, 10], i.e. 8 of 10.
    starts, ends, parents = [0, 1, 3, 8], [10, 5, 7, 12], [-1, 0, 0, 0]
    assert spans.self_times(starts, ends, parents)[0] == pytest.approx(2.0)


def test_summarize_by_name_and_module():
    t = _tracer(
        [
            ("bench.job", 0.0, 10.0, -1),
            ("spectral.round_setup", 1.0, 5.0, 0),
            ("zonal.build_quadrature", 1.5, 3.5, 1),
            ("spectral.assemble_stiffness", 4.0, 4.5, 1),
            ("spectral.solve_density", 6.0, 9.0, 0),
        ]
    )
    s = spans.summarize(t, 0, len(t))
    assert s["calls"]["spectral.round_setup"] == 1
    assert s["incl"]["zonal.build_quadrature"] == pytest.approx(2.0)
    assert s["self"]["spectral.round_setup"] == pytest.approx(1.5)
    assert s["module_self"]["spectral"] == pytest.approx(1.5 + 0.5 + 3.0)
    # the nested spectral span is inside another spectral span: counted once
    assert s["module_outer"]["spectral"] == pytest.approx(4.0 + 3.0)
    assert s["module_self"]["bench"] == pytest.approx(10.0 - 4.0 - 3.0)
    assert s["self_sum"] == pytest.approx(10.0)


def test_summarize_window_ignores_outside_parents():
    t = _tracer([("bench.job", 0.0, 1.0, -1), ("bench.job", 2.0, 4.0, -1), ("zonal.analyze", 2.5, 3.0, 1)])
    s = spans.summarize(t, 1, 3)
    assert s["self_sum"] == pytest.approx(2.0)
    assert s["calls"]["bench.job"] == 1


def test_count_within_ancestor():
    t = _tracer(
        [
            ("optimizer.minimize", 0, 10, -1),
            ("optimizer.objective", 1, 2, 0),
            ("spectral.solve_generalized_eigen", 1.2, 1.8, 1),
            ("spectral.solve_generalized_eigen", 3, 4, 0),
            ("spectral.solve_generalized_eigen", 11, 12, -1),
        ]
    )
    assert spans.count_within(t, 0, len(t), "spectral.solve_generalized_eigen", "optimizer.minimize") == 2


def test_merge_reparents_child_spans():
    child = _tracer([("import.numpy", 1.0, 2.0, -1), ("cli.dispatch", 2.0, 5.0, -1), ("cli.runner", 2.5, 4.5, 1)])
    child.counters["x"] += 3
    parent = spans.Tracer()
    root = parent.open(spans.ROOT_SPAN)
    parent.merge(child.export(), root)
    parent.close(root)
    assert parent.parents == [-1, 0, 0, 2]
    assert parent.counters["x"] == 3


def _fake_package():
    """paneitz_lab-shaped modules: ``beta.g`` is also bound in ``alpha`` and in
    a dict, as ``from .beta import g`` and a dispatch table would bind it."""
    beta = types.ModuleType("fakepkg.beta")

    def g(x):
        return x + 1

    g.__module__ = beta.__name__
    beta.g = g

    alpha = types.ModuleType("fakepkg.alpha")

    def f(x):
        return alpha.g(x) * 2

    def _helper(x):
        return x

    for fn in (f, _helper):
        fn.__module__ = alpha.__name__
    alpha.f, alpha._helper, alpha.g = f, _helper, g
    alpha.TABLE = {"g": g}
    return [alpha, beta]


def test_instrumentation_wraps_every_binding_and_restores():
    mods = _fake_package()
    alpha, beta = mods
    original_g = beta.g
    t = spans.Tracer()
    inst = spans.Instrumentation(t, mods)
    assert set(inst.names.values()) == {"alpha.f", "beta.g"}
    assert sorted(inst.unwrapped()) == ["fakepkg.alpha.TABLE.g", "fakepkg.alpha.f", "fakepkg.alpha.g", "fakepkg.beta.g"]
    with inst:
        assert inst.unwrapped() == []
        assert alpha.TABLE["g"] is alpha.g is beta.g is not original_g
        assert alpha.f(1) == 4
        assert alpha._helper(1) == 1  # private: not traced
    assert beta.g is original_g and alpha.TABLE["g"] is original_g
    assert t.names == ["alpha.f", "beta.g"]
    assert t.parents == [-1, 0]
    assert t.ends[1] <= t.ends[0]
