import numpy as np
import pytest

import sphfit
import tracing
from tracing import Span


def _tree():
    # root [0, 10]: fit [1, 6] (eigh [2, 3], eigh [4, 5.5]), predict [7, 9]
    # (zonal [7.5, 8.5]); a second root [11, 12].
    return [
        Span("harness.grid_search", 0.0, 10.0, None, 1),
        Span("solver.fit", 1.0, 6.0, 0, 1),
        Span("solver.eigh", 2.0, 3.0, 1, 1, count=8.0),
        Span("solver.eigh", 4.0, 5.5, 1, 1, count=27.0),
        Span("solver.predict", 7.0, 9.0, 0, 1),
        Span("kernels.zonal_value", 7.5, 8.5, 4, 1, count=100.0),
        Span("harness.grid_search", 11.0, 12.0, None, 2),
    ]


def test_self_times_of_synthetic_tree():
    assert tracing.self_times(_tree()) == pytest.approx(
        [10 - 5 - 2, 5 - 1 - 1.5, 1, 1.5, 2 - 1, 1, 1])


def test_self_times_plus_uncovered_add_up_to_wall():
    spans = _tree()
    out = tracing.summarize(spans, -1.0, 13.0)
    assert out["trace.uncovered_s"] == pytest.approx(14 - 10 - 1)
    assert out["trace.self_sum_s"] + out["trace.uncovered_s"] == pytest.approx(14.0)
    assert out["harness.grid_search.self_s"] == pytest.approx(3 + 1)
    assert out["harness.grid_search.calls"] == 2
    assert out["solver.eigh.calls"] == 2
    assert out["solver.eigh.m3"] == 35.0
    assert out["kernels.zonal_value.entries_per_s"] == pytest.approx(100.0)


def test_child_time_outside_parent_is_clipped():
    spans = [Span("solver.fit", 0.0, 2.0, None, 1),
             Span("solver.eigh", 1.5, 3.0, 0, 1)]
    assert tracing.self_times(spans) == pytest.approx([1.5, 1.5])


def test_nested_spans_of_one_layer_count_as_one_call():
    spans = [Span("solver.fit", 0.0, 4.0, None, 1),
             Span("solver.fit", 1.0, 3.0, 0, 1),
             Span("solver.eigh", 1.5, 2.0, 1, 1)]
    out = tracing.summarize(spans, 0.0, 4.0)
    assert out["solver.fit.calls"] == 1
    assert out["solver.fit.self_s"] == pytest.approx(3.5)


@pytest.fixture
def installed():
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    yield tracer, inst
    inst.restore()


def test_every_module_binding_is_wrapped(installed):
    tracer, inst = installed
    assert inst.missing == []
    assert set(inst.bindings["sphfit.solver.predict"]) >= {
        "sphfit.solver.predict", "sphfit.data.predict", "sphfit.harness.predict",
        "sphfit.predict"}
    assert set(inst.bindings["sphfit.kernels.cross_matrix"]) >= {
        "sphfit.kernels.cross_matrix", "sphfit.solver.cross_matrix", "sphfit.cross_matrix"}
    assert inst.bindings["numpy.linalg.eigh"] == ["numpy.linalg.eigh"]
    assert all(inst.bindings.values())


def test_spans_recorded_only_while_active(installed):
    tracer, _ = installed
    design13 = sphfit.load_design(13)
    centers = sphfit.load_design(5)
    y = np.ones(len(design13))
    sphfit.fit_sketched(sphfit.KernelSpec.wendland(), design13, y, centers, 1e-3)
    assert tracer.spans == []
    tracer.active = True
    with tracer.operation() as op:
        model = sphfit.fit_sketched(sphfit.KernelSpec.wendland(), design13, y, centers, 1e-3)
        sphfit.rmse(model, design13, y)
    tracer.active = False
    names = {s.name for s in tracer.spans}
    assert {"solver.fit", "kernels.cross_matrix", "kernels.gram", "kernels.zonal_value",
            "solver.eigh", "data.rmse", "solver.predict"} <= names
    assert {s.trace_id for s in tracer.spans} == {op}
    assert tracer.calls["sphfit.cli.main"] == 0


def test_restore_puts_originals_back():
    original = sphfit.solver.predict
    tracer = tracing.Tracer()
    tracing.install(tracer).restore()
    assert sphfit.data.predict is original and sphfit.harness.predict is original


def test_renamed_target_is_reported_missing():
    tracer = tracing.Tracer()
    inst = tracing.install(tracer, [("solver.fit", "sphfit.solver", "no_such_fit", None)])
    inst.restore()
    assert inst.missing == ["sphfit.solver.no_such_fit"]
