"""Self time and counts of the span tracer, on plain Python functions."""

import time
import types

from tracing import Tracer


def test_self_time_excludes_children_and_counts_work():
    mod = types.SimpleNamespace()
    mod.inner = lambda n: time.sleep(0.02) or n
    mod.outer = lambda n: (time.sleep(0.01), mod.inner(n), mod.inner(n))[1]
    original = mod.inner

    tracer = Tracer()
    tracer.install_attribute(mod, "inner", "inner", lambda a, k, r: {"inner.items": a[0]})
    tracer.install_attribute(mod, "outer", "outer")
    mod.outer(5)  # inactive: nothing recorded
    tracer.active = True
    assert mod.outer(5) == 5
    tracer.uninstall()
    assert mod.inner is original

    s = tracer.summary()
    assert s["inner"]["calls"] == 2 and s["outer"]["calls"] == 1
    assert tracer.counts["inner.items"] == 10
    outer = s["outer"]
    assert abs(outer["self_s"] - (outer["total_s"] - s["inner"]["total_s"])) < 1e-9
    assert 0.005 < outer["self_s"] < 0.02 + 0.01
    assert tracer.top_level_wall() == outer["total_s"]
    assert abs(tracer.layer_self_time() - s["inner"]["self_s"]) < 1e-12


def test_errors_are_counted_and_reraised():
    mod = types.SimpleNamespace(f=lambda: 1 / 0)
    tracer = Tracer()
    tracer.install_attribute(mod, "f", "f")
    tracer.active = True
    try:
        mod.f()
    except ZeroDivisionError:
        pass
    else:
        raise AssertionError("error swallowed")
    assert tracer.counts["f.errors.ZeroDivisionError"] == 1
    assert tracer.spans[0][4] is not None


def test_span_cost_is_small_and_positive():
    cost = Tracer().span_cost(calls=2000)
    assert 0.0 <= cost < 1e-4
