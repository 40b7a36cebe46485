"""Self-time arithmetic, backward attribution and wrapper installation."""

import json
from pathlib import Path

import numpy as np
import pytest

import run
import spans
from cacseg import network, tensor


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    tr.begin("outer")          # 0 .. 10
    clock.now = 1.0
    tr.begin("a")              # 1 .. 4, holds c 2 .. 3
    clock.now = 2.0
    with tr.span("c"):
        clock.now = 3.0
    clock.now = 4.0
    tr.end()
    clock.now = 5.0
    tr.begin("b")              # 5 .. 9
    clock.now = 9.0
    tr.end()
    clock.now = 10.0
    tr.end()
    assert tr.total == {"outer": 10.0, "a": 3.0, "c": 1.0, "b": 4.0}
    assert tr.self_time == {"outer": 3.0, "a": 2.0, "c": 1.0, "b": 4.0}


def test_same_name_nested_counts_once_in_self_time():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    tr.begin("x")
    clock.now = 1.0
    tr.begin("x")
    clock.now = 3.0
    tr.end()
    clock.now = 4.0
    tr.end()
    assert tr.self_time["x"] == 4.0
    assert tr.total["x"] == 6.0


def test_backward_time_goes_to_op_and_open_blocks():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    tr.enabled = True

    class Out:
        def _backward_fn(self, g):
            clock.now += 2.0

    out = Out()
    out._backward_fn = Out._backward_fn.__get__(out)
    with tr.block("attention.enc0.rica"):
        with tr.block("attention.enc0.rica.ca"):
            tr.time_backward(out, "conv2d", flop=7.0)
    tr.time_backward(out, "conv2d")  # already timed: not wrapped twice
    with tr.span("tensor.backward"):
        clock.now = 1.0
        out._backward_fn(None)
        clock.now += 0.5
    assert tr.self_time["tensor.conv2d.bwd"] == 2.0
    assert tr.self_time["tensor.backward"] == 1.5
    assert tr.total["attention.enc0.rica.bwd"] == 2.0
    assert tr.total["attention.enc0.rica.ca.bwd"] == 2.0
    assert tr.counters["tensor.conv2d.bwd.flop"] == 7.0


def test_missing_name_is_reported_not_fatal(capsys):
    tr = spans.Tracer()
    tr.wrap_span("cacseg.network:no_such_function", "x")
    tr.wrap_span("cacseg.no_such_module:f", "y")
    assert tr.missing == ["cacseg.network:no_such_function", "cacseg.no_such_module:f"]
    assert "not found" in capsys.readouterr().err


@pytest.fixture
def traced():
    tr = spans.Tracer()
    originals = (network.conv2d, tensor.Tensor.__add__, tensor.Tensor.backward)
    spans.instrument(tr)
    tr.enabled = True
    yield tr
    tr.uninstall()
    assert (network.conv2d, tensor.Tensor.__add__, tensor.Tensor.backward) == originals


def _step(forward, loss_by_variant):
    from cacseg import losses
    store = network.build(network.ArchConfig(levels=1, base_channels=4), 0)
    x = tensor.Tensor(np.random.default_rng(0).random((2, 1, 8, 8), dtype=np.float32))
    target = np.zeros((2, 8, 8), np.int64)
    loss_by_variant(losses.LossConfig())(forward(store, x, training=True), target).backward()
    return {name: t.grad for name, t in store.items()}


def test_instrumented_step_attributes_every_layer(traced):
    from cacseg import training
    grads = _step(training.forward, training.loss_by_variant)
    tr = traced
    assert tr.missing == []
    for op in spans.OPS:
        assert tr.calls[f"tensor.{op}.fwd"] > 0, op
        assert tr.calls[f"tensor.{op}.bwd"] > 0, op
    for block in ("enc0.rica", "enc0.rica.ca", "enc1.rica", "dec0.ca"):
        assert tr.total[f"attention.{block}.fwd"] > 0
        assert tr.total[f"attention.{block}.bwd"] > 0
    assert tr.total["losses.bwd"] > 0
    closures = sum(t for name, t in tr.total.items()
                   if name.startswith("tensor.") and name.endswith(".bwd"))
    backward = tr.total["tensor.backward"]
    assert tr.self_time["tensor.backward"] == pytest.approx(backward - closures)
    assert tr.counters["tensor.graph_nodes"] > 50

    tr.uninstall()
    plain = _step(training.forward, training.loss_by_variant)
    assert grads.keys() == plain.keys()
    for name in grads:
        np.testing.assert_array_equal(grads[name], plain[name], err_msg=name)


def test_benchmark_json_lists_the_metrics_the_code_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_names()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        run.end_to_end_names()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
