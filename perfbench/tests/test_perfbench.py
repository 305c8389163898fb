"""Tests of the benchmark's own arithmetic and of its tracer."""

import importlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import rnaloop
import spans
import summary

ROOT = Path(__file__).resolve().parents[2]
MODULES = ["autodiff", "nets", "signals", "taskgen", "serialize", "shifts", "presets"]


# -- percentile rule ---------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert summary.min_samples(90) == 100
    assert summary.min_samples(50) == 20
    with pytest.raises(ValueError):
        summary.percentile(list(range(99)), 90)
    assert summary.tail_count(100, 90) == 10


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))[::-1]
    assert summary.percentile(samples, 90) == 90
    assert summary.percentile(samples, 50) == 50


# -- self-time arithmetic ----------------------------------------------------


def test_self_time_subtracts_children():
    # 0:[0,100) has children 1:[10,30) and 2:[40,70); 2 has child 3:[50,60)
    starts = [0, 10, 40, 50]
    ends = [100, 30, 70, 60]
    parents = [-1, 0, 0, 2]
    assert spans.self_times_ns(starts, ends, parents) == [50, 20, 20, 10]


def test_self_time_counts_overlapping_children_once():
    assert spans.covered_ns(0, 100, [(10, 40), (30, 50), (90, 120), (-5, 2)]) == 52
    assert spans.self_times_ns([0, 10, 30], [100, 40, 50], [-1, 0, 0]) == [60, 30, 20]


def _all_function_attributes():
    for name in MODULES:
        mod = importlib.import_module(f"rnaloop.{name}")
        for attr, obj in vars(mod).items():
            yield f"{name}.{attr}", obj
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for cattr, cobj in vars(obj).items():
                    yield f"{name}.{attr}.{cattr}", cobj


def test_traced_run_leaves_no_rnaloop_attribute_wrapped():
    from rnaloop import autodiff as ad, presets

    before = dict(_all_function_attributes())
    tracer = spans.Tracer(spans.rnaloop_targets(rnaloop))
    model = presets.dense_main(0)
    x = np.random.default_rng(0).random((1, 1, 32, 32))
    with tracer:
        tracer.unit = 0
        with ad.Tape() as tape:
            lifted = model.params.lift(tape)
            loss = ad.sum_all(model.forward(x, lifted=lifted))
            ad.backward(loss)
        assert getattr(ad.backward, spans.MARK) == "autodiff.backward"
        assert getattr(rnaloop.nets.Model.forward, spans.MARK) == "nets.Model.forward"
    after = dict(_all_function_attributes())
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not [k for k, v in after.items() if hasattr(v, spans.MARK)]
    assert tracer.leftover_wrappers() == []

    metrics = spans.layer_metrics(tracer, n_units=1, n_setups=1)
    assert metrics["autodiff.backward.calls"] == 1
    assert metrics["autodiff.tape_nodes"] == len(tape.nodes)
    assert metrics["autodiff.tapes"] == 1
    assert metrics["autodiff.conv2d.calls"] == 8
    assert metrics["autodiff.conv2d.self_ms"] > 0
    names = {tracer.span_names[i] for i in tracer.names}
    assert {"nets.Model.forward", "autodiff.conv2d", "autodiff.backward"} <= names


def test_tracer_restores_attributes_when_the_traced_code_raises():
    before = dict(_all_function_attributes())
    with pytest.raises(ZeroDivisionError):
        with spans.Tracer(spans.rnaloop_targets(rnaloop)):
            1 / 0
    after = dict(_all_function_attributes())
    assert all(after[k] is before[k] for k in before)


def test_tracer_refuses_to_wrap_twice_and_unwinds():
    before = dict(_all_function_attributes())
    with spans.Tracer(spans.rnaloop_targets(rnaloop)):
        with pytest.raises(RuntimeError, match="already wrapped"):
            with spans.Tracer(spans.rnaloop_targets(rnaloop)):
                pass
        assert getattr(rnaloop.autodiff.backward, spans.MARK) == "autodiff.backward"
    after = dict(_all_function_attributes())
    assert all(after[k] is before[k] for k in before)


def test_conv2d_flop_count_is_exact():
    from rnaloop import autodiff as ad

    tracer = spans.Tracer(spans.rnaloop_targets(rnaloop))
    x = ad.as_tensor(np.ones((2, 3, 8, 8)))
    w = ad.as_tensor(np.ones((4, 3, 3, 3)))
    with tracer:
        tracer.unit = 0
        ad.conv2d(x, w, 1, 1)
    m = spans.layer_metrics(tracer, n_units=1, n_setups=1)
    assert m["autodiff.conv2d.gflop"] * 1e9 == pytest.approx(2 * (2 * 4 * 8 * 8) * 3 * 3 * 3)
    assert m["autodiff.conv2d.out_mb"] * 1e6 == 2 * 4 * 8 * 8 * 8


# -- BENCHMARK.json agrees with what the benchmark prints ---------------------


def test_benchmark_json_names_every_metric_with_its_unit():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_UNITS
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
