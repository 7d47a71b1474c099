"""The benchmark's layer trace still finds the package functions it wraps.

`perfbench/layer_trace.py` names its targets by module and attribute path,
and a target that no longer resolves drops its per-layer metrics from every
traced benchmark run. Renaming or deleting a traced function fails here.
So does a traced solve whose per-layer metrics are not all finite numbers,
or a library call that prints to stdout, where the benchmark writes its one
JSON result line last.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

import fracdecomp
import fracdecomp.cli  # noqa: F401  (the trace wraps cli targets too)
from fracdecomp.graph_core import generate_admissible_instance

LAYER_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layer_trace.py"
# targets the trace still lists although the package no longer has them
STALE = {"spectral.apply_mgamma_eta_inverse", "solver.apply_delta_eta"}


def _load_layer_trace():
    spec = importlib.util.spec_from_file_location("layer_trace_under_test", LAYER_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings():
    """Every global of a package module and every attribute of its classes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "fracdecomp" or name.startswith("fracdecomp.")):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, raw in vars(value).items():
                    out[(name, key, attr)] = raw
    return out


def test_trace_targets_resolve_and_are_restored():
    layer_trace = _load_layer_trace()
    before = _bindings()
    tracer = layer_trace.Tracer()
    try:
        tracer.install()
        assert set(tracer.absent) <= STALE
        assert fracdecomp.decompose is not before[("fracdecomp", "decompose")]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


@pytest.mark.parametrize("r,s,n,defects,cap", [
    (5, 3, 48, 24, 1),  # the plain path, as the large_sparse workload
    (5, 4, 12, 6, 1),  # the eta path, as the cli_eta workload
])
def test_traced_decompose_gives_every_metric(capsys, r, s, n, defects, cap):
    layer_trace = _load_layer_trace()
    g = generate_admissible_instance(r, s, n, defects, seed=1, per_part_cap=cap)
    tracer = layer_trace.Tracer()
    tracer.op = 0
    try:
        tracer.install()
        with tracer.span(layer_trace.OP_SPAN):
            _, rep = fracdecomp.decompose(g)
    finally:
        tracer.uninstall()
    metrics = layer_trace.per_op_metrics(tracer.spans)[0]
    assert set(metrics) == {name for name, *_ in layer_trace.SPAN_METRICS}
    assert all(math.isfinite(value) for value in metrics.values())
    assert metrics["solver.delta_calls"] == rep.iterations + 1
    assert capsys.readouterr().out == ""
