"""Tests of the benchmark's own checker, tracer and host probe: python3 -m pytest perfbench"""

import json
import signal
import sys
import time
import types
from itertools import combinations, product
from pathlib import Path

import pytest

import checker
import host_speed
import layer_trace

R, S, N = 4, 3, 2


def uniform_host_items(r=R, s=S, n=N):
    """Every K_s of the complete host, each edge lies in C(r-2,s-2) n^(s-2) of them."""
    per_edge = 1
    for k in range(s - 2):
        per_edge = per_edge * (r - 2 - k) // (k + 1)
    w = 1.0 / (per_edge * n ** (s - 2))
    return [([(p, i) for p, i in zip(parts, idx)], w)
            for parts in combinations(range(r), s)
            for idx in product(range(n), repeat=s)]


def test_accepts_exact_decomposition():
    cliques, worst = checker.check_items(R, S, N, [], uniform_host_items())
    assert cliques == 32
    assert worst < 1e-12


def test_accepts_error_below_tolerance():
    items = uniform_host_items()
    K, w = items[0]
    items[0] = (K, w + 5e-9)
    checker.check_items(R, S, N, [], items)


def test_rejects_clique_on_missing_edge():
    with pytest.raises(checker.CheckFailed, match="uses a missing edge"):
        checker.check_items(R, S, N, [[0, 0, 1, 0]], uniform_host_items())


def test_rejects_negative_weight():
    items = uniform_host_items()
    K, w = items[3]
    items[3] = (K, -w)
    with pytest.raises(checker.CheckFailed, match="negative weight"):
        checker.check_items(R, S, N, [], items)


def test_rejects_uncovered_edge():
    bare = {(0, 0), (1, 0)}
    items = [(K, w) for K, w in uniform_host_items()
             if not bare <= {tuple(v) for v in K}]
    with pytest.raises(checker.CheckFailed, match="lie in no clique"):
        checker.check_items(R, S, N, [], items)


def test_rejects_edge_sum_off_by_tolerance():
    items = uniform_host_items()
    K, w = items[5]
    items[5] = (K, w + 2e-8)
    with pytest.raises(checker.CheckFailed, match="weight sum off"):
        checker.check_items(R, S, N, [], items)


def test_rejects_clique_with_two_vertices_in_one_part():
    items = uniform_host_items()
    items[0] = ([(0, 0), (0, 1), (2, 0)], items[0][1])
    with pytest.raises(checker.CheckFailed, match="distinct parts"):
        checker.check_items(R, S, N, [], items)


def package():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import fracdecomp
    import fracdecomp.cli  # noqa: F401
    return fracdecomp


def test_accepts_package_output():
    fracdecomp = package()
    g = fracdecomp.generate_admissible_instance(5, 3, 4, 3, seed=1)
    decomp, _ = fracdecomp.decompose(g)
    missing = json.loads(g.to_json())["missing_edges"]
    assert len(missing) == 3
    checker.check_items(5, 3, 4, missing, decomp.items())


def span(sid, name, start, end, parent, op=0):
    return (sid, name, start, end, parent, op)


def test_self_time_and_outermost_calls():
    spans = [
        span(0, layer_trace.OP_SPAN, 0.0, 10.0, -1),
        span(1, "solver.apply_delta_eta", 1.0, 5.0, 0),
        span(2, "solver.apply_delta", 1.5, 4.0, 1),
        span(3, "scheme.EdgeVector", 2.0, 3.0, 2),
        span(4, "solver.apply_delta", 6.0, 7.0, 0),
    ]
    m = layer_trace.per_op_metrics(spans)[0]
    assert m["solver.delta_calls"] == 2
    assert m["solver.delta_s"] == pytest.approx(4.0 - 1.0 + 1.0)
    assert m["scheme.refresh_s"] == pytest.approx(1.0)
    assert m["scheme.refresh_calls"] == 1
    spans.append(span(5, "graph_core.generate_admissible_instance", 11.0, 12.0, -1))
    split = layer_trace.module_split(spans)
    assert split["bench"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert "graph_core" not in split


def test_tracer_skips_absent_targets_and_restores(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    solver = types.ModuleType("fakepkg.solver")

    def decompose(x):
        return x + 1

    solver.decompose = decompose
    pkg.decompose = decompose
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.solver", solver)

    tracer = layer_trace.Tracer()
    tracer.install("fakepkg")
    assert "solver.decompose" not in tracer.absent
    assert "solver.apply_mg" in tracer.absent
    assert pkg.decompose(1) == 2 and solver.decompose(2) == 3
    assert [s[1] for s in tracer.spans] == ["solver.decompose"] * 2
    tracer.uninstall()
    assert pkg.decompose is decompose and solver.decompose is decompose
    metrics = layer_trace.median_metrics({0: {"solver.verify_s": 1.0}}, tracer.absent)
    assert "solver.verify_s" not in metrics


def test_tracer_counts_package_calls_and_restores():
    fracdecomp = package()
    import fracdecomp.solver as solver
    originals = {k: getattr(solver, k) for k in ("decompose", "apply_mg", "apply_mgamma")}
    g = fracdecomp.generate_admissible_instance(5, 3, 4, 3, seed=1)
    tracer = layer_trace.Tracer()
    tracer.install()
    try:
        with tracer.span(layer_trace.OP_SPAN):
            _, rep = fracdecomp.decompose(g)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    m = layer_trace.per_op_metrics(tracer.spans)[tracer.op]
    assert m["solver.delta_calls"] == 2 * rep.iterations
    assert m["spectral.minv_calls"] == rep.iterations + 1
    assert m["scheme.refresh_calls"] == 4 * rep.iterations + 1
    assert all(getattr(solver, k) is fn for k, fn in originals.items())


def test_host_probe_samples_while_entered_and_restores():
    before = signal.getsignal(signal.SIGALRM)
    with host_speed.HostProbe() as probe:
        end = time.perf_counter() + 8 * host_speed.PERIOD
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 4 and all(t > 0 for t in probe.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
