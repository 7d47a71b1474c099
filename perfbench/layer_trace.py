"""Outside-in tracing of the fracdecomp package.

`Tracer.install` replaces module-level functions and a few class attributes
of the package with wrappers that record one span per call, and `uninstall`
puts the originals back. Nothing inside the package changes. A span is
(id, name, start, end, parent id, op id); spans stay in memory until the run
writes them out. Targets that no longer exist are skipped and reported as
absent, so the metrics built on them drop out instead of failing the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

# (module, attribute path); the span name is "<module>.<last path element>",
# or "<module>.<class>" for a constructor.
TARGETS = [
    ("graph_core", "generate_admissible_instance"),
    ("graph_core", "check_admissible"),
    ("graph_core", "EdgeIndexing.__init__"),
    ("graph_core", "MultipartiteGraph.from_json"),
    ("scheme", "EdgeVector.__init__"),
    ("scheme", "apply_all_adjacency"),
    ("scheme", "apply_idempotent"),
    ("spectral", "apply_mgamma"),
    ("spectral", "apply_mgamma_inverse"),
    ("spectral", "apply_mgamma_eta_inverse"),
    ("solver", "decompose"),
    ("solver", "enumerate_cliques"),
    ("solver", "neumann_solve"),
    ("solver", "apply_delta"),
    ("solver", "apply_delta_eta"),
    ("solver", "apply_mg"),
    ("solver", "extract_weights"),
    ("solver", "verify_decomposition"),
    ("cli", "cmd_decompose"),
    ("cli", "cmd_verify"),
]

OP_SPAN = "bench.op"

# Per-layer metrics read from spans: (name, unit, kind, span names).
# "self": summed self time; "total": summed duration of the outermost spans;
# "calls": number of outermost spans. Outermost means the parent span is not
# in the same group, so a wrapper calling a wrapped helper counts once.
SPAN_METRICS = [
    ("graph_core.generate_s", "s", "self", ["graph_core.generate_admissible_instance"]),
    ("graph_core.indexing_s", "s", "self", ["graph_core.EdgeIndexing"]),
    ("graph_core.admissibility_s", "s", "self", ["graph_core.check_admissible"]),
    ("graph_core.load_s", "s", "self", ["graph_core.from_json"]),
    ("solver.enumerate_s", "s", "self", ["solver.enumerate_cliques"]),
    ("solver.solve_s", "s", "self", ["solver.neumann_solve"]),
    ("solver.solve_total_s", "s", "total", ["solver.neumann_solve"]),
    ("solver.delta_s", "s", "self", ["solver.apply_delta", "solver.apply_delta_eta"]),
    ("solver.delta_calls", "count", "calls", ["solver.apply_delta", "solver.apply_delta_eta"]),
    ("solver.clique_apply_s", "s", "self", ["solver.apply_mg"]),
    ("solver.extract_s", "s", "self", ["solver.extract_weights"]),
    ("solver.verify_s", "s", "self", ["solver.verify_decomposition"]),
    ("spectral.minv_s", "s", "self",
     ["spectral.apply_mgamma_inverse", "spectral.apply_mgamma_eta_inverse"]),
    ("spectral.minv_calls", "count", "calls",
     ["spectral.apply_mgamma_inverse", "spectral.apply_mgamma_eta_inverse"]),
    ("spectral.host_apply_calls", "count", "calls", ["spectral.apply_mgamma"]),
    ("scheme.refresh_s", "s", "self", ["scheme.EdgeVector"]),
    ("scheme.refresh_calls", "count", "calls", ["scheme.EdgeVector"]),
    ("scheme.adjacency_s", "s", "self", ["scheme.apply_all_adjacency"]),
    ("scheme.adjacency_calls", "count", "calls", ["scheme.apply_all_adjacency"]),
    ("scheme.idempotent_calls", "count", "calls", ["scheme.apply_idempotent"]),
    ("cli.decompose_self_s", "s", "self", ["cli.cmd_decompose"]),
    ("cli.verify_s", "s", "self", ["cli.cmd_verify"]),
]


def span_name(module: str, path: str) -> str:
    owner, _, attr = path.rpartition(".")
    return f"{module}.{owner if attr == '__init__' else attr}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (owner, attr, original raw attribute)

    def open(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((sid, name, time.perf_counter(), None, parent, self.op))
        self._stack.append(sid)
        return sid

    def close(self, sid: int):
        end = time.perf_counter()
        self._stack.pop()
        sid_, name, start, _, parent, op = self.spans[sid]
        self.spans[sid] = (sid_, name, start, end, parent, op)

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
        return wrapper

    def install(self, package: str = "fracdecomp"):
        """Wrap every target that exists; names of missing ones go to `absent`."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        self.absent = []
        for mod_name, path in TARGETS:
            name = span_name(mod_name, path)
            owner = sys.modules.get(f"{package}.{mod_name}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(name)
                continue
            if isinstance(raw, classmethod):
                self._patch(owner, attr, raw, classmethod(self._wrap(raw.__func__, name)))
            elif owner_path:
                self._patch(owner, attr, raw, self._wrap(raw, name))
            else:
                # also rebind copies made by "from .module import name"
                wrapped = self._wrap(raw, name)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            self._patch(mod, key, raw, wrapped)

    def _patch(self, owner, attr, original, replacement):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def records(self):
        for sid, name, start, end, parent, op in self.spans:
            yield {"id": sid, "name": name, "start": start, "end": end,
                   "parent": parent, "op": op}


def _child_time(spans) -> dict[int, float]:
    """Summed duration of each span's direct children."""
    child_time = defaultdict(float)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return child_time


def per_op_metrics(spans) -> dict[int, dict[str, float]]:
    """Span metrics of every traced op, keyed by op id."""
    child_time = _child_time(spans)
    name_of = {sid: name for sid, name, *_ in spans}
    out = {op: {} for _, name, *_, op in spans if name == OP_SPAN}
    for metric, _, kind, names in SPAN_METRICS:
        group = set(names)
        for values in out.values():
            values[metric] = 0 if kind == "calls" else 0.0
        for sid, name, start, end, parent, op in spans:
            if name not in group or op not in out:
                continue
            outer = name_of.get(parent) not in group
            if kind == "self":
                out[op][metric] += (end - start) - child_time[sid]
            elif kind == "total" and outer:
                out[op][metric] += end - start
            elif kind == "calls" and outer:
                out[op][metric] += 1
    return out


def module_split(spans) -> dict[str, float]:
    """Self time inside traced ops, summed per module ("bench" is unwrapped code)."""
    child_time = _child_time(spans)
    in_op = {}
    split = defaultdict(float)
    for sid, name, start, end, parent, _ in spans:
        in_op[sid] = name == OP_SPAN or in_op.get(parent, False)
        if in_op[sid]:
            split[name.split(".")[0]] += (end - start) - child_time[sid]
    return dict(split)


def median_metrics(per_op: dict[int, dict[str, float]], absent_spans) -> dict:
    """Median over ops of each span metric that has at least one span target."""
    out = {}
    for metric, unit, _, names in SPAN_METRICS:
        if per_op and not set(names) <= set(absent_spans):
            out[metric] = (median(v[metric] for v in per_op.values()), unit)
    return out
