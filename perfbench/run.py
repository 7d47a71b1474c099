"""Benchmark of the fracdecomp package, run from the root of a source checkout.

    python3 perfbench/run.py --workload many_iterations --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py                # every workload, each in its own process

One workload runs in one process with one thread: the BLAS pool is pinned
to a single thread before numpy loads. After one untimed warm-up operation,
operations run back to back (a closed loop with one caller) for --seconds of
wall time, each on a fresh instance drawn from --seed. Every output is
checked by `checker` outside the timed region. Untraced operations run
under the host-speed probe of `host_speed`, and `op_rel` divides each one's
time by the probe's, so that a slow stretch of a shared host cancels out.

With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
alternates untraced and traced operations and reports per-layer metrics from
the traced ones. The last line of stdout is one JSON object. Per-operation
records, and spans when tracing, go to .bench_out/ in the checkout.

Exit status: 0 every output correct, 1 an output failed its check, 2 the
package could not be loaded.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

# Before anything imports numpy, so that its BLAS starts no thread pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 15
OUTSIDE_OP = {"graph_core.generate_s"}  # timed during set-up, not in the op

sys.path.insert(0, str(HERE))

import layer_trace  # noqa: E402
from host_speed import HostProbe  # noqa: E402
from workloads import WORKLOADS, Operation, make_instance  # noqa: E402

# Run in a fresh interpreter: argv[1] is src/, the rest are modules to import.
IMPORT_PROBE = ("import importlib, sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); "
                "[importlib.import_module(m) for m in sys.argv[2:]]; "
                "print(time.perf_counter() - t)")


def load_package():
    """Import fracdecomp from this checkout's src/, or exit 2."""
    if not (SRC / "fracdecomp" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'fracdecomp'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import fracdecomp
    import fracdecomp.cli  # noqa: F401
    if Path(fracdecomp.__file__).resolve().parent != SRC / "fracdecomp":
        print(f"error: imported fracdecomp from {fracdecomp.__file__}", file=sys.stderr)
        sys.exit(2)
    return fracdecomp


def environment() -> dict:
    import numpy as np
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    return env


def measure_setup(fd, wl, seeds, workdir) -> list[float]:
    """Set-up cost repeated: a fresh-interpreter import plus one instance build.

    The import is of what the workload calls, so the CLI workload also loads
    fracdecomp.cli. The instance build is generation, and for the CLI
    workload writing the graph JSON; together they are everything a user
    does before the first operation.
    """
    modules = ["fracdecomp", "fracdecomp.cli"] if wl.cli else ["fracdecomp"]
    reps = []
    for seed in seeds:
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), *modules],
                             capture_output=True, text=True, check=True,
                             timeout=120)
        t0 = time.perf_counter()
        if wl.cli:
            Operation(fd, wl, seed, workdir).prepare()
        else:
            make_instance(fd, wl, seed)
        reps.append(float(out.stdout.strip()) + time.perf_counter() - t0)
    return reps


def run_op(fd, wl, k, seed, workdir, tracer) -> dict:
    op = Operation(fd, wl, seed, workdir)
    if tracer is not None:
        tracer.op = k
        tracer.install()
    # Traced operations run without the host-speed probe, untraced ones with
    # it; the probe's own time is taken out of the operation's.
    probe = HostProbe() if tracer is None else None
    try:
        op.prepare()
        # Garbage left in cycles by the previous operation is freed here, not
        # by a collection inside this one's timed region or on top of its peak.
        gc.collect()
        with tracer.span(layer_trace.OP_SPAN) if tracer else probe:
            t0, c0 = time.perf_counter(), time.process_time()
            op.run()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        probed = sum(probe.samples) if probe else 0.0
        op.record["op_s"] = wall - probed
        op.record["cpu_s"] = cpu - probed
        if probe and probe.samples:
            op.record["probe_s"] = median(probe.samples)
    except Exception:  # one failed operation must not end the run
        op.record["error"] = traceback.format_exc(limit=3)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if "error" not in op.record:
        try:
            op.check()
        except Exception:  # a checker rejection or an unreadable output
            op.record["error"] = traceback.format_exc(limit=3)
    op.release()
    op.record.update(op=k, traced=tracer is not None, ok="error" not in op.record)
    return op.record


def run_workload(name: str, seed: int, seconds: float, tracing: bool) -> int:
    fd = load_package()
    wl = WORKLOADS[name]
    env = environment()
    rng = random.Random(seed)
    op_seeds = (rng.randrange(2**31) for _ in iter(int, 1))
    workdir = tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT) if wl.cli else None
    tracer = layer_trace.Tracer() if tracing else None
    try:
        setup = measure_setup(fd, wl, [rng.randrange(2**31) for _ in range(SETUP_REPS)],
                              workdir)
        # The first operation in a process pays one-off costs (heap growth,
        # first calls into numpy) that later ones do not: it is checked and
        # counted, but not timed into op_s.
        records = [run_op(fd, wl, 0, next(op_seeds), workdir, None)]
        records[0]["warmup"] = True
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or (tracing and len(records) < 3)):
            traced = tracing and len(records) % 2 == 0
            records.append(run_op(fd, wl, len(records), next(op_seeds), workdir,
                                  tracer if traced else None))
    finally:
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed = [r for r in records if not r["ok"]]
    plain = [r["op_s"] for r in records[1:] if not r["traced"] and "op_s" in r]
    print(f"workload {wl.name}: (r, s, n) = ({wl.r}, {wl.s}, {wl.n}), "
          f"{wl.defects} defects, per-part cap {wl.cap}, seed {seed}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for r in failed:
        print(f"op {r['op']} (instance seed {r['seed']}) failed:\n{r['error']}",
              file=sys.stderr)

    if tracing:
        metrics = layer_metrics(tracer, records, plain)
        if tracer.absent:
            print("absent trace targets: " + ", ".join(tracer.absent))
        split = layer_trace.module_split(tracer.spans)
        total = sum(split.values())
        if total:
            print("self time by module: " + ", ".join(
                f"{k} {v / total:.0%}" for k, v in sorted(split.items(), key=lambda kv: -kv[1])))
        traced_op = metrics.pop("bench.traced_op_s", (None, "s"))[0]
        print(f"traced op = {traced_op} s (median); shares below are of it")
        for key, (value, unit) in metrics.items():
            in_op = unit == "s" and traced_op and key not in OUTSIDE_OP
            share = f"  ({value / traced_op:.0%})" if in_op else ""
            print(f"{key} = {value:.6g} {unit}{share}")
    else:
        probed = [r for r in records[1:] if "probe_s" in r]
        op_rel = median(r["op_s"] / r["probe_s"] for r in probed) if probed else None
        metrics = {
            "op_rel": (op_rel, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (median(setup), "s"),
        }
        if plain:
            cpu = [r["cpu_s"] / r["op_s"] for r in records[1:] if "op_s" in r]
            print(f"op_s = {median(plain):.4f} s (median of {len(plain)} operations; "
                  f"CPU time / wall time {median(cpu):.3f})")
        if probed:
            print(f"op_rel = {op_rel:.1f} ratio (median of op_s / host probe time; "
                  f"probe median {median(r['probe_s'] for r in probed) * 1e3:.3f} ms)")
        print(f"peak_rss_mb = {peak_rss_mb:.1f} MB")
        print(f"setup_s = {metrics['setup_s'][0]:.4f} s (median of {len(setup)} set-ups)")
    print(f"failed_frac = {len(failed) / len(records):.4g} ratio "
          f"({len(failed)} of {len(records)} operations)")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{wl.name}-seed{seed}-trace{int(tracing)}"
    with open(f"{stem}.json", "w") as fh:
        json.dump({"workload": wl.name, "seed": seed, "seconds": seconds,
                   "env": env, "setup_s": setup, "peak_rss_mb": peak_rss_mb,
                   "operations": records}, fh, indent=1)
    if tracing:
        with open(f"{stem}.spans.jsonl", "w") as fh:
            for rec in tracer.records():
                fh.write(json.dumps(rec) + "\n")

    correct = not failed
    metrics = {k: (v, u) for k, (v, u) in metrics.items() if v is not None}
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def layer_metrics(tracer, records, plain) -> dict:
    traced = [r for r in records if r["traced"]]
    per_op = layer_trace.per_op_metrics(tracer.spans)
    metrics = layer_trace.median_metrics(per_op, tracer.absent)
    for key, field, unit in (("solver.cliques", "cliques", "count"),
                             ("solver.iterations", "iterations", "count"),
                             ("cli.weights_mb", "weights_mb", "MB")):
        values = [r.get(field) or 0 for r in traced]
        metrics[key] = (median(values), unit)
    traced_ops = [r["op_s"] for r in traced if "op_s" in r]
    if traced_ops and plain:
        metrics["bench.trace_overhead"] = (median(traced_ops) / median(plain), "ratio")
        metrics["bench.traced_op_s"] = (median(traced_ops), "s")
    return metrics


def run_all(seed: int, seconds: float, tracing: bool) -> int:
    """Every workload in its own child process, then one summary."""
    status = 0
    summary = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(tracing))],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]) + "\n")
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            status = max(status, 2)
            continue
        summary.append((name, result))
    attempted = sum(r["attempted"] for _, r in summary)
    failed = sum(r["failed"] for _, r in summary)
    metrics = {f"{name}.{k}": v for name, r in summary
               for k, v in r["metrics"].items()}
    for name, r in summary:
        for key, m in r["metrics"].items():
            print(f"{name + '.' + key:40s} {m['value']:.6g} {m['unit']}")
        print(f"{name + '.failed_frac':40s} {r['failed'] / r['attempted']:.6g} ratio")
    print(json.dumps({"correct": status == 0 and len(summary) == len(WORKLOADS),
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
