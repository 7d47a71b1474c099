"""The benchmark's workloads and the one operation each of them times.

Every operation gets a fresh instance, because the edge indexing is built
lazily once per graph and a user pays for it on every solve. The instance is
generated, and for the CLI written to a file, before the timed region; the
output is checked by `checker` after it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from math import comb

import checker


@dataclass(frozen=True)
class Workload:
    name: str
    r: int
    s: int
    n: int
    defects: int
    cap: int
    cli: bool


WORKLOADS = {w.name: w for w in [
    # r >= s+2, 1.1M cliques, 6 iterations: clique building and the
    # edge-by-edge verification dominate, the solve barely matters.
    Workload("large_sparse", 5, 3, 48, 24, 1, False),
    # 25k cliques, 33 iterations at contraction about 0.52: Minv, Delta and
    # EdgeVector refreshes dominate, on a small working set.
    Workload("many_iterations", 5, 3, 16, 400, 4, False),
    # r = s+1 eta path with s = 4, through the CLI and its files: writing the
    # weights file, the re-reading CLI verifier and the eta operators.
    Workload("cli_eta", 5, 4, 12, 6, 1, True),
]}


def make_instance(fd, wl: Workload, seed: int):
    return fd.generate_admissible_instance(
        wl.r, wl.s, wl.n, wl.defects, seed=seed, per_part_cap=wl.cap)


class Operation:
    """One timed operation on one fresh instance, then its check.

    `prepare` is untimed set-up, `run` is the timed call into the package,
    `check` verifies the output and fills `record`; it raises on failure.
    """

    def __init__(self, fd, wl: Workload, seed: int, workdir: str | None):
        self.fd, self.wl, self.seed, self.workdir = fd, wl, seed, workdir
        self.record = {"seed": seed}

    def prepare(self):
        self.graph = make_instance(self.fd, self.wl, self.seed)
        text = self.graph.to_json()
        self.missing = json.loads(text)["missing_edges"]
        wl = self.wl
        self.record["edges"] = comb(wl.r, 2) * wl.n * wl.n - len(self.missing)
        self.record["missing"] = len(self.missing)
        if wl.cli:
            self.paths = {k: os.path.join(self.workdir, f"{k}.json")
                          for k in ("graph", "weights", "report", "verify")}
            with open(self.paths["graph"], "w") as fh:
                fh.write(text)

    def run(self):
        if not self.wl.cli:
            self.result = self.fd.decompose(self.graph)
            return
        p = self.paths
        self.result = (
            self.fd.cli.run(["decompose", "--input", p["graph"],
                             "--output", p["weights"], "--report", p["report"]]),
            self.fd.cli.run(["verify", "--input", p["graph"],
                             "--weights", p["weights"], "--output", p["verify"]]))

    def check(self):
        wl, rec = self.wl, self.record
        if wl.cli:
            codes = self.result
            if codes != (0, 0):
                raise checker.CheckFailed(f"decompose/verify exit codes {codes}")
            rec["weights_mb"] = os.path.getsize(self.paths["weights"]) / 1e6
            with open(self.paths["weights"]) as fh:
                items = [(x["clique"], x["weight"]) for x in json.load(fh)]
            with open(self.paths["report"]) as fh:
                report = json.load(fh)
        else:
            decomp, rep = self.result
            items = decomp.items()
            report = {k: getattr(rep, k, None) for k in ("iterations", "guarantee")}
        rec["cliques"], rec["max_error"] = checker.check_items(
            wl.r, wl.s, wl.n, self.missing, items)
        rec["iterations"] = report.get("iterations")
        rec["guarantee"] = report.get("guarantee")

    def release(self):
        self.result = self.graph = None
