"""Independent check of a fractional K_s-decomposition.

Shares no code with the package: edge indices come from this file's own
(part, index) arithmetic, the graph is given only as (r, s, n) and its list
of missing edges, and cliques arrive as plain (part, index) vertex lists.
The cover is accumulated in chunks, so the check's own memory stays bounded
whatever the number of cliques.
"""

from __future__ import annotations

from itertools import chain, combinations, islice

import numpy as np

TOL = 1e-8
CHUNK = 1 << 16


class CheckFailed(Exception):
    pass


class Cover:
    """Per-edge weight sums and clique counts of a stream of weighted cliques.

    Edge (p, i)-(q, j) with p < q has index ((p * r + q) * n + i) * n + j;
    pairs with p >= q stay unused. Every problem found is kept in `problems`.
    """

    def __init__(self, r: int, s: int, n: int, missing):
        self.r, self.s, self.n = r, s, n
        size = r * r * n * n
        self.missing = np.zeros(size, dtype=bool)
        pairs = np.asarray(missing, dtype=np.int64).reshape(-1, 2, 2)
        if pairs.size:
            self.missing[self._edge_ids(pairs)] = True
        self.sums = np.zeros(size)
        self.counts = np.zeros(size, dtype=np.int64)
        self.cliques = 0
        self.problems: list[str] = []

    def _edge_ids(self, cliques: np.ndarray) -> np.ndarray:
        """Edge indices of every vertex pair of every clique, shape (K, C(s,2))."""
        r, n = self.r, self.n
        parts, idx = cliques[:, :, 0], cliques[:, :, 1]
        cols = []
        for a, b in combinations(range(cliques.shape[1]), 2):
            swap = parts[:, a] > parts[:, b]
            p = np.where(swap, parts[:, b], parts[:, a])
            q = np.where(swap, parts[:, a], parts[:, b])
            i = np.where(swap, idx[:, b], idx[:, a])
            j = np.where(swap, idx[:, a], idx[:, b])
            cols.append(((p * r + q) * n + i) * n + j)
        return np.stack(cols, axis=1)

    def add(self, cliques, weights):
        """Add one chunk: cliques shaped (K, s, 2) as (part, index), weights (K,)."""
        cliques = np.asarray(cliques, dtype=np.int64).reshape(-1, self.s, 2)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (cliques.shape[0],):
            self.problems.append(
                f"{cliques.shape[0]} cliques but {weights.size} weights")
            return
        first = self.cliques
        self.cliques += cliques.shape[0]
        parts, idx = cliques[:, :, 0], cliques[:, :, 1]
        bad = ((parts < 0) | (parts >= self.r) | (idx < 0) | (idx >= self.n)).any(axis=1)
        ordered = np.sort(parts, axis=1)
        bad |= (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            self.problems.append(
                f"clique {first + k} is not one vertex in each of {self.s} "
                f"distinct parts: {cliques[k].tolist()}")
            return
        if not np.isfinite(weights).all():
            self.problems.append("a weight is not finite")
            return
        neg = np.flatnonzero(weights < 0)
        if neg.size:
            self.problems.append(
                f"clique {first + int(neg[0])} has negative weight "
                f"{weights[neg[0]]:.3e}")
        ids = self._edge_ids(cliques)
        used = self.missing[ids].any(axis=1)
        if used.any():
            k = int(np.flatnonzero(used)[0])
            self.problems.append(
                f"clique {first + k} uses a missing edge: {cliques[k].tolist()}")
        size = self.sums.size
        self.sums += np.bincount(
            ids.ravel(), weights=np.repeat(weights, ids.shape[1]), minlength=size)
        self.counts += np.bincount(ids.ravel(), minlength=size)

    def finish(self) -> float:
        """Check every edge of G; returns the largest |sum - 1| over them."""
        r, n = self.r, self.n
        host = np.zeros((r, r, n, n), dtype=bool)
        for p in range(r):
            host[p, p + 1:] = True
        graph = host.ravel() & ~self.missing
        if not graph.any():
            return 0.0
        bare = np.flatnonzero(graph & (self.counts == 0))
        if bare.size:
            self.problems.append(
                f"{bare.size} edges of G lie in no clique, "
                f"first {self._edge_name(int(bare[0]))}")
        err = np.abs(self.sums[graph] - 1.0)
        worst = float(err.max())
        if worst >= TOL:
            edge = int(np.flatnonzero(graph)[int(err.argmax())])
            self.problems.append(
                f"edge {self._edge_name(edge)} has weight sum off by "
                f"{worst:.3e} (tolerance {TOL:.0e})")
        return worst

    def _edge_name(self, e: int) -> str:
        r, n = self.r, self.n
        pair, rest = divmod(e, n * n)
        p, q = divmod(pair, r)
        i, j = divmod(rest, n)
        return f"({p},{i})-({q},{j})"


def check_items(r: int, s: int, n: int, missing, items) -> tuple[int, float]:
    """Check an iterable of (clique, weight) pairs; raises CheckFailed on any problem.

    A clique is a sequence of s (part, index) vertices. Returns the number
    of cliques and the largest per-edge error.
    """
    cover = Cover(r, s, n, missing)
    it = iter(items)
    while True:
        chunk = list(islice(it, CHUNK))
        if not chunk:
            break
        flat = np.fromiter(
            chain.from_iterable(chain.from_iterable(K for K, _ in chunk)),
            dtype=np.int64)
        if flat.size != len(chunk) * s * 2:
            raise CheckFailed(f"a clique in this chunk does not have {s} vertices")
        cover.add(flat, np.fromiter((w for _, w in chunk), dtype=float,
                                    count=len(chunk)))
    worst = cover.finish()
    if cover.problems:
        raise CheckFailed("; ".join(cover.problems))
    return cover.cliques, worst
