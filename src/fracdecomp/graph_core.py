"""Balanced r-partite host graphs stored as complements of missing-edge sets.

Vertices are pairs (part, index) with 0 <= part < r and 0 <= index < n.
The host Gamma is the complete balanced r-partite graph; a subgraph G is
Gamma minus a set of missing edges. Everything downstream (edge indexing,
admissibility, instance generation) lives here.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

Vertex = tuple[int, int]
EdgeKey = tuple[Vertex, Vertex]


class GraphError(ValueError):
    pass


def binom(a: int, b: int) -> int:
    """Binomial coefficient with C(a, b) = 0 for b < 0 or b > a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def edge_key(u: Vertex, w: Vertex) -> EdgeKey:
    """Canonical form of an edge: endpoint with the smaller part first."""
    if u[0] == w[0]:
        raise GraphError(f"edge inside part {u[0]}: {u}, {w}")
    return (u, w) if u[0] < w[0] else (w, u)


@dataclass(frozen=True)
class PartiteStructure:
    """Shape of the balanced r-partite host: r parts of size n, clique order s."""

    r: int
    s: int
    n: int

    def __post_init__(self):
        if self.s < 3:
            raise GraphError(f"clique order s={self.s} must be >= 3")
        if self.r < self.s:
            raise GraphError(f"need r >= s, got r={self.r}, s={self.s}")
        if self.n < 1:
            raise GraphError(f"part size n={self.n} must be >= 1")

    @property
    def num_vertices(self) -> int:
        return self.r * self.n

    @property
    def num_edges(self) -> int:
        """|E(Gamma)| = C(r,2) n^2."""
        return binom(self.r, 2) * self.n * self.n

    def check_vertex(self, v: Vertex):
        p, i = v
        if not (0 <= p < self.r and 0 <= i < self.n):
            raise GraphError(f"vertex {v} out of range")

    def part_pairs(self) -> list[tuple[int, int]]:
        return list(combinations(range(self.r), 2))

    def vertices(self):
        for p in range(self.r):
            for i in range(self.n):
                yield (p, i)

    def host_edges(self):
        for p1, p2 in self.part_pairs():
            for i1 in range(self.n):
                for i2 in range(self.n):
                    yield ((p1, i1), (p2, i2))


class EdgeIndexing:
    """Bijection E(Gamma) -> {0..m-1} with all edges of E(G) first.

    The base order is lexicographic by (p1, p2), then (i1, i2); the G-first
    order applies the stable permutation that moves missing edges to the back.
    `order` maps a G-first index to its base index and `pos` is its inverse.
    """

    def __init__(self, structure: PartiteStructure, missing: frozenset[EdgeKey]):
        self.structure = structure
        m = structure.num_edges
        self._pairs = structure.part_pairs()
        self._pair_offset = {pp: t for t, pp in enumerate(self._pairs)}

        missing_base = np.zeros(m, dtype=bool)
        for e in missing:
            missing_base[self.base_index(e)] = True

        base = np.arange(m)
        # stable: graph edges in base order, then missing edges in base order
        self.order = np.concatenate([base[~missing_base], base[missing_base]])
        self.pos = np.empty(m, dtype=np.int64)
        self.pos[self.order] = base
        self.num_graph_edges = int(m - missing_base.sum())
        self.num_edges = m

    def base_index(self, e: EdgeKey) -> int:
        (p1, i1), (p2, i2) = e
        n = self.structure.n
        return self._pair_offset[(p1, p2)] * n * n + i1 * n + i2

    def index(self, e: EdgeKey) -> int:
        """G-first index of a canonical edge key."""
        return int(self.pos[self.base_index(e)])

    def edge(self, idx: int) -> EdgeKey:
        """Canonical key of the edge with G-first index idx."""
        n = self.structure.n
        pair, rest = divmod(int(self.order[idx]), n * n)
        p1, p2 = self._pairs[pair]
        return ((p1, rest // n), (p2, rest % n))


class MultipartiteGraph:
    """A spanning subgraph G of the complete balanced r-partite host Gamma.

    Stored as the missing-edge set; the per-(vertex, foreign part) degree
    table is maintained incrementally under deletions. Treat instances as
    immutable once handed to the solver (deletion returns a new graph).
    """

    def __init__(self, structure: PartiteStructure, missing=()):
        self.structure = structure
        self.missing: frozenset[EdgeKey] = frozenset(missing)
        r, n = structure.r, structure.n
        deg = np.full((r * n, r), n, dtype=np.int64)
        for p in range(r):
            deg[p * n:(p + 1) * n, p] = 0
        for (p1, i1), (p2, i2) in self.missing:
            deg[p1 * n + i1, p2] -= 1
            deg[p2 * n + i2, p1] -= 1
        self.degree_table = deg
        self._indexing: EdgeIndexing | None = None

    @property
    def indexing(self) -> EdgeIndexing:
        if self._indexing is None:
            self._indexing = EdgeIndexing(self.structure, self.missing)
        return self._indexing

    @property
    def num_edges(self) -> int:
        return self.structure.num_edges - len(self.missing)

    def degree(self, v: Vertex, part: int) -> int:
        """d(v, V_part): neighbours of v inside part."""
        p, i = v
        if part == p:
            return 0
        return int(self.degree_table[p * self.structure.n + i, part])

    def total_degree(self, v: Vertex) -> int:
        p, i = v
        return int(self.degree_table[p * self.structure.n + i].sum())

    def min_partite_degree(self) -> int:
        """delta-hat(G): minimum of d(v, V_k) over vertices v and parts k != part(v)."""
        r, n = self.structure.r, self.structure.n
        deg = self.degree_table.astype(float).copy()
        for p in range(r):
            deg[p * n:(p + 1) * n, p] = np.inf
        return int(deg.min())

    def has_edge(self, u: Vertex, w: Vertex) -> bool:
        return edge_key(u, w) not in self.missing

    def pair_count(self, p1: int, p2: int) -> int:
        """|E(V_p1, V_p2)| in G."""
        if p1 == p2:
            raise GraphError("pair_count needs two distinct parts")
        n = self.structure.n
        lo, hi = min(p1, p2), max(p1, p2)
        gone = sum(1 for (a, _), (b, _) in self.missing if (a, b) == (lo, hi))
        return n * n - gone

    def delete_edges(self, edges) -> "MultipartiteGraph":
        new_missing = set(self.missing)
        for e in edges:
            u, w = e
            k = edge_key(u, w)
            if k in new_missing:
                raise GraphError(f"edge already missing: {k}")
            self.structure.check_vertex(u)
            self.structure.check_vertex(w)
            new_missing.add(k)
        return MultipartiteGraph(self.structure, new_missing)

    def delete_transversal_clique(self, transversal) -> "MultipartiteGraph":
        """Delete all C(r,2) edges of a clique with one vertex per part.

        At r = s+1 this is the admissibility-preserving deletion: every pair
        count and both sides of the pair-count identity drop by exactly 1.
        """
        transversal = list(transversal)
        r = self.structure.r
        if len(transversal) != r:
            raise GraphError(
                f"transversal has {len(transversal)} vertices, need {r}")
        parts = sorted(p for p, _ in transversal)
        if parts != list(range(r)):
            raise GraphError("transversal must pick exactly one vertex per part")
        return self.delete_edges(
            edge_key(u, w) for u, w in combinations(transversal, 2))

    # -- serialization -------------------------------------------------

    def to_json(self) -> str:
        rec = {
            "r": self.structure.r,
            "s": self.structure.s,
            "n": self.structure.n,
            "missing_edges": sorted(
                [p1, i1, p2, i2] for (p1, i1), (p2, i2) in self.missing),
        }
        return json.dumps(rec, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "MultipartiteGraph":
        """Parse the graph JSON format; GraphError on any malformed record.

        Shape, integer types and vertex ranges are checked before anything
        is built from the record.
        """
        rec = json.loads(text)
        if not isinstance(rec, dict):
            raise GraphError("graph JSON must be an object")
        absent = [k for k in ("r", "s", "n", "missing_edges") if k not in rec]
        if absent:
            raise GraphError(f"graph JSON lacks {absent}")
        for k in ("r", "s", "n"):
            if not _is_int(rec[k]):
                raise GraphError(f"{k} must be an integer, got {rec[k]!r}")
        structure = PartiteStructure(r=rec["r"], s=rec["s"], n=rec["n"])
        if not isinstance(rec["missing_edges"], list):
            raise GraphError("missing_edges must be a list")
        seen = set()
        for e in rec["missing_edges"]:
            if not (isinstance(e, list) and len(e) == 4 and all(map(_is_int, e))):
                raise GraphError(
                    f"missing edge must be four integers [p1, i1, p2, i2], got {e!r}")
            p1, i1, p2, i2 = e
            if p1 >= p2:
                raise GraphError(f"missing edge parts not ordered: {e}")
            k = ((p1, i1), (p2, i2))
            for v in k:
                structure.check_vertex(v)
            if k in seen:
                raise GraphError(f"duplicate missing edge: {e}")
            seen.add(k)
        return cls(structure, seen)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def make_complete(r: int, s: int, n: int) -> MultipartiteGraph:
    """The complete balanced r-partite host itself (empty missing set)."""
    return MultipartiteGraph(PartiteStructure(r=r, s=s, n=n))


@dataclass
class AdmissibilityReport:
    """Outcome of the necessary-condition checks, in exact arithmetic.

    nec1: (s-1) d(v, V_k) <= d(v) for every vertex and part.
    nec2 (r = s+1 only): |E(V_i,V_j)| = (d_i + d_j)/(s-1) - |E(G)|/C(s,2)
    for every part pair, plus nonnegativity of the induced x values.
    """

    nec1_ok: bool
    nec1_violations: list[tuple[Vertex, int]]
    nec2_ok: bool
    nec2_violations: list[tuple[int, int]] = field(default_factory=list)
    x_values: list[Fraction] = field(default_factory=list)
    d_values: list[int] = field(default_factory=list)
    pair_counts: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def admissible(self) -> bool:
        return self.nec1_ok and self.nec2_ok


def check_admissible(graph: MultipartiteGraph) -> AdmissibilityReport:
    st = graph.structure
    r, s, n = st.r, st.s, st.n

    nec1_violations = []
    for v in st.vertices():
        dv = graph.total_degree(v)
        for k in range(r):
            if k == v[0]:
                continue
            if (s - 1) * graph.degree(v, k) > dv:
                nec1_violations.append((v, k))

    pair_counts = {(i, j): graph.pair_count(i, j) for i, j in st.part_pairs()}

    if r != s + 1:
        return AdmissibilityReport(
            nec1_ok=not nec1_violations,
            nec1_violations=nec1_violations,
            nec2_ok=True,
            pair_counts=pair_counts,
        )

    d = [sum(pair_counts[tuple(sorted((l, k)))] for k in range(r) if k != l)
         for l in range(r)]
    total = sum(d) // 2
    nec2_violations = []
    for (i, j), cnt in pair_counts.items():
        # scaled by (s-1) C(s,2) to stay in integers
        lhs = cnt * (s - 1) * binom(s, 2)
        rhs = (d[i] + d[j]) * binom(s, 2) - total * (s - 1)
        if lhs != rhs:
            nec2_violations.append((i, j))

    x = [Fraction(total, binom(s, 2)) - Fraction(d[l], s - 1) for l in range(r)]
    nec2_ok = not nec2_violations and all(xl >= 0 for xl in x)
    return AdmissibilityReport(
        nec1_ok=not nec1_violations,
        nec1_violations=nec1_violations,
        nec2_ok=nec2_ok,
        nec2_violations=nec2_violations,
        x_values=x,
        d_values=d,
        pair_counts=pair_counts,
    )


def threshold_c(r: int, s: int) -> tuple[Fraction, Fraction]:
    """Degree-slack thresholds (exact (r,s)-dependent, simplified r-free).

    Partite minimum degree at least (1-c)n with c below the exact bound
    guarantees a fractional K_s-decomposition (s-admissibility also needed
    when r = s+1). The simplified bound is never larger than the exact one.
    """
    if s < 3:
        raise GraphError(f"s={s} out of range, need s >= 3")
    if r < s + 1:
        raise GraphError(f"no threshold for r={r}, s={s}; need r >= s+1")
    if r >= s + 2:
        poly = (r * r * (2 * s * s - 4 * s + 1)
                + r * (-12 * s * s + 26 * s - 9)
                + (17 * s * s - 39 * s + 16))
        exact = Fraction((r - s) * (r - s - 1), (s - 2) * (s + 1) * poly)
        simplified = Fraction(1, (s - 2) * (s + 1) * (s - 1) ** 4)
    else:
        q1 = s**5 + s**4 - 3 * s**3 - s**2 + 2 * s + 16
        q2 = 3 * s**3 - 11 * s**2 + 12 * s - 3
        exact = Fraction(s * (s - 1) ** 2 * (s + 2), (s - 2) * q1 * q2)
        simplified = Fraction(1, 3 * s**3 * (s - 2) ** 2)
    return exact, simplified


def generate_admissible_instance(
    r: int, s: int, n: int, defect_budget: int, seed: int,
    per_part_cap: int = 1,
) -> MultipartiteGraph:
    """Random s-admissible test instance with controlled degree slack.

    r = s+1: deletes defect_budget vertex-disjoint transversal (s+1)-cliques,
    which preserves the pair-count identity exactly and keeps
    delta-hat = n - 1 (for budget >= 1). r >= s+2: deletes defect_budget
    uniformly random edges subject to losing at most per_part_cap edges per
    (vertex, foreign part), so delta-hat >= n - per_part_cap.
    """
    if defect_budget < 0:
        raise GraphError(f"defect budget {defect_budget} is negative")
    g = make_complete(r, s, n)
    if defect_budget == 0:
        return g
    rng = random.Random(seed)

    if r == s + 1:
        if defect_budget > n:
            raise GraphError(
                f"cannot place {defect_budget} vertex-disjoint transversal "
                f"cliques with part size {n}")
        cols = [rng.sample(range(n), defect_budget) for _ in range(r)]
        for t in range(defect_budget):
            g = g.delete_transversal_clique([(p, cols[p][t]) for p in range(r)])
        return g

    lost = np.zeros((r * n, r), dtype=np.int64)
    edges = [e for e in g.structure.host_edges()]
    rng.shuffle(edges)
    chosen = []
    for (p1, i1), (p2, i2) in edges:
        if len(chosen) == defect_budget:
            break
        if lost[p1 * n + i1, p2] >= per_part_cap or lost[p2 * n + i2, p1] >= per_part_cap:
            continue
        lost[p1 * n + i1, p2] += 1
        lost[p2 * n + i2, p1] += 1
        chosen.append(((p1, i1), (p2, i2)))
    if len(chosen) < defect_budget:
        raise GraphError(
            f"defect budget {defect_budget} infeasible under per-part cap "
            f"{per_part_cap}")
    return g.delete_edges(chosen)
