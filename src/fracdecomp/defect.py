"""The defect operator of G, applied from its missing edges.

`defect_plan` builds, once per graph, what the solver's `apply_delta` needs
to sum over the host cliques that G lost without listing them, and their
count; see `DefectPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .graph_core import MultipartiteGraph, binom


def _through(r: int, s: int, n: int, j: int) -> int:
    """C(r-j, s-j) n^(s-j): the host K_s copies through j vertices in j distinct parts."""
    return binom(r - j, s - j) * n ** (s - j) if j <= s else 0


class _HostIds:
    """G-first edge ids of vertex pairs, a vertex (p, i) given as p n + i."""

    def __init__(self, graph: MultipartiteGraph):
        st = graph.structure
        r, n = st.r, st.n
        self.r, self.n, self.pos = r, n, graph.indexing.pos
        self.pairs = np.array(st.part_pairs(), dtype=np.int64).reshape(-1, 2)
        p1, p2 = self.pairs.T
        # the lexicographic id of ((p1, i1), (p2, i2)) is u n + w + shift[p1, p2]
        # for u = p1 n + i1 and w = p2 n + i2
        self.shift = np.zeros(r * r, dtype=np.int64)
        self.shift[p1 * r + p2] = np.arange(p1.size) * n * n - (p1 * n + p2) * n

    def lex(self, u, w) -> np.ndarray:
        """The lexicographic ids of the edges from the vertices u to the
        vertices w in other parts, arrays broadcast."""
        lo, hi = np.minimum(u, w), np.maximum(u, w)
        lex = lo * self.n
        lex += hi
        lex += self.shift.take(lo // self.n * self.r + hi // self.n)
        return lex

    def __call__(self, u, w) -> np.ndarray:
        """The same edges' G-first ids."""
        return self.pos.take(self.lex(u, w))


@dataclass
class DefectPlan:
    """What the defect operator needs of G, built once per graph by `defect_plan`.

    The broken host cliques B, those with a missing edge, enter the operator
    only through W_B W_B^T z: each K in B puts z summed over its edges onto
    its edges. With mu(K) the number of missing edges in K, inclusion-
    exclusion over the M missing edges m gives

        sum_m sum_{K through m} 1_K 1_K^T z - sum_{mu(K) >= 2} (mu(K) - 1) 1_K 1_K^T z.

    A host clique through m = (a, b) is m plus one vertex in each of s-2 of
    the other r-2 parts, so the first sum is count arithmetic with the
    numbers `through[j]` = C(r-j, s-j) n^(s-j) of host cliques through j
    given vertices in distinct parts. On the edges from a or b it takes z on
    the edges from a and b, gathered through `link`, and the vertex and pair
    sums of z. On an edge (x, y) off m's parts it is a row term, a column
    term, a constant and a multiple of z(x, y), summed over the part pairs
    of the missing edges. The cliques with two or more missing edges, about
    M^2 n^(s-4) of them, are listed in `multi`.

    Missing edge k is the G-first edge ng + k, and every id is G-first. Of
    the P part pairs of the host, the G that hold missing edges are the
    "groups" below.
    """

    graph: MultipartiteGraph = field(repr=False)
    through: tuple  # through[j] for j = 0..6
    pairs: np.ndarray  # (P, 2) the parts of each part pair
    group: np.ndarray  # (M,) the group of each missing edge, 0..G-1 ascending
    starts: np.ndarray  # (G,) the first missing edge of each group
    group_parts: np.ndarray  # (G, 2) the parts of each group
    group_others: np.ndarray  # (G, r-2) the other parts, ascending
    link: np.ndarray  # (2, M, r-2, n): edges from each end of edge k to the other parts
    disjoint: np.ndarray  # (G, P) 1.0 where a group and pair t share no part
    sizes: np.ndarray  # (P,) the missing edges in the groups disjoint from pair t
    weighted: np.ndarray  # (P, r) the same, counted at both parts of their group
    avoid3: np.ndarray  # (G * (r-2), P) 1.0 where pair t avoids a group and one other part
    avoid4: np.ndarray  # (P, P) the missing edges in groups that avoid pairs t and u
    multi: np.ndarray  # (C(s,2), L) the edges of the host cliques with mu >= 2
    excess: np.ndarray  # (L,) mu - 1 of each
    scatter: np.ndarray  # link and multi, flat, which are views of it

    @property
    def num_broken(self) -> int:
        """|B| = M C(r-2,s-2) n^(s-2) - sum over mu >= 2 of (mu - 1)."""
        return self.group.size * self.through[2] - int(self.excess.sum())

    def broken_sums(self, z: np.ndarray) -> np.ndarray:
        """W_B W_B^T z on the edges of G, from z on every host edge; G-first order."""
        ng = self.graph.indexing.num_graph_edges
        if not self.group.size:
            return np.zeros(ng)
        c3, c4 = float(self.through[3]), float(self.through[4])
        zm = z[ng:]
        # the terms on the link's edges, twice (from a and from b), then the
        # terms of the cliques with mu >= 2: the weights of one bincount
        weights = np.empty(self.scatter.size)
        size = self.link[0].size
        h = weights[:size].reshape(self.link.shape[1:])
        np.take(z, self.link[0], out=h)
        h += np.take(z, self.link[1])  # z(a, x) + z(b, x) for each missing (a, b)
        if c4:
            extra, off = self._off_pairs(z, zm, h)
        ends = h
        ends += zm[:, None, None]
        ends *= c3
        if c4:
            ends += extra
        weights[size:2 * size] = weights[:size]
        sigma = np.take(z, self.multi).sum(axis=0)
        sigma *= self.excess
        weights[2 * size:].reshape(self.multi.shape)[...] = np.negative(sigma, out=sigma)
        out = np.bincount(self.scatter, weights=weights, minlength=z.size)
        if c4:
            out += off
        return out[:ng]

    def _off_pairs(self, z, zm, h) -> tuple[np.ndarray, np.ndarray]:
        """The terms of s >= 4, where a clique through m = (a, b) has more
        vertices off m's parts than x: those on the edges (a, x) and (b, x),
        laid out as `link`, and those on the edges (x, y), G-first.
        """
        st = self.graph.structure
        r, n = st.r, st.n
        ed = self.graph.indexing
        c4, c5, c6 = map(float, self.through[4:7])
        p1, p2 = self.pairs.T
        ar = np.arange(p1.size)
        host = z[ed.pos].reshape(-1, n, n)  # the host layout of scheme.EdgeVector
        rows, cols = host.sum(axis=2), host.sum(axis=1)
        toward = np.zeros((r, r, n))  # [p, q, i]: over the edges from (p, i) to part q
        toward[p1, p2], toward[p2, p1] = rows, cols
        vertex = toward.sum(axis=1)
        pair = rows.sum(axis=1)
        others = self.group_others
        gp, gq = self.group_parts.T

        # at (a, x), x in part t: the other vertices avoid m's parts and t
        hs = h.sum(axis=2)
        around = vertex[others] - toward[others, gp[:, None]] - toward[others, gq[:, None]]
        extra = c4 * ((hs.sum(axis=1)[:, None] - hs)[:, :, None] + around[self.group])
        if c5:
            extra += c5 * (self.avoid3 @ pair).reshape(-1, r - 2)[self.group][:, :, None]

        # at (x, y) on pair (t, u): per vertex, h summed over the missing
        # edges in the groups that avoid t and u
        g = self.starts.size
        per_pair = np.zeros((g, r, n))
        per_pair[np.arange(g)[:, None], others] = np.add.reduceat(h, self.starts, axis=0)
        hsum = (self.disjoint.T @ per_pair.reshape(g, -1)).reshape(-1, r, n)
        row, col = c4 * hsum[ar, p1], c4 * hsum[ar, p2]
        const = c4 * (np.add.reduceat(zm, self.starts) @ self.disjoint)
        if c5:
            totals = hsum.sum(axis=2)
            const += c5 * (totals.sum(axis=1) - totals[ar, p1] - totals[ar, p2])
            row += c5 * (self.sizes[:, None] * (vertex[p1] - rows)
                         - np.einsum("pw,pwi->pi", self.weighted, toward[p1]))
            col += c5 * (self.sizes[:, None] * (vertex[p2] - cols)
                         - np.einsum("pw,pwi->pi", self.weighted, toward[p2]))
        if c6:
            const += c6 * (self.avoid4 @ pair)
        out = (c4 * self.sizes)[:, None, None] * host
        out += (row + const[:, None])[:, :, None]
        out += col[:, None, :]
        return extra, out.reshape(-1)[ed.order]


def defect_plan(graph: MultipartiteGraph) -> DefectPlan:
    """The index arrays and counts of G's defect operator; see DefectPlan."""
    st = graph.structure
    r, s, n = st.r, st.s, st.n
    ed = graph.indexing
    ids = _HostIds(graph)
    host = ids.pairs
    pair_of, cell = np.divmod(ed.order[ed.num_graph_edges:], n * n)
    new = np.diff(pair_of, prepend=-1) != 0
    starts = np.flatnonzero(new)
    group = np.cumsum(new) - 1
    count = np.diff(np.append(starts, pair_of.size)).astype(float)
    g_parts = host[pair_of[starts]]
    g_others = np.nonzero(_avoids(g_parts, np.arange(r)[:, None]))[1].reshape(-1, r - 2)

    i1, i2 = np.divmod(cell, n)
    u = np.stack([g_parts[group, 0] * n + i1, g_parts[group, 1] * n + i2])
    multi, excess = _multi_defect(graph, ids, u)

    # link and multi are filled into one array, the flat ids that
    # broken_sums adds onto. The edges from an end u of a missing edge to
    # part t: lexicographic ids from those to (t, 0), in steps of 1 if u's
    # part is below t, else n
    others = g_others[group]
    scatter = np.empty(u.size * (r - 2) * n + multi.size, dtype=np.int64)
    link = scatter[:u.size * (r - 2) * n].reshape(*u.shape, r - 2, n)
    np.multiply(np.where(u[:, :, None] // n < others, 1, n)[..., None], np.arange(n),
                out=link)
    link += ids.lex(u[:, :, None], others * n)[..., None]
    link[...] = ids.pos.take(link)
    scatter[link.size:] = multi.ravel()

    disjoint = _avoids(g_parts, host).astype(float)
    at_part = np.zeros((starts.size, r))
    at_part[np.arange(starts.size)[:, None], g_parts] = 1.0
    trios = np.concatenate([np.repeat(g_parts[:, None], r - 2, axis=1),
                            g_others[:, :, None]], axis=2)
    return DefectPlan(
        graph=graph,
        through=tuple(_through(r, s, n, j) for j in range(7)),
        pairs=host, group=group, starts=starts,
        group_parts=g_parts, group_others=g_others,
        link=link, disjoint=disjoint,
        sizes=count @ disjoint,
        weighted=disjoint.T @ (count[:, None] * at_part),
        avoid3=_avoids(trios.reshape(-1, 3), host).astype(float),
        avoid4=(disjoint.T @ (count[:, None] * disjoint)) * _avoids(host, host),
        multi=scatter[link.size:].reshape(multi.shape), excess=excess, scatter=scatter)


def _avoids(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[i, j]: the parts in row a[i] and those in row b[j] are disjoint."""
    return ~(a[:, :, None, None] == b[None, None]).any(axis=(1, 3))


def _multi_defect(graph: MultipartiteGraph, ids: _HostIds,
                  ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The host cliques with two or more missing edges, each once, and mu - 1.

    The first two missing edges i < j of such a clique share a vertex or,
    for s >= 4, lie on four distinct parts. Each such pair's three or four
    vertices are extended by every choice of one vertex in each of s-3 or
    s-4 further parts, and a clique is kept only where (i, j) are its first
    two missing edges. `ends` holds the two ends of each missing edge, a
    vertex (p, i) as p n + i. Returns (C(s,2), L) G-first edge ids and (L,)
    counts. Every array is a column of its own: numpy is slow on rows of 2
    to 4 entries.
    """
    st = graph.structure
    r, s, n = st.r, st.s, st.n
    ng = graph.indexing.num_graph_edges
    u, w = ends
    m = u.size
    # pairs at a shared vertex: every two entries of a run of one vertex in
    # the list of (end, edge), sorted
    key = np.sort(np.concatenate([u, w]) * m + np.tile(np.arange(m), 2))
    at, edge = np.divmod(key, m)
    run_end = np.flatnonzero(np.diff(at, append=-1))
    later = np.repeat(run_end, np.diff(run_end, prepend=-1)) - np.arange(at.size)
    first = np.repeat(np.arange(at.size), later)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
    i, j, v = edge[first], edge[second], at[first]
    far_i, far_j = u[i] + w[i] - v, u[j] + w[j] - v
    keep = far_i // n != far_j // n
    batches = [(i[keep], j[keep], [v[keep], far_i[keep], far_j[keep]])]
    if s >= 4:  # pairs on four distinct parts
        i, j = np.triu_indices(m, 1)
        pu, pw = u // n, w // n
        keep = ((pu[i] != pu[j]) & (pu[i] != pw[j])
                & (pw[i] != pu[j]) & (pw[i] != pw[j]))
        i, j = i[keep], j[keep]
        batches.append((i, j, [u[i], w[i], u[j], w[j]]))

    a, b = np.array(list(combinations(range(s), 2))).T
    multi, excess = [], []
    for i, j, core in batches:
        k = s - len(core)
        extras = np.array(list(combinations(range(r), k)),
                          dtype=np.int64).reshape(binom(r, k), k).T
        free = np.indices((n,) * k).reshape(k, 1, n ** k)
        fits = np.ones((i.size, extras.shape[1]), dtype=bool)
        for c in core:
            for e in extras:
                fits &= (c // n)[:, None] != e
        row, extra = np.nonzero(fits)
        size = row.size * n ** k
        verts = np.concatenate([np.repeat(np.array(core)[:, row], n ** k, axis=1),
                                (extras[:, extra, None] * n + free).reshape(k, size)])
        edges = ids(verts[a], verts[b])
        lost = edges >= ng
        missing = np.where(lost, edges, ids.pos.size)
        least = missing.min(axis=0)
        missing[missing == least] = ids.pos.size
        mine = (least == ng + np.repeat(i[row], n ** k))
        mine &= missing.min(axis=0) == ng + np.repeat(j[row], n ** k)
        multi.append(edges[:, mine])
        excess.append(lost[:, mine].sum(axis=0) - 1)
    return np.concatenate(multi, axis=1), np.concatenate(excess)
