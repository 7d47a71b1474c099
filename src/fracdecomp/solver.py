"""End-to-end fractional clique decomposition pipeline.

Enumerates the K_s copies of G as integer index arrays, one block per part
subset, applies the defect operator through the host cliques that G lost,
runs the contractive fixed-point iteration for the block system, extracts
per-clique weights, and verifies the decomposition edge by edge with the
block verifier that the CLI shares.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .graph_core import (
    EdgeKey,
    GraphError,
    MultipartiteGraph,
    check_admissible,
    threshold_c,
)
from .scheme import EdgeVector, apply_idempotent
from .spectral import apply_mgamma, apply_mgamma_inverse, eta_star


class SolveError(GraphError):
    pass


class NonConvergence(SolveError):
    pass


class NegativeWeight(SolveError):
    pass


class VerificationFailed(SolveError):
    pass


@dataclass
class CliqueList:
    """The K_s copies of G, block by block, plus the host cliques G lost.

    `blocks` holds one (parts, index) pair per part subset that has cliques,
    in lexicographic order of the subsets; row k of `index` is the clique
    with vertex (parts[j], index[k, j]) in column j, rows in lexicographic
    order. `broken` lists the C(s,2) G-first edge indices of the host
    cliques that contain at least one missing edge, each exactly once: the
    defect operator needs only those.
    """

    blocks: list[tuple[tuple[int, ...], np.ndarray]]
    broken: np.ndarray  # shape (|B|, C(s,2))
    graph: MultipartiteGraph = field(repr=False)

    def __len__(self):
        return sum(index.shape[0] for _, index in self.blocks)

    @property
    def incidence(self) -> np.ndarray:
        """G-first indices of the C(s,2) edges of every clique, rows in block order.

        Built on each access, shape (len(self), C(s,2)); the solve and the
        weights never need it.
        """
        s = self.graph.structure.s
        return np.concatenate(
            [np.zeros((0, s * (s - 1) // 2), dtype=np.int64)]
            + [_edge_columns(self.graph, parts, index) for parts, index in self.blocks])


def _edge_columns(graph: MultipartiteGraph, parts, index: np.ndarray) -> np.ndarray:
    """G-first indices of the C(s,2) edges of each clique of one block."""
    ed = graph.indexing
    n = graph.structure.n
    pair_pos = {pp: t for t, pp in enumerate(graph.structure.part_pairs())}
    pairs = list(combinations(range(len(parts)), 2))
    out = np.empty((index.shape[0], len(pairs)), dtype=np.int64)
    for t, (a, b) in enumerate(pairs):
        out[:, t] = ed.pos[pair_pos[(parts[a], parts[b])] * n * n
                           + index[:, a] * n + index[:, b]]
    return out


def _on_axes(mat: np.ndarray, a: int, b: int, s: int) -> np.ndarray:
    """An n x n array as a view broadcast along the axes a < b of an s-cube."""
    shape = [1] * s
    shape[a], shape[b] = mat.shape
    return mat.reshape(shape)


def _missing_by_pair(graph: MultipartiteGraph) -> dict:
    """Per part pair (p1, p2), the (i1, i2) index arrays of its missing edges."""
    grouped: dict = {}
    for (p1, i1), (p2, i2) in graph.missing:
        grouped.setdefault((p1, p2), []).append((i1, i2))
    return {pp: np.asarray(sorted(v), dtype=np.int64).T for pp, v in grouped.items()}


def _block_broken(n: int, parts, missing: dict) -> tuple[np.ndarray, np.ndarray]:
    """Host cliques on one part subset through a missing edge, with duplicates.

    Each missing edge in the column pair t = (a, b) is extended by every choice
    of the other s-2 vertices. Returns the cliques and, per row, the t that
    generated it; a clique with several missing edges appears once per edge.
    """
    s = len(parts)
    free = np.indices((n,) * (s - 2)).reshape(s - 2, -1).T
    rows, gen = [], []
    for t, (a, b) in enumerate(combinations(range(s), 2)):
        if (parts[a], parts[b]) not in missing:
            continue
        i1, i2 = missing[(parts[a], parts[b])]
        block = np.empty((i1.size, free.shape[0], s), dtype=np.int64)
        block[:, :, a] = i1[:, None]
        block[:, :, b] = i2[:, None]
        block[:, :, [c for c in range(s) if c not in (a, b)]] = free[None]
        rows.append(block.reshape(-1, s))
        gen.append(np.full(rows[-1].shape[0], t))
    if not rows:
        return np.zeros((0, s), dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(rows), np.concatenate(gen)


def broken_cliques(graph: MultipartiteGraph) -> np.ndarray:
    """G-first edge indices of the host cliques through a missing edge.

    One row per broken clique, shape (|B|, C(s,2)). A broken clique is kept
    only from its first missing edge in column order, so it appears once
    however many missing edges it contains.
    """
    st = graph.structure
    ng = graph.indexing.num_graph_edges
    missing = _missing_by_pair(graph)
    broken = [np.zeros((0, st.s * (st.s - 1) // 2), dtype=np.int64)]
    for parts in combinations(range(st.r), st.s):
        lost, gen = _block_broken(st.n, parts, missing)
        if lost.shape[0]:
            ids = _edge_columns(graph, parts, lost)
            broken.append(ids[np.argmax(ids >= ng, axis=1) == gen])
    return np.concatenate(broken)


def enumerate_cliques(graph: MultipartiteGraph) -> CliqueList:
    """The K_s copies of G and the broken host cliques, block by block.

    On a part subset, the cliques of G are the cells of the n^s cube where
    all C(s,2) "is an edge of G" masks hold, each mask broadcast along its
    two axes; the nonzero cells come in lexicographic order. Complete and
    duplicate-free by construction.
    """
    st = graph.structure
    r, s, n = st.r, st.s, st.n
    missing = _missing_by_pair(graph)
    blocks = []
    for parts in combinations(range(r), s):
        cube = np.ones((n,) * s, dtype=bool)
        for a, b in combinations(range(s), 2):
            if (parts[a], parts[b]) in missing:
                edge = np.ones((n, n), dtype=bool)
                edge[tuple(missing[(parts[a], parts[b])])] = False
                cube &= _on_axes(edge, a, b, s)
        index = np.argwhere(cube)
        if index.shape[0]:
            blocks.append((parts, index))
    return CliqueList(blocks=blocks, broken=broken_cliques(graph), graph=graph)


def _edge_sums(v: np.ndarray, inc: np.ndarray) -> np.ndarray:
    """Per clique, the sum of v over its edges."""
    out = v[inc[:, 0]]
    for c in range(1, inc.shape[1]):
        out += v[inc[:, c]]
    return out


def _clique_sums(inc: np.ndarray, v: np.ndarray, size: int) -> np.ndarray:
    """W W^T v for a clique-edge incidence: each clique's edge sum onto its edges."""
    sigma = _edge_sums(v, inc)
    return np.bincount(inc.ravel(), weights=np.repeat(sigma, inc.shape[1]),
                       minlength=size)


def apply_mg(y: np.ndarray, cliques: CliqueList, num_graph_edges: int) -> np.ndarray:
    """Clique-pair operator of G: accumulate each clique's edge sum onto its edges."""
    return _clique_sums(cliques.incidence, y, num_graph_edges)[:num_graph_edges]


def apply_delta(z: np.ndarray, graph: MultipartiteGraph,
                cliques: CliqueList | np.ndarray, eta=None) -> np.ndarray:
    """Defect operator on a full host vector; missing-edge rows are zero.

    The host cliques split into those of G and the broken ones B, so on the
    E(G) rows M_G - M_Gamma = -(W_B W_B^T): the sum over the broken cliques.
    `cliques` is G's clique list or only its `broken` incidence. With an eta
    shift, which cancels on the E(G) x E(G) block, the E_2 block against the
    missing edges adds -eta E_2[G, miss] applied to z restricted to them.
    """
    broken = cliques.broken if isinstance(cliques, CliqueList) else cliques
    ng = graph.indexing.num_graph_edges
    out = np.zeros_like(z)
    out[:ng] = -_clique_sums(broken, z, z.size)[:ng]
    if eta is not None:
        zhat = np.zeros_like(z)
        zhat[ng:] = z[ng:]
        e2_tail = apply_idempotent(2, EdgeVector(graph.indexing, zhat))
        out[:ng] -= float(eta) * e2_tail[:ng]
    return out


@dataclass
class SolveReport:
    iterations: int = 0
    final_residual_inf: float = float("nan")
    measured_contraction: float = float("nan")
    guarantee: str = "attempted"  # "certified" | "attempted"
    c_actual: float = float("nan")
    c_bound: float = float("nan")
    admissible: bool = True
    converged: bool = False
    min_weight: float = float("nan")
    max_edge_sum_error: float = float("nan")
    eta: float | None = None
    verified: bool = False  # max_edge_sum_error < VERIFY_TOL
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["timings"] = dict(self.timings)
        return d


def neumann_solve(graph: MultipartiteGraph, cliques: CliqueList | None = None,
                  eta=None, tol: float = 1e-10, max_iter: int = 200,
                  report: SolveReport | None = None) -> tuple[np.ndarray, SolveReport]:
    """Fixed-point iteration z <- Minv(1 - Delta z) for the block system.

    M is the host operator (eta-shifted when eta is given); geometric
    convergence at the contraction rate of Minv Delta, which the certified
    regime bounds by 1/2. With z' = Minv(1 - Delta z) the residual of z' is
    Delta (z' - z), so one iteration costs one Minv and one Delta apply; the
    true residual of the block system is confirmed before stopping.
    Without `cliques`, only the broken cliques are built.
    """
    st = graph.structure
    r, s, n = st.r, st.s, st.n
    if report is None:
        report = SolveReport()
    broken = cliques.broken if cliques is not None else broken_cliques(graph)
    if eta is None and r < s + 2:
        raise SolveError("host operator singular at r = s+1; use the eta path")
    if eta is not None:
        report.eta = float(eta)
    vec = lambda v: EdgeVector(graph.indexing, v)
    minv = lambda v: apply_mgamma_inverse(r, s, n, vec(v), eta)
    delta = lambda v: apply_delta(v, graph, broken, eta)
    mfull = lambda v: apply_mgamma(r, s, n, vec(v), eta)

    m = graph.indexing.num_edges
    ones = np.ones(m)
    z = minv(ones)
    dz = delta(z)
    prev_step = None
    contraction = 0.0
    for it in range(1, max_iter + 1):
        z_next = minv(ones - dz)
        dz_next = delta(z_next)
        step = np.abs(z_next - z).max()
        if prev_step is not None and prev_step > 0:
            contraction = max(contraction, step / prev_step)
        prev_step = step
        residual = np.abs(dz_next - dz).max()
        z, dz = z_next, dz_next
        if residual < tol:
            residual = np.abs(mfull(z) + dz - ones).max()
        report.iterations = it
        report.final_residual_inf = float(residual)
        report.measured_contraction = float(contraction)
        if residual < tol:
            report.converged = True
            return z, report
    raise NonConvergence(
        f"no convergence after {max_iter} iterations "
        f"(residual {report.final_residual_inf:.3e})")


@dataclass
class FractionalDecomposition:
    """Nonnegative weights on the K_s copies of G; edge sums should be 1.

    `weights[k]` belongs to the k-th clique in the block order of
    `cliques.blocks`.
    """

    cliques: CliqueList
    weights: np.ndarray

    def blocks(self):
        """(parts, index, weights) per block of cliques."""
        start = 0
        for parts, index in self.cliques.blocks:
            stop = start + index.shape[0]
            yield parts, index, self.weights[start:stop]
            start = stop

    def items(self):
        """(clique, weight) pairs, streamed block by block.

        A clique is a tuple of s (part, index) vertices, sorted by part; the
        vertex tuples are shared between the cliques of a block.
        """
        for parts, index, weights in self.blocks():
            n = int(index.max()) + 1
            vertices = [[(p, i) for i in range(n)] for p in parts]
            for row, w in zip(index.tolist(), weights.tolist()):
                yield tuple(map(list.__getitem__, vertices, row)), w


CLIP_TOL = 1e-12
VERIFY_TOL = 1e-8  # largest |edge sum - 1| of a verified decomposition


def extract_weights(y: np.ndarray, cliques: CliqueList) -> FractionalDecomposition:
    """Clique weights w(K) = sum of y over the edges of K.

    y is indexed by the edges of G in G-first order. Per block, the weights
    of every cell of the n^s cube are the broadcast sum of the C(s,2) n x n
    slices of y in host order (0 on missing edges), added in the column
    pair order of the incidence, and the cliques take their cells.
    Weights in [-CLIP_TOL, 0) are floating-point noise and are clipped;
    anything more negative is a hard failure. Entries of y may be negative.
    """
    graph = cliques.graph
    st = graph.structure
    s, n = st.s, st.n
    ed = graph.indexing
    host = np.zeros(ed.num_edges)
    host[ed.order[:ed.num_graph_edges]] = y
    host = host.reshape(-1, n, n)
    pair_pos = {pp: t for t, pp in enumerate(st.part_pairs())}
    w = np.empty(len(cliques))
    start = 0
    for parts, index in cliques.blocks:
        terms = (_on_axes(host[pair_pos[(parts[a], parts[b])]], a, b, s)
                 for a, b in combinations(range(s), 2))
        cube = np.empty((n,) * s)
        cube[...] = next(terms)
        for term in terms:
            cube += term
        w[start:start + index.shape[0]] = cube[tuple(index.T)]
        start += index.shape[0]
    worst = float(w.min()) if w.size else 0.0
    if worst < -CLIP_TOL:
        raise NegativeWeight(
            f"clique weight {worst:.3e} below -{CLIP_TOL:.0e}")
    np.clip(w, 0.0, None, out=w)
    return FractionalDecomposition(cliques=cliques, weights=w)


def verify_cliques(graph: MultipartiteGraph, blocks) -> tuple[float, EdgeKey | None]:
    """Check weighted cliques against G edge by edge.

    `blocks` yields (parts, index, weights) with `index` a (K, s) integer
    array of vertex indices, `parts` either a (K, s) array of their parts or
    one sequence of s parts shared by the block, and `weights` of shape (K,).
    Edge ids come from this function's own (part, index) arithmetic, not
    from the solver's incidence. Raises VerificationFailed on a vertex
    outside the host, two vertices in one part, a negative or non-finite
    weight, a clique through a missing edge, or an edge of G in no clique.
    Returns the largest |edge sum - 1| over E(G) and an edge attaining it.
    """
    st = graph.structure
    r, s, n = st.r, st.s, st.n
    pair_id = np.zeros((r, r), dtype=np.int64)
    for t, (p, q) in enumerate(combinations(range(r), 2)):
        pair_id[p, q] = pair_id[q, p] = t
    size = st.num_edges
    missing = np.zeros(size, dtype=bool)
    for (p1, i1), (p2, i2) in graph.missing:
        missing[(pair_id[p1, p2] * n + i1) * n + i2] = True
    cover = np.zeros(size)
    covered = np.zeros(size, dtype=bool)

    for parts, index, weights in blocks:
        index = np.asarray(index, dtype=np.int64)
        parts = np.asarray(parts, dtype=np.int64)
        weights = np.asarray(weights, dtype=float)
        if (index.ndim != 2 or index.shape[1] != s
                or parts.shape not in ((s,), index.shape)
                or weights.shape != index.shape[:1]):
            raise VerificationFailed(
                f"cliques of shape {index.shape} with parts of shape "
                f"{parts.shape} and weights of shape {weights.shape}")
        if index.shape[0] == 0:
            continue
        if min(index.min(), parts.min()) < 0 or index.max() >= n or parts.max() >= r:
            outside = (parts < 0) | (parts >= r) | (index < 0) | (index >= n)
            _reject("has a vertex outside the host", parts, index, outside.any(axis=-1))
        if not (weights.min() >= 0 and np.isfinite(weights.max())):
            _reject("has a negative or non-finite weight", parts, index,
                    ~(np.isfinite(weights) & (weights >= 0)))
        if parts.ndim == 2:  # one row of parts per clique: sort each by part
            order = np.argsort(parts, axis=1, kind="stable")
            parts = np.take_along_axis(parts, order, axis=1)
            index = np.take_along_axis(index, order, axis=1)
        for a, b in combinations(range(s), 2):
            pa, pb = parts[..., a], parts[..., b]
            if np.any(pa == pb):
                _reject("has two vertices in one part", parts, index, pa == pb)
            ids = (pair_id[pa, pb] * n + index[:, a]) * n + index[:, b]
            if missing[ids].any():
                _reject("uses a missing edge", parts, index, missing[ids])
            cover += np.bincount(ids, weights=weights, minlength=size)
            covered[ids] = True

    edges = np.flatnonzero(~missing)
    if edges.size == 0:
        return 0.0, None
    bare = edges[~covered[edges]]
    if bare.size:
        raise VerificationFailed(
            f"{bare.size} edges of G lie in no clique, first {_edge_of(bare[0], r, n)}")
    err = np.abs(cover[edges] - 1.0)
    worst = int(err.argmax())
    return float(err[worst]), _edge_of(edges[worst], r, n)


def _reject(what: str, parts: np.ndarray, index: np.ndarray, rows):
    """Raise VerificationFailed naming the first clique of a block where rows holds."""
    k = int(np.argmax(np.broadcast_to(rows, index.shape[:1])))
    clique = [(int(p), int(i))
              for p, i in zip(np.broadcast_to(parts, index.shape)[k], index[k])]
    raise VerificationFailed(f"clique {clique} {what}")


def _edge_of(e: int, r: int, n: int) -> EdgeKey:
    """The edge with lexicographic id e: pair number, then (i1, i2)."""
    pair, rest = divmod(int(e), n * n)
    p1, p2 = list(combinations(range(r), 2))[pair]
    return ((p1, rest // n), (p2, rest % n))


def verify_decomposition(graph: MultipartiteGraph,
                         decomp: FractionalDecomposition) -> float:
    """Max deviation of any per-edge weight sum from 1, recomputed from scratch.

    Runs the shared block verifier, so it also raises VerificationFailed on a
    negative weight, a clique through a missing edge or an uncovered edge.
    """
    return verify_cliques(graph, decomp.blocks())[0]


def decompose(graph: MultipartiteGraph, tol: float = 1e-10, max_iter: int = 200,
              eta=None) -> tuple[FractionalDecomposition, SolveReport]:
    """Full pipeline: admissibility, certification, solve, weights, verification."""
    st = graph.structure
    r, s, n = st.r, st.s, st.n
    if r < s + 1:
        raise SolveError(f"r = s is out of scope, got r={r}, s={s}")
    report = SolveReport()
    t0 = time.perf_counter()

    adm = check_admissible(graph)
    report.admissible = adm.admissible
    c_actual = Fraction(n - graph.min_partite_degree(), n)
    c_bound, _ = threshold_c(r, s)
    report.c_actual = float(c_actual)
    report.c_bound = float(c_bound)
    certified = adm.admissible and c_actual <= c_bound
    report.guarantee = "certified" if certified else "attempted"

    if r == s + 1:
        if not adm.admissible:
            raise SolveError(
                "inadmissible input on the r = s+1 path: "
                f"nec1 violations {adm.nec1_violations[:3]}, "
                f"nec2 violations {adm.nec2_violations[:3]}")
        if eta is None:
            eta = eta_star(s, n)
    report.timings["admissibility"] = time.perf_counter() - t0

    t1 = time.perf_counter()
    cliques = enumerate_cliques(graph)
    report.timings["enumerate"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    z, report = neumann_solve(graph, cliques, eta=eta, tol=tol,
                              max_iter=max_iter, report=report)
    report.timings["solve"] = time.perf_counter() - t2

    t3 = time.perf_counter()
    ng = graph.indexing.num_graph_edges
    decomp = extract_weights(z[:ng], cliques)
    report.min_weight = float(decomp.weights.min()) if len(cliques) else 0.0
    report.max_edge_sum_error = verify_decomposition(graph, decomp)
    report.verified = report.max_edge_sum_error < VERIFY_TOL
    report.timings["verify"] = time.perf_counter() - t3
    return decomp, report
