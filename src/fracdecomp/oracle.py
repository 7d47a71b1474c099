"""Desk-scale brute-force ground truth for every closed form.

Builds the dense relation matrices, clique-pair matrices, idempotents, and
defect blocks by direct enumeration, and exposes numeric eigendecomposition
and dense linear solves. Dense work is guarded by an edge-count cap.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from .graph_core import GraphError, MultipartiteGraph, binom, make_complete
from .scheme import NUM_CLASSES, eigenmatrices, intersection_number

DEFAULT_SIZE_CAP = 2000


class SizeCapExceeded(GraphError):
    pass


def _check_cap(num_edges: int, cap: int):
    if num_edges > cap:
        raise SizeCapExceeded(
            f"dense oracle refused: {num_edges} edges exceeds cap {cap}")


def dense_adjacency_matrices(r: int, n: int, cap: int = DEFAULT_SIZE_CAP):
    """The six 0/1 relation matrices of the scheme, by pairwise classification."""
    if r < 4:
        raise GraphError(f"scheme needs r >= 4, got r={r}")
    m = binom(r, 2) * n * n
    _check_cap(m, cap)
    # the complete host's G-first order is the base order: pair, then (i1, i2)
    pair, rest = np.divmod(np.arange(m), n * n)
    p1, p2 = np.array(list(combinations(range(r), 2))).T[:, pair]
    v1, v2 = p1 * n + rest // n, p2 * n + rest % n

    same_pp = (p1[:, None] == p1[None, :]) & (p2[:, None] == p2[None, :])
    share1 = (p1[:, None] == p1[None, :]) | (p1[:, None] == p2[None, :]) \
        | (p2[:, None] == p1[None, :]) | (p2[:, None] == p2[None, :])
    shared_verts = ((v1[:, None] == v1[None, :]).astype(int)
                    + (v1[:, None] == v2[None, :]).astype(int)
                    + (v2[:, None] == v1[None, :]).astype(int)
                    + (v2[:, None] == v2[None, :]).astype(int))
    cls = np.full((m, m), 5, dtype=np.int64)
    cls[share1 & (shared_verts == 0)] = 4
    cls[share1 & (shared_verts == 1)] = 3
    cls[same_pp] = 2
    cls[same_pp & (shared_verts == 1)] = 1
    cls[same_pp & (shared_verts == 2)] = 0
    return [(cls == i).astype(np.int64) for i in range(NUM_CLASSES)]


def dense_idempotents(r: int, n: int, cap: int = DEFAULT_SIZE_CAP):
    """Dense E_i built from the second eigenmatrix over the relation matrices."""
    A = dense_adjacency_matrices(r, n, cap)
    em = eigenmatrices(r, n)
    return [sum(float(em.D[i][j]) * A[j] for j in range(NUM_CLASSES))
            for i in range(NUM_CLASSES)]


def brute_relation_census(r: int, n: int, cap: int = DEFAULT_SIZE_CAP) -> dict:
    """Classify all edge pairs and verify every intersection number.

    A_i A_j at entry (x, y) counts the intermediates z with (x,z) in R_i and
    (z,y) in R_j; checking it equals p_ij^k on all of R_k simultaneously
    verifies pair-independence and the table values.
    """
    A = dense_adjacency_matrices(r, n, cap)
    counts = {i: int(A[i].sum()) for i in range(NUM_CLASSES)}
    for i in range(NUM_CLASSES):
        for j in range(NUM_CLASSES):
            prod = A[i] @ A[j]
            for k in range(NUM_CLASSES):
                expected = intersection_number(i, j, k, r, n)
                got = prod[A[k] == 1]
                if got.size and not (got == expected).all():
                    raise AssertionError(
                        f"intersection number mismatch at (i={i}, j={j}, k={k}, "
                        f"r={r}, n={n}): table {expected}, "
                        f"observed {sorted(set(got.tolist()))}")
    return counts


def _clique_edge_rows(graph: MultipartiteGraph, cliques):
    ed = graph.indexing
    rows = []
    for K in cliques:
        rows.append([ed.index((u, w) if u[0] < w[0] else (w, u))
                     for u, w in combinations(K, 2)])
    return np.asarray(rows, dtype=np.int64).reshape(
        len(cliques), binom(graph.structure.s, 2))


def _gram(num_rows: int, incidence: np.ndarray) -> np.ndarray:
    """W W^T from the clique-edge incidence; float BLAS, exact at desk scale."""
    W = np.zeros((num_rows, max(incidence.shape[0], 1)))
    for col, row in enumerate(incidence):
        W[row, col] = 1.0
    return np.rint(W @ W.T).astype(np.int64)


def brute_cliques(graph: MultipartiteGraph):
    """Every K_s copy of G by exhaustive search, in lexicographic order.

    Tries each choice of s parts and one vertex in each, and keeps the
    choices whose vertex pairs are all edges of G.
    """
    st = graph.structure
    for parts in combinations(range(st.r), st.s):
        for idx in product(range(st.n), repeat=st.s):
            K = tuple(zip(parts, idx))
            if all(graph.has_edge(u, w) for u, w in combinations(K, 2)):
                yield K


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
    """G-first edge indices of the host cliques through a missing edge, listed.

    One row per broken clique, shape (|B|, C(s,2)). A broken clique is kept
    only from its first missing edge in column order, so it appears once
    however many missing edges it contains. The explicit reference for the
    solver's implicit defect operator.
    """
    st = graph.structure
    r, s, n = st.r, st.s, st.n
    ed = graph.indexing
    missing = {}
    for (p1, i1), (p2, i2) in graph.missing:
        missing.setdefault((p1, p2), []).append((i1, i2))
    missing = {pp: np.array(cells, dtype=np.int64).T for pp, cells in missing.items()}
    pair_pos = {pp: t for t, pp in enumerate(st.part_pairs())}
    broken = [np.zeros((0, s * (s - 1) // 2), dtype=np.int64)]
    for parts in combinations(range(r), s):
        lost, gen = _block_broken(n, parts, missing)
        if lost.shape[0]:
            ids = np.stack([ed.pos[pair_pos[(parts[a], parts[b])] * n * n
                                   + lost[:, a] * n + lost[:, b]]
                            for a, b in combinations(range(s), 2)], axis=1)
            broken.append(ids[np.argmax(ids >= ed.num_graph_edges, axis=1) == gen])
    return np.concatenate(broken)


def broken_sums(graph: MultipartiteGraph, z: np.ndarray) -> np.ndarray:
    """W_B W_B^T z over the listed broken cliques B, G-first order.

    Each broken clique puts z summed over its edges onto its edges.
    """
    broken = broken_cliques(graph)
    sigma = z[broken].sum(axis=1)
    return np.bincount(broken.ravel(), weights=np.repeat(sigma, broken.shape[1]),
                       minlength=z.size)


def brute_mgamma(r: int, s: int, n: int, cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """Dense clique-pair matrix of the complete host, by clique enumeration."""
    host = make_complete(r, s, n)
    m = host.structure.num_edges
    _check_cap(m, cap)
    return _gram(m, _clique_edge_rows(host, list(brute_cliques(host))))


def brute_mg(graph: MultipartiteGraph, cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """Dense clique-pair matrix of G, indexed by E(G) (the first block)."""
    ng = graph.indexing.num_graph_edges
    _check_cap(graph.structure.num_edges, cap)
    return _gram(ng, _clique_edge_rows(graph, list(brute_cliques(graph))))


def dense_delta(graph: MultipartiteGraph, eta=None,
                cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """Dense defect operator in the G-first edge order (optionally eta-shifted)."""
    st = graph.structure
    m = st.num_edges
    _check_cap(m, cap)
    ng = graph.indexing.num_graph_edges
    mg_full = _permuted(brute_mgamma(st.r, st.s, st.n, cap), graph)
    delta = np.zeros((m, m), dtype=float)
    delta[:ng, :ng] = brute_mg(graph, cap) - mg_full[:ng, :ng]
    delta[:ng, ng:] = -mg_full[:ng, ng:]
    if eta is not None:
        E2 = _permuted(dense_idempotents(st.r, st.n, cap)[2], graph)
        delta[:ng, ng:] -= float(eta) * E2[:ng, ng:]
    return delta


def _permuted(mat: np.ndarray, graph: MultipartiteGraph) -> np.ndarray:
    """Reindex a host-ordered dense matrix into the graph's G-first order."""
    order = graph.indexing.order
    # host matrices built from make_complete use the base (lex) order
    return mat[np.ix_(order, order)]


def dense_system(graph: MultipartiteGraph, eta=None,
                 cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """The full dense block system: host operator (+ eta E_2) plus defect."""
    st = graph.structure
    M = _permuted(brute_mgamma(st.r, st.s, st.n, cap), graph).astype(float)
    if eta is not None:
        M = M + float(eta) * _permuted(dense_idempotents(st.r, st.n, cap)[2], graph)
    return M + dense_delta(graph, eta=eta, cap=cap)


def dense_solve(graph: MultipartiteGraph, eta=None,
                cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """Direct solve of the block system against the all-ones right-hand side."""
    M = dense_system(graph, eta=eta, cap=cap)
    try:
        return np.linalg.solve(M, np.ones(M.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise GraphError(f"dense system singular: {exc}") from exc


def numeric_spectrum(matrix: np.ndarray) -> np.ndarray:
    """Sorted eigenvalues of a symmetric dense matrix."""
    return np.linalg.eigvalsh(np.asarray(matrix, dtype=float))


def group_spectrum(values: np.ndarray, scale: float,
                   rel_tol: float = 1e-6) -> list[tuple[float, int]]:
    """Cluster near-equal numeric eigenvalues; tolerance is relative to scale."""
    out: list[tuple[float, int]] = []
    for v in sorted(values):
        if out and abs(v - out[-1][0]) <= rel_tol * abs(scale):
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((v, 1))
    return out


def dense_inf_norm(matrix: np.ndarray) -> float:
    return float(np.abs(np.asarray(matrix, dtype=float)).sum(axis=1).max())
