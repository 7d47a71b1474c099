"""End-to-end fractional clique decomposition pipeline.

Finds the K_s copies of G as one boolean n^s mask cube per part subset,
applies the defect operator from G's missing edges (`defect`), runs the
contractive fixed-point iteration for the block system, and holds the
decomposition implicitly as the edge solution y, whose weight cubes are
built block by block on demand. The decomposition is verified edge by edge
by axis sums over those cubes, in the verifier that the CLI shares.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import chain, combinations

import numpy as np

from .graph_core import (
    EdgeKey,
    GraphError,
    MultipartiteGraph,
    binom,
    check_admissible,
    threshold_c,
)
from .defect import DefectPlan, defect_plan
from .scheme import EdgeVector
from .spectral import apply_eta_shift, apply_mgamma, apply_mgamma_inverse, eta_star


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
    """The K_s copies of G, block by block, plus the defect plan of G.

    A block is a part subset that has cliques, in lexicographic order of the
    subsets. Its cliques are the True cells of one boolean n^s mask cube:
    cell (i_0, ..., i_{s-1}) is the clique with vertex (parts[j], i_j) in
    column j. The masks are rebuilt from G's missing edges on every pass,
    one block at a time, so nothing is stored per clique. `plan` holds what
    the defect operator needs of the host cliques that G lost, and their
    count; the lost cliques themselves are never listed.
    """

    plan: DefectPlan
    graph: MultipartiteGraph = field(repr=False)

    @cached_property
    def _edge_masks(self) -> dict:
        """The n x n "is an edge of G" mask of each part pair with missing edges."""
        n = self.graph.structure.n
        edges = {}
        for pp, cells in _missing_by_pair(self.graph).items():
            edges[pp] = np.ones((n, n), dtype=bool)
            edges[pp][tuple(cells)] = False
        return edges

    def masks(self):
        """(parts, mask) per block.

        The mask is the AND of the C(s,2) edge masks of the block's part
        pairs, each broadcast along its two axes.
        """
        st = self.graph.structure
        r, s, n = st.r, st.s, st.n
        edges = self._edge_masks
        for parts in combinations(range(r), s):
            mask = np.ones((n,) * s, dtype=bool)
            for a, b in combinations(range(s), 2):
                if (parts[a], parts[b]) in edges:
                    mask &= _on_axes(edges[(parts[a], parts[b])], a, b, s)
            if mask.any():
                yield parts, mask
            del mask  # before the next block's mask is allocated

    def __len__(self):
        """C(r,s) n^s host cliques less the broken ones; no pass over the masks."""
        st = self.graph.structure
        return binom(st.r, st.s) * st.n ** st.s - self.plan.num_broken

    @property
    def blocks(self) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """(parts, index) per block: the (K_b, s) cells of its mask, rows in
        lexicographic order.

        Built on each access; the solve, the weights and the verifier never
        need it.
        """
        return [(parts, _mask_rows(mask)) for parts, mask in self.masks()]

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


def _mask_rows(mask: np.ndarray) -> np.ndarray:
    """The (k, s) indices of the True cells of an n^s mask, rows in lexicographic order.

    Filled a column at a time from the flat cell ids into one preallocated
    array; np.argwhere would also hold np.nonzero's s index arrays.
    """
    n, s = mask.shape[0], mask.ndim
    cells = np.flatnonzero(mask)
    rows = np.empty((cells.size, s), dtype=np.int64)
    for j in range(s - 1, 0, -1):
        np.divmod(cells, n, out=(cells, rows[:, j]))
    rows[:, 0] = cells
    return rows


def _missing_by_pair(graph: MultipartiteGraph) -> dict:
    """Per part pair (p1, p2), the (i1, i2) index arrays of its missing edges, sorted."""
    edges = np.fromiter(chain.from_iterable(chain.from_iterable(graph.missing)),
                        dtype=np.int64, count=4 * len(graph.missing)).reshape(-1, 4)
    edges = edges[np.lexsort(edges.T[::-1])]
    pairs = edges[:, 0] * graph.structure.r + edges[:, 2]
    return {divmod(int(pp), graph.structure.r): edges[pairs == pp][:, [1, 3]].T
            for pp in np.unique(pairs)}


def enumerate_cliques(graph: MultipartiteGraph) -> CliqueList:
    """The K_s copies of G, block by block, and G's defect plan.

    On a part subset, the cliques of G are the cells of the n^s cube where
    all C(s,2) "is an edge of G" masks hold; `CliqueList.masks` builds those
    cubes on demand, so only the defect plan is built here.
    """
    return CliqueList(plan=defect_plan(graph), graph=graph)


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


def apply_delta(z: np.ndarray, plan: DefectPlan, eta=None) -> np.ndarray:
    """Defect operator of the plan's graph on a host vector; missing-edge rows are zero.

    The host cliques split into those of G and the broken ones B, so on the
    E(G) rows M_G - M_Gamma = -(W_B W_B^T), which `plan.broken_sums` applies
    without listing B. With an eta shift, which cancels on the E(G) x E(G)
    block, the E_2 block against the missing edges adds -eta E_2[G, miss]
    applied to z restricted to them.
    """
    graph = plan.graph
    ng = graph.indexing.num_graph_edges
    out = np.zeros_like(z)
    out[:ng] = -plan.broken_sums(z)
    if eta is not None:
        zhat = np.zeros_like(z)
        zhat[ng:] = z[ng:]
        out[:ng] -= apply_eta_shift(EdgeVector(graph.indexing, zhat), eta)[:ng]
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
    num_edges: int = 0  # |E(G)|
    num_missing: int = 0
    num_broken: int = 0  # host cliques through a missing edge
    num_cliques: int = 0  # K_s copies of G
    residuals: list = field(default_factory=list)  # one per iteration
    min_y: float = float("nan")  # least entry of y on E(G)
    num_negative_y: int = 0  # entries of y on E(G) below 0
    timings: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["residuals"] = list(self.residuals)
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
    The Delta applies use the defect plan of `cliques`; without `cliques`,
    only that plan is built. The report gets
    the residual of every iteration and, on convergence, the least entry and
    the negative count of y = z on E(G).
    """
    st = graph.structure
    if report is None:
        report = SolveReport()
    plan = cliques.plan if cliques is not None else defect_plan(graph)
    if eta is None and st.r < st.s + 2:
        raise SolveError("host operator singular at r = s+1; use the eta path")
    if eta is not None:
        report.eta = float(eta)
    vec = lambda v: EdgeVector(graph.indexing, v)
    minv = lambda v: apply_mgamma_inverse(vec(v), eta)
    delta = lambda v: apply_delta(v, plan, eta)
    mfull = lambda v: apply_mgamma(vec(v), eta)

    m = graph.indexing.num_edges
    ones = np.ones(m)
    z = minv(ones)
    dz = delta(z)
    prev_step = None
    contraction = 0.0
    report.residuals = []
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
        report.residuals.append(report.final_residual_inf)
        report.measured_contraction = float(contraction)
        if residual < tol:
            report.converged = True
            y = z[:graph.indexing.num_graph_edges]
            report.min_y = float(y.min()) if y.size else float("nan")
            report.num_negative_y = int(np.count_nonzero(y < 0))
            return z, report
    raise NonConvergence(
        f"no convergence after {max_iter} iterations "
        f"(residual {report.final_residual_inf:.3e})")


@dataclass
class FractionalDecomposition:
    """Nonnegative weights on the K_s copies of G; edge sums should be 1.

    Held implicitly as the clique list and the edge solution y on E(G), in
    G-first order: w(K) is the sum of y over the edges of K. Every view of
    the weights (`cubes`, `blocks`, `items`, `weights`) is built on demand,
    one block at a time, in the block order of `cliques.masks()`.
    """

    cliques: CliqueList
    y: np.ndarray

    def cubes(self):
        """(parts, mask, weights) per block, weights an n^s cube that is 0 off the mask.

        Every cell of the cube is the broadcast sum of the C(s,2) n x n
        slices of y in host order (0 on missing edges), added in column pair
        order. Weights in [-CLIP_TOL, 0) on the mask are floating-point
        noise and are clipped; anything more negative raises NegativeWeight.
        Entries of y may be negative.
        """
        graph = self.cliques.graph
        st = graph.structure
        s, n = st.s, st.n
        ed = graph.indexing
        host = np.zeros(ed.num_edges)
        host[ed.order[:ed.num_graph_edges]] = self.y
        host = host.reshape(-1, n, n)
        pair_pos = {pp: t for t, pp in enumerate(st.part_pairs())}
        for parts, mask in self.cliques.masks():
            terms = (_on_axes(host[pair_pos[(parts[a], parts[b])]], a, b, s)
                     for a, b in combinations(range(s), 2))
            cube = np.empty(mask.shape)
            cube[...] = next(terms)
            for term in terms:
                cube += term
            cube *= mask  # off the mask 0, which is above -CLIP_TOL
            worst = float(cube.min())
            if worst < -CLIP_TOL:
                raise NegativeWeight(
                    f"clique weight {worst:.3e} below -{CLIP_TOL:.0e}")
            np.clip(cube, 0.0, None, out=cube)
            yield parts, mask, cube
            del mask, cube  # before the next block's are allocated

    @cached_property
    def min_weight(self) -> float:
        """The least clique weight, 0.0 without cliques; one pass over `cubes`."""
        least = []
        for _, mask, cube in self.cubes():
            least.append(float(np.min(cube, where=mask, initial=np.inf)))
            del mask, cube
        return min(least, default=0.0)

    def blocks(self):
        """(parts, index, weights) per block, index rows in lexicographic order."""
        for parts, mask, cube in self.cubes():
            index = _mask_rows(mask)
            yield parts, index, cube[mask]
            del mask, cube, index

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
            del index, weights

    @property
    def weights(self) -> np.ndarray:
        """Every clique's weight in block order, as one array built on each access.

        Each block's weights go straight into one array sized by the clique
        count, so no weight is held twice. Read-only, because writing to a
        copy would change no weight.
        """
        w = np.empty(len(self.cliques))
        start = 0
        for _, mask, cube in self.cubes():
            end = start + np.count_nonzero(mask)
            w[start:end] = cube[mask]
            start = end
            del mask, cube
        w.flags.writeable = False
        return w


CLIP_TOL = 1e-12
VERIFY_TOL = 1e-8  # largest |edge sum - 1| of a verified decomposition


def extract_weights(y: np.ndarray, cliques: CliqueList) -> FractionalDecomposition:
    """The decomposition w(K) = sum of y over the edges of K, checked for sign.

    y is indexed by the edges of G in G-first order; entries of y may be
    negative. One pass over the weight cubes applies the NegativeWeight
    rule of `FractionalDecomposition.cubes` to every clique and records the
    least weight; no per-clique array is kept.
    """
    decomp = FractionalDecomposition(cliques=cliques, y=y)
    decomp.min_weight  # the pass that raises NegativeWeight
    return decomp


def bin_cliques(graph: MultipartiteGraph, blocks):
    """Count and weight-sum cubes of a stream of weighted index rows.

    `blocks` yields (parts, index, weights) with `index` a (K, s) integer
    array of vertex indices, `parts` either a (K, s) array of their parts or
    one sequence of s parts shared by the block, and `weights` of shape (K,).
    Each row is sorted by part, and the rows of each part subset are binned
    into the (parts, counts, sums) cubes that `verify_cliques` checks by
    np.bincount over their flat cell ids. Raises VerificationFailed on
    a malformed shape, a vertex outside the host, two vertices in one part,
    or a negative or non-finite weight.
    """
    st = graph.structure
    r, s, n = st.r, st.s, st.n
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
        order = np.argsort(parts, axis=-1, kind="stable")
        if parts.ndim == 1:
            parts, index = np.broadcast_to(parts[order], index.shape), index[:, order]
        else:
            parts = np.take_along_axis(parts, order, axis=1)
            index = np.take_along_axis(index, order, axis=1)
        same = parts[:, 1:] == parts[:, :-1]
        if same.any():
            _reject("has two vertices in one part", parts, index, same.any(axis=1))
        cells = np.ravel_multi_index(tuple(index.T), (n,) * s)
        subset = parts @ r ** np.arange(s - 1, -1, -1)
        by_subset = np.argsort(subset, kind="stable")
        subset, cells, weights = subset[by_subset], cells[by_subset], weights[by_subset]
        starts = np.flatnonzero(np.diff(subset, prepend=-1))
        for lo, hi in zip(starts, [*starts[1:], subset.size]):
            yield (tuple(parts[by_subset[lo]].tolist()),
                   np.bincount(cells[lo:hi], minlength=n ** s).reshape((n,) * s),
                   np.bincount(cells[lo:hi], weights=weights[lo:hi],
                               minlength=n ** s).reshape((n,) * s))


def verify_cliques(graph: MultipartiteGraph, cubes) -> tuple[float, EdgeKey | None]:
    """Check per-block clique count and weight-sum cubes against G edge by edge.

    `cubes` yields (parts, counts, sums) per block: s parts in any order and
    two n^s arrays whose cell (i_0, ..., i_{s-1}) holds the number and the
    total weight of the cliques with vertex (parts[j], i_j) in each column
    j. A library decomposition passes its mask and weight cubes (`cubes()`)
    straight in; index-row streams are binned by `bin_cliques` first. The
    missing edges come from `graph.missing` through this function's own
    (part, index) arithmetic, not from the solver's masks. On the part pair
    of axes (a, b), the edge sums are the weight cube summed over the other
    s-2 axes, and an edge lies in a clique where the count cube is nonzero
    along them. Raises VerificationFailed on a vertex outside the host, two
    vertices in one part, a negative or non-finite weight, a clique through
    a missing edge, or an edge of G in no clique. Returns the largest
    |edge sum - 1| over E(G) and an edge attaining it.
    """
    st = graph.structure
    r, s, n = st.r, st.s, st.n
    pair_id = np.zeros((r, r), dtype=np.int64)
    for t, (p, q) in enumerate(combinations(range(r), 2)):
        pair_id[p, q] = pair_id[q, p] = t
    shape = (r * (r - 1) // 2, n, n)
    missing = np.zeros(shape, dtype=bool)
    p1, i1, p2, i2 = np.array([[p, i, q, j] for (p, i), (q, j) in graph.missing],
                              dtype=np.int64).reshape(-1, 4).T
    missing[pair_id[p1, p2], i1, i2] = True
    cover = np.zeros(shape)
    covered = np.zeros(shape, dtype=bool)

    for parts, counts, sums in cubes:
        parts = np.asarray(parts, dtype=np.int64)
        counts, sums = np.asarray(counts), np.asarray(sums, dtype=float)
        if parts.shape != (s,) or counts.shape != (n,) * s or sums.shape != counts.shape:
            raise VerificationFailed(
                f"block of parts of shape {parts.shape} with cubes of shape "
                f"{counts.shape} and {sums.shape}")
        if parts.min() < 0 or parts.max() >= r:
            _reject_cell("has a vertex outside the host", parts, counts != 0)
        order = np.argsort(parts, kind="stable")
        parts, counts, sums = parts[order], counts.transpose(order), sums.transpose(order)
        if np.any(parts[1:] == parts[:-1]):
            _reject_cell("has two vertices in one part", parts, counts != 0)
        if not (sums.min() >= 0 and np.isfinite(sums.max())):
            _reject_cell("has a negative or non-finite weight", parts,
                         ~(np.isfinite(sums) & (sums >= 0)))
        for a, b in combinations(range(s), 2):
            other = tuple(c for c in range(s) if c not in (a, b))
            t = pair_id[parts[a], parts[b]]
            hit = counts.any(axis=other)
            if (hit & missing[t]).any():
                _reject_cell("uses a missing edge", parts,
                             (counts != 0) & _on_axes(missing[t], a, b, s))
            covered[t] |= hit
            cover[t] += sums.sum(axis=other)
        del counts, sums  # before the next block's cubes are built

    missing, cover, covered = missing.ravel(), cover.ravel(), covered.ravel()
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


def _reject_cell(what: str, parts: np.ndarray, cells: np.ndarray):
    """Raise VerificationFailed naming the first cube cell where cells holds."""
    cell = np.unravel_index(int(np.argmax(cells)), cells.shape)
    _reject(what, parts, np.array([cell]), True)


def _edge_of(e: int, r: int, n: int) -> EdgeKey:
    """The edge with lexicographic id e: pair number, then (i1, i2)."""
    pair, rest = divmod(int(e), n * n)
    p1, p2 = list(combinations(range(r), 2))[pair]
    return ((p1, rest // n), (p2, rest % n))


def verify_decomposition(graph: MultipartiteGraph,
                         decomp: FractionalDecomposition) -> float:
    """Max deviation of any per-edge weight sum from 1, recomputed from scratch.

    Passes the decomposition's mask and weight cubes to the shared verifier,
    so it also raises VerificationFailed on a negative weight, a clique
    through a missing edge or an uncovered edge.
    """
    return verify_cliques(graph, decomp.cubes())[0]


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
    report.num_edges = graph.indexing.num_graph_edges
    report.num_missing = len(graph.missing)
    report.num_broken = cliques.plan.num_broken
    report.num_cliques = len(cliques)
    report.timings["enumerate"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    z, report = neumann_solve(graph, cliques, eta=eta, tol=tol,
                              max_iter=max_iter, report=report)
    report.timings["solve"] = time.perf_counter() - t2

    t3 = time.perf_counter()
    ng = graph.indexing.num_graph_edges
    decomp = extract_weights(z[:ng], cliques)
    report.min_weight = decomp.min_weight
    report.max_edge_sum_error = verify_decomposition(graph, decomp)
    report.verified = report.max_edge_sum_error < VERIFY_TOL
    report.timings["verify"] = time.perf_counter() - t3
    return decomp, report
