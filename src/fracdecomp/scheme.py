"""The 5-class association scheme on the edge set of the complete host.

Relation classes on edge pairs:
  0  identical edges
  1  same two parts, exactly one shared vertex
  2  same two parts, vertex-disjoint
  3  exactly one shared part, one shared vertex
  4  exactly one shared part, vertex-disjoint
  5  no shared part

Provides exact intersection numbers and eigenmatrices, plus O(|E|)
matrix-free application of every adjacency matrix A_i and primitive
idempotent E_i via per-part-pair / per-vertex aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .graph_core import EdgeIndexing, EdgeKey, GraphError, binom

NUM_CLASSES = 6


def classify(e1: EdgeKey, e2: EdgeKey) -> int:
    """Relation class of an ordered edge pair of the host."""
    (a1, a2), (b1, b2) = e1, e2
    parts1 = {a1[0], a2[0]}
    parts2 = {b1[0], b2[0]}
    shared_parts = len(parts1 & parts2)
    shared_verts = len({a1, a2} & {b1, b2})
    if shared_parts == 2:
        if shared_verts == 2:
            return 0
        return 1 if shared_verts == 1 else 2
    if shared_parts == 1:
        return 3 if shared_verts == 1 else 4
    return 5


def _intersection_tables(r: int, n: int):
    """The six 6x6 tables p_ij^k as integer numpy arrays, index [k][i][j]."""
    c2 = lambda a: a * (a - 1) // 2
    p0 = np.diag([1, 2 * (n - 1), (n - 1) ** 2, 2 * (r - 2) * n,
                  2 * (r - 2) * (n - 1) * n, c2(r - 2) * n * n])
    p1 = np.array([
        [0, 1, 0, 0, 0, 0],
        [1, n - 2, n - 1, 0, 0, 0],
        [0, n - 1, (n - 1) * (n - 2), 0, 0, 0],
        [0, 0, 0, (r - 2) * n, (r - 2) * n, 0],
        [0, 0, 0, (r - 2) * n, (r - 2) * (2 * n - 3) * n, 0],
        [0, 0, 0, 0, 0, c2(r - 2) * n * n],
    ])
    p2 = np.array([
        [0, 0, 1, 0, 0, 0],
        [0, 2, 2 * (n - 2), 0, 0, 0],
        [1, 2 * (n - 2), (n - 2) ** 2, 0, 0, 0],
        [0, 0, 0, 0, 2 * (r - 2) * n, 0],
        [0, 0, 0, 2 * (r - 2) * n, 2 * (r - 2) * (n - 2) * n, 0],
        [0, 0, 0, 0, 0, c2(r - 2) * n * n],
    ])
    p3 = np.array([
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, n - 1, n - 1, 0],
        [0, 0, 0, 0, (n - 1) ** 2, 0],
        [1, n - 1, 0, (r - 3) * n + 1, n - 1, (r - 3) * n],
        [0, n - 1, (n - 1) ** 2, n - 1, ((r - 2) * n - 1) * (n - 1),
         (r - 3) * (n - 1) * n],
        [0, 0, 0, (r - 3) * n, (r - 3) * (n - 1) * n, c2(r - 3) * n * n],
    ])
    p4 = np.array([
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 1, 2 * n - 3, 0],
        [0, 0, 0, n - 1, (n - 1) * (n - 2), 0],
        [0, 1, n - 1, 1, (r - 2) * n - 1, (r - 3) * n],
        [1, 2 * n - 3, (n - 1) * (n - 2), (r - 2) * n - 1,
         (r - 3) * (n - 2) * n + (n - 1) ** 2, (r - 3) * (n - 1) * n],
        [0, 0, 0, (r - 3) * n, (r - 3) * (n - 1) * n, c2(r - 3) * n * n],
    ])
    p5 = np.array([
        [0, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 2 * (n - 1)],
        [0, 0, 0, 0, 0, (n - 1) ** 2],
        [0, 0, 0, 4, 4 * (n - 1), 2 * (r - 4) * n],
        [0, 0, 0, 4 * (n - 1), 4 * (n - 1) ** 2, 2 * (r - 4) * (n - 1) * n],
        [1, 2 * (n - 1), (n - 1) ** 2, 2 * (r - 4) * n,
         2 * (r - 4) * (n - 1) * n, c2(r - 4) * n * n],
    ])
    return [p0, p1, p2, p3, p4, p5]


def intersection_number(i: int, j: int, k: int, r: int, n: int) -> int:
    """p_ij^k: intermediates z with (x,z) in R_i, (z,y) in R_j for (x,y) in R_k."""
    if r < 4:
        raise GraphError(f"scheme needs r >= 4, got r={r}")
    for t in (i, j, k):
        if not 0 <= t < NUM_CLASSES:
            raise GraphError(f"class index {t} out of range")
    return int(_intersection_tables(r, n)[k][i][j])


def valency(j: int, r: int, n: int) -> int:
    """Number of j-th associates of any fixed edge: p_jj^0."""
    return intersection_number(j, j, 0, r, n)


@dataclass(frozen=True)
class Eigenmatrices:
    """First and second eigenmatrices: A_i = sum_j C[i][j] E_j, E_i = sum_j D[i][j] A_j."""

    C: tuple  # 6x6 Fractions
    D: tuple  # 6x6 Fractions

    def multiplicities(self, r: int, n: int) -> list[int]:
        m_edges = binom(r, 2) * n * n
        return [int(self.D[i][0] * m_edges) for i in range(NUM_CLASSES)]


@lru_cache(maxsize=64)
def eigenmatrices(r: int, n: int) -> Eigenmatrices:
    """The eigenmatrices of the scheme for (r, n), checked C D = I once.

    Cached because every solve needs them and the exact check costs more
    than a Minv apply; the frozen result is safe to share.
    """
    if r < 4:
        raise GraphError(f"scheme needs r >= 4, got r={r}")
    F = Fraction
    C = (
        (F(1), F(1), F(1), F(1), F(1), F(1)),
        (F(2 * (n - 1)), F(2 * (n - 1)), F(2 * (n - 1)), F(n - 2), F(n - 2), F(-2)),
        (F((n - 1) ** 2), F((n - 1) ** 2), F((n - 1) ** 2), F(1 - n), F(1 - n), F(1)),
        (F(2 * (r - 2) * n), F((r - 4) * n), F(-2 * n), F((r - 2) * n), F(-n), F(0)),
        (F(2 * (r - 2) * (n - 1) * n), F((r - 4) * (n - 1) * n),
         F(2 * (1 - n) * n), F((2 - r) * n), F(n), F(0)),
        (F(binom(r - 2, 2) * n * n), F((3 - r) * n * n), F(n * n), F(0), F(0), F(0)),
    )
    m = F(1, binom(r, 2) * n * n)
    D = (
        (m, m, m, m, m, m),
        (m * (r - 1), m * (r - 1), m * (r - 1),
         m * F((r - 4) * (r - 1), 2 * (r - 2)),
         m * F((r - 4) * (r - 1), 2 * (r - 2)),
         m * F(2 * (1 - r), r - 2)),
        (m * F(r * (r - 3), 2), m * F(r * (r - 3), 2), m * F(r * (r - 3), 2),
         m * F(r * (3 - r), 2 * (r - 2)), m * F(r * (3 - r), 2 * (r - 2)),
         m * F(r, r - 2)),
        (m * r * (n - 1), m * F(r * (n - 2), 2), m * (-r),
         m * F(r * (n - 1), 2), m * F(-r, 2), F(0)),
        (m * r * (r - 2) * (n - 1), m * F(r * (r - 2) * (n - 2), 2),
         m * r * (2 - r), m * F(r * (1 - n), 2), m * F(r, 2), F(0)),
        (m * binom(r, 2) * (n - 1) ** 2, m * binom(r, 2) * (1 - n),
         m * binom(r, 2), F(0), F(0), F(0)),
    )
    em = Eigenmatrices(C=C, D=D)
    _assert_mutually_inverse(em)
    return em


def _assert_mutually_inverse(em: Eigenmatrices):
    for i in range(NUM_CLASSES):
        for k in range(NUM_CLASSES):
            acc = sum(em.C[i][j] * em.D[j][k] for j in range(NUM_CLASSES))
            expect = Fraction(1 if i == k else 0)
            if acc != expect:
                raise AssertionError(f"C*D is not the identity at ({i},{k}): {acc}")


@dataclass(frozen=True)
class SchemeElement:
    """Element of the Bose-Mesner algebra in one of its two bases."""

    basis: str  # "A" or "E"
    coeffs: tuple

    def __post_init__(self):
        if self.basis not in ("A", "E"):
            raise GraphError(f"unknown basis {self.basis!r}")
        if len(self.coeffs) != NUM_CLASSES:
            raise GraphError("scheme elements have six coefficients")

    def to_basis(self, basis: str, em: Eigenmatrices) -> "SchemeElement":
        if basis == self.basis:
            return self
        mat = em.C if self.basis == "A" else em.D
        # sum_i a_i X_i = sum_j (sum_i a_i mat[i][j]) Y_j
        out = tuple(
            sum(self.coeffs[i] * mat[i][j] for i in range(NUM_CLASSES))
            for j in range(NUM_CLASSES))
        return SchemeElement(basis=basis, coeffs=out)


class EdgeVector:
    """Dense vector on E(Gamma) with the aggregates the operators need.

    Aggregates: total sum T, per-part-pair sums P, per-(vertex, foreign part)
    sums Q. They are refreshed in O(|E|) and consumed in O(1) per edge.
    """

    def __init__(self, edges: EdgeIndexing, values=None):
        self.edges = edges
        m = edges.num_edges
        if values is None:
            self.values = np.zeros(m)
        else:
            self.values = np.asarray(values, dtype=float)
            if self.values.shape != (m,):
                raise GraphError(
                    f"vector length {self.values.shape} != edge count {m}")
        self._refresh()

    def _refresh(self):
        ed = self.edges
        st = ed.structure
        r, n = st.r, st.n
        v = self.values
        self.T = v.sum()
        # one bincount per aggregate on flattened (row, col) cells; each
        # cell's values are added in edge order
        P = np.bincount(ed.part1 * r + ed.part2, weights=v,
                        minlength=r * r).reshape(r, r)
        P += P.T
        self.P = P
        self.S = P.sum(axis=1)  # S[p] = sum of P[p, k] over k != p
        cells = np.concatenate([ed.vert1 * r + ed.part2, ed.vert2 * r + ed.part1])
        Q = np.bincount(cells, weights=np.concatenate([v, v]),
                        minlength=r * n * r).reshape(r * n, r)
        self.Q = Q
        self.Qtot = Q.sum(axis=1)


def apply_all_adjacency(vec: EdgeVector) -> np.ndarray:
    """All six A_i applied to the vector at once; shape (6, |E|)."""
    ed = vec.edges
    v = vec.values
    p1, p2, u, w = ed.part1, ed.part2, ed.vert1, ed.vert2
    qu = vec.Q[u, p2]
    qw = vec.Q[w, p1]
    ppair = vec.P[p1, p2]
    a0 = v
    a1 = qu + qw - 2.0 * v
    a2 = ppair - qu - qw + v
    a3 = (vec.Qtot[u] - qu) + (vec.Qtot[w] - qw)
    a4 = vec.S[p1] + vec.S[p2] - 2.0 * ppair - a3
    a5 = vec.T - vec.S[p1] - vec.S[p2] + ppair
    return np.stack([a0, a1, a2, a3, a4, a5])


def apply_adjacency(i: int, vec: EdgeVector) -> np.ndarray:
    """A_i applied to the vector: output(e) = sum over i-th associates e' of v(e')."""
    if not 0 <= i < NUM_CLASSES:
        raise GraphError(f"class index {i} out of range")
    return apply_all_adjacency(vec)[i]


def apply_scheme_element(elem: SchemeElement, vec: EdgeVector) -> np.ndarray:
    if elem.basis == "E":
        st = vec.edges.structure
        elem = elem.to_basis("A", eigenmatrices(st.r, st.n))
    av = apply_all_adjacency(vec)
    coeffs = np.array([float(c) for c in elem.coeffs])
    return coeffs @ av


def apply_idempotent(i: int, vec: EdgeVector) -> np.ndarray:
    """E_i applied to the vector, via E_i = sum_j D(i,j) A_j."""
    st = vec.edges.structure
    em = eigenmatrices(st.r, st.n)
    return apply_scheme_element(SchemeElement(basis="A", coeffs=tuple(em.D[i])), vec)
