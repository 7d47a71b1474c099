"""The 5-class association scheme on the edge set of the complete host.

Relation classes on edge pairs:
  0  identical edges
  1  same two parts, exactly one shared vertex
  2  same two parts, vertex-disjoint
  3  exactly one shared part, one shared vertex
  4  exactly one shared part, vertex-disjoint
  5  no shared part

Provides exact intersection numbers and eigenmatrices, plus O(|E|)
matrix-free application of every element of the scheme algebra: one pass
over the host layout, from its row, column, vertex, pair and part sums.
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
    """Vector on E(Gamma) in the host layout, with its row and column sums.

    `host[t, i1, i2]` is the value on the edge ((p1, i1), (p2, i2)) of the
    t-th part pair; `rows` sums it over i2 and `cols` over i1. The G-first
    values are scattered into the layout once, by `edges.order`.
    """

    def __init__(self, edges: EdgeIndexing, values):
        self.edges = edges
        values = np.asarray(values, dtype=float)
        m = edges.num_edges
        if values.shape != (m,):
            raise GraphError(f"vector length {values.shape} != edge count {m}")
        n = edges.structure.n
        host = np.empty(m)
        host[edges.order] = values
        self.host = host.reshape(-1, n, n)
        self.rows = self.host.sum(axis=2)
        self.cols = self.host.sum(axis=1)


def apply_scheme_element(elem: SchemeElement, vec: EdgeVector) -> np.ndarray:
    """sum_k a_k A_k applied to the vector in one pass; G-first order out.

    On the edge ((p1, i1), (p2, i2)) of part pair t the output is
      alpha v + beta (rows[t, i1] + cols[t, i2]) + gamma (V(p1, i1) + V(p2, i2))
      + (a2 - 2 a4 + a5) P(t) + (a4 - a5) (S(p1) + S(p2)) + a5 T
    with alpha = a0 - 2 a1 + a2, beta = a1 - a2 - a3 + a4, gamma = a3 - a4,
    V the vertex totals, P the pair sums, S the part sums and T the total.
    """
    st = vec.edges.structure
    r, n = st.r, st.n
    if elem.basis == "E":
        elem = elem.to_basis("A", eigenmatrices(r, n))
    a0, a1, a2, a3, a4, a5 = map(float, elem.coeffs)
    p1, p2 = np.array(st.part_pairs()).T
    toward = np.zeros((r, r, n))  # [p, q, i]: over the edges from (p, i) to part q
    toward[p1, p2], toward[p2, p1] = vec.rows, vec.cols
    vertex = toward.sum(axis=1)
    pair = vec.rows.sum(axis=1)
    part = vertex.sum(axis=1)
    beta, gamma = a1 - a2 - a3 + a4, a3 - a4
    const = (a2 - 2 * a4 + a5) * pair + (a4 - a5) * (part[p1] + part[p2]) \
        + a5 * pair.sum()
    out = (a0 - 2 * a1 + a2) * vec.host
    out += (beta * vec.rows + gamma * vertex[p1] + const[:, None])[:, :, None]
    out += (beta * vec.cols + gamma * vertex[p2])[:, None, :]
    return out.reshape(-1)[vec.edges.order]


def apply_adjacency(i: int, vec: EdgeVector) -> np.ndarray:
    """A_i applied to the vector: output(e) = sum over i-th associates e' of v(e')."""
    if not 0 <= i < NUM_CLASSES:
        raise GraphError(f"class index {i} out of range")
    unit = tuple(int(k == i) for k in range(NUM_CLASSES))
    return apply_scheme_element(SchemeElement(basis="A", coeffs=unit), vec)


def apply_all_adjacency(vec: EdgeVector) -> np.ndarray:
    """All six A_i applied to the vector, shape (6, |E|); for tests only."""
    return np.stack([apply_adjacency(i, vec) for i in range(NUM_CLASSES)])


def apply_idempotent(i: int, vec: EdgeVector) -> np.ndarray:
    """E_i applied to the vector, via E_i = sum_j D(i,j) A_j."""
    st = vec.edges.structure
    em = eigenmatrices(st.r, st.n)
    return apply_scheme_element(SchemeElement(basis="A", coeffs=tuple(em.D[i])), vec)
