from fractions import Fraction

import numpy as np
import pytest

from fracdecomp import oracle, scheme
from fracdecomp.graph_core import GraphError, generate_admissible_instance, make_complete
from fracdecomp.oracle import dense_adjacency_matrices, dense_idempotents
from fracdecomp.scheme import (
    EdgeVector,
    NUM_CLASSES,
    SchemeElement,
    apply_adjacency,
    apply_all_adjacency,
    apply_idempotent,
    apply_scheme_element,
    classify,
    eigenmatrices,
    intersection_number,
    valency,
)


class TestClassify:
    def test_identity(self):
        e = ((0, 0), (1, 0))
        assert classify(e, e) == 0

    def test_examples(self):
        assert classify(((0, 0), (1, 0)), ((0, 0), (1, 1))) == 1
        assert classify(((0, 0), (1, 0)), ((0, 1), (1, 1))) == 2
        assert classify(((0, 0), (1, 0)), ((0, 0), (2, 0))) == 3
        assert classify(((0, 0), (1, 0)), ((0, 1), (2, 0))) == 4
        assert classify(((0, 0), (1, 0)), ((2, 0), (3, 0))) == 5

    @pytest.mark.parametrize("r,n", [(4, 2), (5, 2), (4, 3)])
    def test_partition_with_correct_class_sizes(self, r, n):
        ed = make_complete(r, 3, n).indexing
        edges = [ed.edge(i) for i in range(ed.num_edges)]
        counts = [0] * NUM_CLASSES
        for e1 in edges:
            for e2 in edges:
                counts[classify(e1, e2)] += 1
        m = ed.num_edges
        assert counts == [m * valency(j, r, n) for j in range(NUM_CLASSES)]


class TestIntersectionNumbers:
    def test_table_entries(self):
        assert intersection_number(3, 3, 0, 4, 2) == 8
        assert intersection_number(3, 5, 4, 5, 3) == 6
        assert valency(5, 5, 2) == 12

    def test_valencies_sum_to_edge_count(self):
        total = sum(valency(j, 4, 2) for j in range(NUM_CLASSES))
        assert total == 24

    def test_symmetric_in_ij(self):
        for i in range(NUM_CLASSES):
            for j in range(NUM_CLASSES):
                for k in range(NUM_CLASSES):
                    assert intersection_number(i, j, k, 5, 3) == \
                        intersection_number(j, i, k, 5, 3)

    def test_rejects_small_r(self):
        with pytest.raises(GraphError):
            intersection_number(0, 0, 0, 3, 2)

    def test_n_equals_one_kills_same_part_classes(self):
        for j in (1, 2, 4):
            assert valency(j, 4, 1) == 0


class TestEigenmatrices:
    @pytest.mark.parametrize("r", [4, 5, 6])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mutually_inverse(self, r, n):
        em = eigenmatrices(r, n)  # raises if C*D != I
        for i in range(NUM_CLASSES):
            for k in range(NUM_CLASSES):
                acc = sum(em.C[i][j] * em.D[j][k] for j in range(NUM_CLASSES))
                assert acc == (1 if i == k else 0)

    def test_known_entries(self):
        em = eigenmatrices(5, 2)
        assert em.C[3][0] == 12  # 2(r-2)n
        assert all(em.D[0][j] == Fraction(1, 40) for j in range(NUM_CLASSES))
        assert em.C[0] == (1,) * NUM_CLASSES

    def test_multiplicities(self):
        em = eigenmatrices(5, 2)
        assert em.multiplicities(5, 2) == [1, 4, 5, 5, 15, 10]

    def test_cached_and_checked_once_per_key(self, monkeypatch):
        checked = []
        real = scheme._assert_mutually_inverse

        def spy(em):
            checked.append(em)
            real(em)
        monkeypatch.setattr(scheme, "_assert_mutually_inverse", spy)
        eigenmatrices.cache_clear()
        first = eigenmatrices(7, 5)
        assert eigenmatrices(7, 5) is first
        other = eigenmatrices(7, 6)
        assert eigenmatrices(7, 6) is other and other is not first
        assert checked == [first, other]


class TestSchemeElement:
    def test_rational_round_trip_is_exact(self):
        em = eigenmatrices(5, 3)
        coeffs = tuple(Fraction(k, 7) for k in (3, -1, 0, 5, 2, -4))
        elem = SchemeElement(basis="A", coeffs=coeffs)
        back = elem.to_basis("E", em).to_basis("A", em)
        assert back.coeffs == coeffs

    def test_bad_basis_rejected(self):
        with pytest.raises(GraphError):
            SchemeElement(basis="B", coeffs=(0,) * 6)


def defected_graphs():
    """(5,3,6) minus 12 edges at cap 2, and (4,3,4) minus a transversal."""
    yield generate_admissible_instance(5, 3, 6, 12, seed=4, per_part_cap=2)
    yield make_complete(4, 3, 4).delete_transversal_clique(
        [(p, p) for p in range(4)])


@pytest.fixture(scope="module")
def host_4_2():
    ed = make_complete(4, 3, 2).indexing
    A = dense_adjacency_matrices(4, 2)
    return ed, A


class TestMatrixFreeOperators:
    def test_all_ones_gives_valencies(self, host_4_2):
        ed, _ = host_4_2
        vec = EdgeVector(ed, np.ones(ed.num_edges))
        out = apply_all_adjacency(vec)
        for i in range(NUM_CLASSES):
            assert np.allclose(out[i], valency(i, 4, 2))

    def test_a0_is_identity(self, host_4_2):
        ed, _ = host_4_2
        v = np.random.default_rng(0).standard_normal(ed.num_edges)
        assert np.array_equal(apply_adjacency(0, EdgeVector(ed, v)), v)

    def test_matches_dense_oracle(self, host_4_2):
        # the complete host, then defected graphs whose G-first order
        # permutes the base order
        cases = [host_4_2]
        for g in defected_graphs():
            st = g.structure
            A = [oracle._permuted(a, g) for a in dense_adjacency_matrices(st.r, st.n)]
            cases.append((g.indexing, A))
        rng = np.random.default_rng(1)
        for ed, A in cases:
            for _ in range(5):
                v = rng.standard_normal(ed.num_edges)
                out = apply_all_adjacency(EdgeVector(ed, v))
                for i in range(NUM_CLASSES):
                    assert np.abs(A[i] @ v - out[i]).max() < 1e-12

    def test_product_identity_as_operators(self, host_4_2):
        # A_i A_j = sum_k p_ij^k A_k on random vectors
        ed, _ = host_4_2
        rng = np.random.default_rng(2)
        for _ in range(10):
            v = rng.standard_normal(ed.num_edges)
            av = apply_all_adjacency(EdgeVector(ed, v))
            for i in range(NUM_CLASSES):
                for j in range(NUM_CLASSES):
                    lhs = apply_adjacency(i, EdgeVector(ed, av[j]))
                    rhs = sum(
                        intersection_number(i, j, k, 4, 2) * av[k]
                        for k in range(NUM_CLASSES))
                    assert np.abs(lhs - rhs).max() < 1e-9

    def test_idempotents_resolve_identity(self, host_4_2):
        ed, _ = host_4_2
        rng = np.random.default_rng(3)
        v = rng.standard_normal(ed.num_edges)
        parts = [apply_idempotent(i, EdgeVector(ed, v))
                 for i in range(NUM_CLASSES)]
        assert np.abs(sum(parts) - v).max() < 1e-9
        for i in range(NUM_CLASSES):
            for j in range(NUM_CLASSES):
                again = apply_idempotent(i, EdgeVector(ed, parts[j]))
                target = parts[j] if i == j else 0.0
                assert np.abs(again - target).max() < 1e-9

    def test_e2_annihilates_all_ones(self, host_4_2):
        ed, _ = host_4_2
        out = apply_idempotent(2, EdgeVector(ed, np.ones(ed.num_edges)))
        assert np.abs(out).max() < 1e-10

    def test_e2_annihilates_admissible_indicator(self):
        # indicator of E(G) for an admissible G at r = s+1
        g = make_complete(4, 3, 4).delete_transversal_clique(
            [(p, 0) for p in range(4)])
        ed = g.indexing
        one_g = np.zeros(ed.num_edges)
        one_g[:ed.num_graph_edges] = 1.0
        out = apply_idempotent(2, EdgeVector(ed, one_g))
        assert np.abs(out).max() < 1e-10


class TestLemmaStyleSpectra:
    def test_six_eigenvalues_of_marker_element(self):
        # dense 2r^2 A_0 + r^2 A_1 + A_3 at (4,2) has the six stated eigenvalues
        r, n = 4, 2
        A = dense_adjacency_matrices(r, n)
        M = 2 * r * r * A[0] + r * r * A[1] + A[3]
        expected = {
            2 * n * (r * r + r - 2),
            n * (2 * r * r + r - 4),
            2 * n * (r * r - 1),
            n * (r * r + r - 2),
            n * (r * r - 1),
            0,
        }
        vals = np.linalg.eigvalsh(M.astype(float))
        for v in vals:
            assert min(abs(v - e) for e in expected) < 1e-8
        for e in expected:
            assert np.abs(vals - e).min() < 1e-8

    def test_dense_idempotent_residuals(self):
        for r, n in [(4, 2), (5, 2)]:
            E = dense_idempotents(r, n)
            eye = np.eye(E[0].shape[0])
            assert np.abs(sum(E) - eye).max() < 1e-10
            for i in range(NUM_CLASSES):
                for j in range(NUM_CLASSES):
                    target = E[i] if i == j else 0.0
                    assert np.abs(E[i] @ E[j] - target).max() < 1e-10


def test_apply_scheme_element_linearity():
    ed = make_complete(5, 3, 2).indexing
    rng = np.random.default_rng(4)
    v = rng.standard_normal(ed.num_edges)
    elem = SchemeElement(basis="E", coeffs=tuple(Fraction(k) for k in range(6)))
    out = apply_scheme_element(elem, EdgeVector(ed, v))
    expect = sum(k * apply_idempotent(k, EdgeVector(ed, v)) for k in range(6))
    assert np.abs(out - expect).max() < 1e-9
