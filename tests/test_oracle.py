import numpy as np
import pytest

from fracdecomp import oracle
from fracdecomp.graph_core import generate_admissible_instance, make_complete
from fracdecomp.scheme import NUM_CLASSES, valency
from fracdecomp.spectral import eta_star


class TestDenseAdjacency:
    def test_row_sums_are_valencies(self):
        A = oracle.dense_adjacency_matrices(4, 2)
        for i in range(NUM_CLASSES):
            assert (A[i].sum(axis=1) == valency(i, 4, 2)).all()

    def test_symmetric_binary_partition(self):
        A = oracle.dense_adjacency_matrices(5, 2)
        total = sum(A)
        assert (total == 1).all()
        for a in A:
            assert (a == a.T).all()
            assert set(np.unique(a)) <= {0, 1}

    def test_size_cap(self):
        with pytest.raises(oracle.SizeCapExceeded):
            oracle.dense_adjacency_matrices(10, 40, cap=2000)


class TestCensus:
    @pytest.mark.parametrize("r,n", [(4, 2), (5, 2)])
    def test_all_intersection_numbers_hold(self, r, n):
        counts = oracle.brute_relation_census(r, n)
        m = make_complete(r, 3, n).structure.num_edges
        assert counts[0] == m
        assert sum(counts.values()) == m * m

    def test_class5_pair_count(self):
        counts = oracle.brute_relation_census(5, 2)
        assert counts[5] == 40 * valency(5, 5, 2) == 480

    def test_same_part_classes_empty_at_n_1(self):
        counts = oracle.brute_relation_census(4, 1)
        assert counts[1] == counts[2] == counts[4] == 0


class TestBruteCliques:
    def test_complete_count(self):
        # C(5,3) part triples times n^3 vertex choices
        assert len(list(oracle.brute_cliques(make_complete(5, 3, 2)))) == 80

    def test_avoids_missing_edges(self):
        g = make_complete(4, 3, 1).delete_edges([((0, 0), (1, 0))])
        assert list(oracle.brute_cliques(g)) == [
            ((0, 0), (2, 0), (3, 0)), ((1, 0), (2, 0), (3, 0))]


class TestBruteMgamma:
    def test_diagonal_4_3_2(self):
        # each edge lies on C(r-2, s-2) n^(s-2) = 4 triangles of the host
        M = oracle.brute_mgamma(4, 3, 2)
        assert (np.diag(M) == 4).all()

    def test_fifth_associate_entries(self):
        A = oracle.dense_adjacency_matrices(4, 2)
        M = oracle.brute_mgamma(4, 3, 2)
        assert (M[A[5] == 1] == 0).all()
        A6 = oracle.dense_adjacency_matrices(6, 2)
        M6 = oracle.brute_mgamma(6, 4, 2)
        assert (M6[A6[5] == 1] == 1).all()

    @pytest.mark.parametrize("r,s,n", [(4, 3, 2), (5, 3, 2), (6, 4, 2)])
    def test_equals_closed_form_combination(self, r, s, n):
        from fracdecomp.spectral import mgamma_element

        A = oracle.dense_adjacency_matrices(r, n)
        coeffs = mgamma_element(r, s, n).coeffs
        target = sum(int(c) * A[i] for i, c in enumerate(coeffs))
        assert (oracle.brute_mgamma(r, s, n) == target).all()


class TestDenseSolve:
    def test_complete_eta_path_uniform(self):
        g = make_complete(4, 3, 2)
        z = oracle.dense_solve(g, eta=float(eta_star(3, 2)))
        assert np.allclose(z, 1 / 12)

    def test_host_operator_singular_at_r_equals_s_plus_1(self):
        M = oracle.brute_mgamma(4, 3, 2).astype(float)
        assert np.abs(np.linalg.eigvalsh(M)).min() < 1e-10
        shifted = M + float(eta_star(3, 2)) * oracle.dense_idempotents(4, 2)[2]
        assert np.abs(np.linalg.eigvalsh(shifted)).min() > 0.5

    def test_defected_instance_satisfies_block_system(self):
        g = generate_admissible_instance(5, 3, 4, 3, seed=0)
        z = oracle.dense_solve(g)
        M = oracle.dense_system(g)
        assert np.abs(M @ z - 1.0).max() < 1e-9


class TestHelpers:
    def test_inf_norm(self):
        m = np.array([[1.0, -2.0], [0.5, 0.25]])
        assert oracle.dense_inf_norm(m) == 3.0

    def test_group_spectrum(self):
        vals = np.array([1.0, 1.0 + 1e-9, 2.0, 3.0, 3.0, 3.0])
        got = oracle.group_spectrum(vals, 3.0)
        assert [m for _, m in got] == [2, 1, 3]

    def test_size_cap_on_solve(self):
        g = make_complete(5, 3, 32)
        with pytest.raises(oracle.SizeCapExceeded):
            oracle.dense_solve(g, cap=2000)
