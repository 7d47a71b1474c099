from fractions import Fraction

import numpy as np
import pytest

from fracdecomp import oracle, spectral
from fracdecomp.graph_core import (
    GraphError,
    binom,
    generate_admissible_instance,
    make_complete,
)
from fracdecomp.scheme import EdgeVector, apply_idempotent, eigenmatrices
from fracdecomp.spectral import (
    apply_mgamma,
    apply_mgamma_inverse,
    eta_star,
    mgamma_element,
    norm_delta_bound,
    norm_delta_eta_bound,
    norm_e2_block_bound,
    norm_mgamma_eta_inverse,
    norm_mgamma_inverse,
    spectrum,
)


class TestMgammaElement:
    def test_coefficients(self):
        el = mgamma_element(5, 3, 2)
        assert el.coeffs == (6, 0, 0, 1, 0, 0)
        assert mgamma_element(6, 4, 2).coeffs[5] == 1

    def test_applied_to_all_ones(self):
        ed = make_complete(5, 3, 2).indexing
        out = apply_mgamma(EdgeVector(ed, np.ones(ed.num_edges)))
        assert np.allclose(out, 18.0)


class TestSpectrum:
    def test_5_3_2(self):
        tab = spectrum(5, 3, 2)
        assert [int(x) for x in tab.eigenvalues] == [18, 8, 2, 12, 4, 6]
        assert tab.multiplicities == (1, 4, 5, 5, 15, 10)
        assert sum(tab.multiplicities) == 40

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_zero_eigenvalue_at_r_equals_s_plus_1(self, n):
        assert spectrum(4, 3, n).eigenvalues[2] == 0
        assert not spectrum(4, 3, n).invertible

    def test_eta_star_shift_makes_all_positive(self):
        assert eta_star(3, 2) == Fraction(6, 5)
        tab = spectrum(4, 3, 2, eta=eta_star(3, 2))
        assert all(x > 0 for x in tab.eigenvalues)

    def test_eta_rejected_off_regime(self):
        with pytest.raises(GraphError):
            spectrum(5, 3, 2, eta=1)

    @pytest.mark.parametrize("r", [4, 5, 6])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_multiplicity_sum(self, r, n):
        tab = spectrum(r, r - 1, n) if r > 4 else spectrum(4, 3, n)
        assert sum(tab.multiplicities) == binom(r, 2) * n * n

    @pytest.mark.parametrize("r,s,n", [(4, 3, 2), (5, 3, 2), (5, 4, 2), (6, 4, 2)])
    def test_matches_dense_eigendecomposition(self, r, s, n):
        tab = spectrum(r, s, n)
        merged = {}
        for lam, mult in zip(tab.eigenvalues, tab.multiplicities):
            if mult:
                merged[float(lam)] = merged.get(float(lam), 0) + mult
        got = oracle.group_spectrum(
            oracle.numeric_spectrum(oracle.brute_mgamma(r, s, n)),
            float(tab.eigenvalues[0]))
        want = sorted(merged.items())
        assert len(got) == len(want)
        for (gv, gm), (wv, wm) in zip(got, want):
            assert abs(gv - wv) < 1e-8
            assert gm == wm


class TestInverseApplication:
    def test_inverse_of_ones(self):
        ed = make_complete(5, 3, 2).indexing
        out = apply_mgamma_inverse(EdgeVector(ed, np.ones(ed.num_edges)))
        assert np.allclose(out, 1 / 18)

    def test_round_trip(self):
        ed = make_complete(5, 3, 2).indexing
        rng = np.random.default_rng(0)
        v = rng.standard_normal(ed.num_edges)
        back = apply_mgamma(EdgeVector(ed, apply_mgamma_inverse(EdgeVector(ed, v))))
        assert np.abs(back - v).max() < 1e-9

    def test_inverse_matches_dense(self):
        # the complete host, then defected graphs whose G-first order
        # permutes the base order, the second on the eta path
        g = generate_admissible_instance(5, 3, 6, 12, seed=4, per_part_cap=2)
        h = make_complete(4, 3, 4).delete_transversal_clique(
            [(p, p) for p in range(4)])
        rng = np.random.default_rng(1)
        for graph, eta in [(make_complete(5, 3, 2), None), (g, None),
                           (h, eta_star(3, 4))]:
            st = graph.structure
            M = oracle.brute_mgamma(st.r, st.s, st.n).astype(float)
            if eta is not None:
                M += float(eta) * oracle.dense_idempotents(st.r, st.n)[2]
            Minv = oracle._permuted(np.linalg.inv(M), graph)
            ed = graph.indexing
            v = rng.standard_normal(ed.num_edges)
            out = apply_mgamma_inverse(EdgeVector(ed, v), eta)
            assert np.abs(out - Minv @ v).max() < 1e-8

    def test_eta_inverse_round_trip(self):
        ed = make_complete(4, 3, 2).indexing
        eta = eta_star(3, 2)
        rng = np.random.default_rng(2)
        v = rng.standard_normal(ed.num_edges)
        inv = apply_mgamma_inverse(EdgeVector(ed, v), eta)
        back = (apply_mgamma(EdgeVector(ed, inv))
                + float(eta) * apply_idempotent(2, EdgeVector(ed, inv)))
        assert np.abs(back - v).max() < 1e-9

    def test_inverse_element_cached_per_key(self):
        first = spectral._inverse_element(5, 3, 2, None)
        assert spectral._inverse_element(5, 3, 2, None) is first
        assert first == spectral._inverse_element.__wrapped__(5, 3, 2, None)
        eta = eta_star(3, 2)
        assert (spectral._inverse_element(4, 3, 2, eta)
                != spectral._inverse_element(4, 3, 2, 2 * eta))

    def test_singular_without_eta(self):
        ed = make_complete(4, 3, 2).indexing
        with pytest.raises(GraphError):
            apply_mgamma_inverse(EdgeVector(ed, np.ones(ed.num_edges)))


class TestHostOperator:
    @pytest.mark.parametrize("r,s,n", [(4, 3, 2), (5, 4, 2)])
    def test_eta_adds_shifted_idempotent(self, r, s, n):
        ed = make_complete(r, s, n).indexing
        eta = eta_star(s, n)
        v = np.random.default_rng(12).standard_normal(ed.num_edges)
        shifted = apply_mgamma(EdgeVector(ed, v), eta)
        expect = (apply_mgamma(EdgeVector(ed, v))
                  + float(eta) * apply_idempotent(2, EdgeVector(ed, v)))
        assert np.abs(shifted - expect).max() < 1e-12

    @pytest.mark.parametrize("r,s,n", [(4, 3, 2), (5, 4, 3)])
    def test_eta_shift_is_the_scaled_idempotent(self, r, s, n):
        ed = make_complete(r, s, n).indexing
        eta = eta_star(s, n)
        v = np.random.default_rng(13).standard_normal(ed.num_edges)
        got = spectral.apply_eta_shift(EdgeVector(ed, v), eta)
        expect = float(eta) * apply_idempotent(2, EdgeVector(ed, v))
        assert np.abs(got - expect).max() < 1e-12 * np.abs(expect).max()
        assert spectral._shift_element(r, n, eta) is spectral._shift_element(r, n, eta)
        assert all(type(c) is float for c in spectral._shift_element(r, n, eta).coeffs)

    def test_host_element_cached_per_key(self):
        first = spectral._host_element(5, 3, 2, None)
        assert spectral._host_element(5, 3, 2, None) is first
        assert first == spectral._host_element.__wrapped__(5, 3, 2, None)
        eta = eta_star(3, 2)
        assert (spectral._host_element(4, 3, 2, eta)
                != spectral._host_element(4, 3, 2, 2 * eta))

    def test_host_element_equals_closed_form(self):
        for r in range(4, 10):
            for s in range(3, r):
                for n in range(1, 7):
                    want = list(mgamma_element(r, s, n).coeffs)
                    eta = eta_star(s, n) if r == s + 1 else None
                    if eta is not None:
                        d2 = eigenmatrices(r, n).D[2]
                        want = [a + eta * d for a, d in zip(want, d2)]
                    got = spectral._host_element.__wrapped__(r, s, n, eta)
                    assert got.basis == "A"
                    assert all(isinstance(c, Fraction) for c in got.coeffs)
                    assert list(got.coeffs) == want, (r, s, n)

    @pytest.mark.parametrize("apply", [apply_mgamma, apply_mgamma_inverse])
    def test_eta_rejected_off_regime(self, apply):
        ed = make_complete(5, 3, 2).indexing
        with pytest.raises(GraphError):
            apply(EdgeVector(ed, np.ones(ed.num_edges)), Fraction(1))


class TestNormFormulas:
    def test_value_5_3_2(self):
        assert norm_mgamma_inverse(5, 3, 2) == Fraction(8, 9)

    @pytest.mark.parametrize("r,s,n", [(5, 3, 2), (6, 4, 2)])
    def test_matches_dense_inverse_norm(self, r, s, n):
        dense = oracle.dense_inf_norm(
            np.linalg.inv(oracle.brute_mgamma(r, s, n).astype(float)))
        assert abs(dense - float(norm_mgamma_inverse(r, s, n))) < 1e-8

    def test_eta_value_3_2(self):
        # 2 n^-s / (s(s-1)^2) * (15 n^2 - 2(s-1)(s-2)^2 n + (s-1)(s-2)^2)
        assert norm_mgamma_eta_inverse(3, 2) == Fraction(2 * 54, 12 * 8)

    @pytest.mark.parametrize("s,n", [(3, 2), (4, 2)])
    def test_eta_matches_dense(self, s, n):
        r = s + 1
        eta = float(eta_star(s, n))
        M = (oracle.brute_mgamma(r, s, n).astype(float)
             + eta * oracle.dense_idempotents(r, n)[2])
        dense = oracle.dense_inf_norm(np.linalg.inv(M))
        assert abs(dense - float(norm_mgamma_eta_inverse(s, n))) < 1e-8

    def test_positivity_sweep(self):
        for s in range(3, 21):
            for r in range(s + 2, 31):
                for n in (1, 2, 4):
                    assert norm_mgamma_inverse(r, s, n) > 0

    def test_out_of_regime(self):
        with pytest.raises(GraphError):
            norm_mgamma_inverse(4, 3, 2)


class TestDeltaBounds:
    def test_values(self):
        assert norm_delta_bound(5, 3, 2, Fraction(1, 64)) == Fraction(9, 16)
        assert norm_e2_block_bound(3, Fraction(1, 64)) == Fraction(1, 48)

    def test_eta_bound_combines_both_terms(self):
        c = Fraction(1, 64)
        s, n = 3, 8
        eta = eta_star(s, n)
        assert norm_delta_eta_bound(s, n, c, eta) == (
            norm_delta_bound(4, 3, n, c) + eta * norm_e2_block_bound(s, c))

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_contraction_product_at_threshold(self, n):
        # product <= 1/2 exactly when c is at most the exact threshold
        from fracdecomp.graph_core import threshold_c
        c_star, _ = threshold_c(5, 3)
        prod = norm_mgamma_inverse(5, 3, n) * norm_delta_bound(5, 3, n, c_star)
        assert prod <= Fraction(1, 2)
        over = c_star * Fraction(101, 100)
        assert norm_mgamma_inverse(5, 3, n) * norm_delta_bound(5, 3, n, over) \
            > Fraction(1, 2)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_eta_contraction_product_at_threshold(self, n):
        from fracdecomp.graph_core import threshold_c
        c_star, _ = threshold_c(4, 3)
        eta = eta_star(3, n)
        prod = norm_mgamma_eta_inverse(3, n) * norm_delta_eta_bound(3, n, c_star, eta)
        assert prod <= Fraction(1, 2)
