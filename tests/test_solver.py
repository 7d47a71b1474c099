import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from fracdecomp import oracle, solver
from fracdecomp.defect import defect_plan
from fracdecomp.graph_core import (
    generate_admissible_instance,
    make_complete,
)
from fracdecomp.solver import (
    NegativeWeight,
    VERIFY_TOL,
    SolveError,
    VerificationFailed,
    apply_delta,
    apply_mg,
    bin_cliques,
    decompose,
    enumerate_cliques,
    extract_weights,
    neumann_solve,
    verify_cliques,
    verify_decomposition,
)
from fracdecomp.spectral import eta_star


class TestEnumeration:
    def test_complete_counts(self):
        assert len(enumerate_cliques(make_complete(4, 3, 2))) == 32
        assert len(enumerate_cliques(make_complete(5, 3, 2))) == 80

    def test_one_deleted_edge(self):
        g = make_complete(4, 3, 2).delete_edges([((0, 0), (1, 0))])
        assert len(enumerate_cliques(g)) == 28

    def test_per_edge_incidence_complete(self):
        cl = enumerate_cliques(make_complete(5, 3, 2))
        counts = np.bincount(cl.incidence.ravel(), minlength=40)
        assert (counts == 6).all()  # C(r-2, s-2) n^(s-2)

    def test_cliques_avoid_missing_edges(self):
        g = make_complete(4, 3, 2).delete_edges(
            [((0, 0), (1, 0)), ((2, 0), (3, 1))])
        cl = enumerate_cliques(g)
        ng = g.indexing.num_graph_edges
        assert (cl.incidence < ng).all()
        rows = {(parts, tuple(row)) for parts, index in cl.blocks
                for row in index.tolist()}
        assert len(rows) == len(cl)

    def test_empty_possible(self):
        g = make_complete(4, 3, 1)
        g = g.delete_edges([((0, 0), (1, 0))])
        # no triangle avoiding the missing edge needs it; K4 minus one edge
        # still has 2 triangles
        assert len(enumerate_cliques(g)) == 2


# Two missing edges at (0, 0): the host triangle (0,0),(1,0),(2,0) holds both.
SHARED = [((0, 0), (1, 0)), ((0, 0), (2, 0)), ((1, 1), (3, 2))]


def _host_cliques_through_missing(g):
    host = make_complete(g.structure.r, g.structure.s, g.structure.n)
    ed = g.indexing
    return sorted(
        tuple(sorted(ed.index((u, w)) for u, w in combinations(K, 2)))
        for K in oracle.brute_cliques(host)
        if any(not g.has_edge(u, w) for u, w in combinations(K, 2)))


class TestBrokenCliques:
    def test_each_broken_clique_once(self):
        g = make_complete(5, 3, 3).delete_edges(SHARED)
        cl = enumerate_cliques(g)
        got = sorted(tuple(sorted(row)) for row in oracle.broken_cliques(g).tolist())
        assert got == _host_cliques_through_missing(g)
        assert len(cl) + len(got) == 10 * 27  # C(5,3) n^3 host triangles

    def test_transversal_cliques_at_s_4(self):
        # every K_4 inside a deleted transversal K_5 has six missing edges
        g = generate_admissible_instance(5, 4, 3, 2, seed=1)
        cl = enumerate_cliques(g)
        got = sorted(tuple(sorted(row)) for row in oracle.broken_cliques(g).tolist())
        assert got == _host_cliques_through_missing(g)

    def test_complete_host_has_none(self):
        assert oracle.broken_cliques(make_complete(5, 3, 2)).shape == (0, 3)


class TestApplyMg:
    def test_all_ones_equals_lambda0(self):
        g = make_complete(4, 3, 2)
        cl = enumerate_cliques(g)
        out = apply_mg(np.ones(24), cl, 24)
        assert np.allclose(out, 12.0)

    def test_single_edge_indicator(self):
        g = make_complete(4, 3, 2)
        cl = enumerate_cliques(g)
        M = oracle.brute_mg(g)
        e = 5
        delta_e = np.zeros(24)
        delta_e[e] = 1.0
        assert np.array_equal(apply_mg(delta_e, cl, 24), M[:, e])

    def test_matches_dense_on_defected_graph(self):
        g = make_complete(4, 3, 2).delete_edges(
            [((0, 0), (1, 0)), ((2, 1), (3, 0))])
        cl = enumerate_cliques(g)
        ng = g.indexing.num_graph_edges
        M = oracle.brute_mg(g)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(ng)
        assert np.abs(apply_mg(v, cl, ng) - M @ v).max() < 1e-12


class TestApplyDelta:
    def test_zero_for_complete_host(self):
        g = make_complete(5, 3, 2)
        cl = enumerate_cliques(g)
        rng = np.random.default_rng(1)
        z = rng.standard_normal(g.structure.num_edges)
        assert np.abs(apply_delta(z, cl.plan)).max() < 1e-10

    def test_matches_dense(self):
        g = generate_admissible_instance(5, 3, 4, 3, seed=2)
        cl = enumerate_cliques(g)
        dm = oracle.dense_delta(g)
        rng = np.random.default_rng(3)
        z = rng.standard_normal(g.structure.num_edges)
        assert np.abs(apply_delta(z, cl.plan) - dm @ z).max() < 1e-9

    def test_eta_variant_matches_dense(self):
        g = generate_admissible_instance(4, 3, 4, 1, seed=4)
        eta = eta_star(3, 4)
        cl = enumerate_cliques(g)
        dm = oracle.dense_delta(g, eta=float(eta))
        rng = np.random.default_rng(5)
        z = rng.standard_normal(g.structure.num_edges)
        assert np.abs(apply_delta(z, cl.plan, eta) - dm @ z).max() < 1e-9

    def test_eta_variant_equals_plain_on_graph_support(self):
        g = generate_admissible_instance(4, 3, 4, 1, seed=6)
        cl = enumerate_cliques(g)
        ng = g.indexing.num_graph_edges
        z = np.zeros(g.structure.num_edges)
        z[:ng] = np.random.default_rng(7).standard_normal(ng)
        plain = apply_delta(z, cl.plan)
        shifted = apply_delta(z, cl.plan, eta_star(3, 4))
        assert np.abs(plain - shifted).max() < 1e-10

    def test_shared_broken_clique_matches_dense(self):
        g = make_complete(5, 3, 3).delete_edges(SHARED)
        cl = enumerate_cliques(g)
        dm = oracle.dense_delta(g)
        z = np.random.default_rng(10).standard_normal(g.structure.num_edges)
        assert np.abs(apply_delta(z, cl.plan) - dm @ z).max() < 1e-9

    def test_shared_broken_clique_eta_matches_dense(self):
        g = make_complete(4, 3, 3).delete_edges(SHARED)
        eta = eta_star(3, 3)
        cl = enumerate_cliques(g)
        dm = oracle.dense_delta(g, eta=float(eta))
        z = np.random.default_rng(11).standard_normal(g.structure.num_edges)
        assert np.abs(apply_delta(z, cl.plan, eta) - dm @ z).max() < 1e-9

    def test_missing_rows_are_zero(self):
        g = generate_admissible_instance(5, 3, 4, 3, seed=8)
        cl = enumerate_cliques(g)
        z = np.random.default_rng(9).standard_normal(g.structure.num_edges)
        out = apply_delta(z, cl.plan)
        assert np.abs(out[g.indexing.num_graph_edges:]).max() == 0.0


class TestNeumannSolve:
    def test_complete_converges_immediately(self):
        g = make_complete(5, 3, 2)
        z, rep = neumann_solve(g)
        assert rep.iterations == 1
        assert np.allclose(z, 1 / 18)

    def test_no_edges_leaves_min_y_undefined(self):
        host = make_complete(5, 3, 1)
        g = host.delete_edges(list(host.structure.host_edges()))
        _, rep = neumann_solve(g)
        assert rep.converged and np.isnan(rep.min_y) and rep.num_negative_y == 0

    def test_matches_dense_solve(self):
        g = generate_admissible_instance(5, 3, 8, 4, seed=1)
        z, rep = neumann_solve(g)
        assert rep.final_residual_inf < 1e-10
        assert rep.iterations <= 40
        assert np.abs(z - oracle.dense_solve(g)).max() < 1e-8

    def test_eta_path_solves_mg(self):
        g = generate_admissible_instance(4, 3, 8, 2, seed=3)
        cl = enumerate_cliques(g)
        z, rep = neumann_solve(g, cl, eta=eta_star(3, 8))
        ng = g.indexing.num_graph_edges
        y = z[:ng]
        assert np.abs(apply_mg(y, cl, ng) - 1.0).max() < 1e-8

    @pytest.mark.parametrize("r,s,n,defects,seed,eta", [
        (5, 3, 8, 4, 1, None),
        (4, 3, 8, 2, 3, eta_star(3, 8)),
    ])
    def test_bare_solve_builds_only_broken_cliques(self, monkeypatch, r, s, n,
                                                   defects, seed, eta):
        g = generate_admissible_instance(r, s, n, defects, seed=seed)
        want, _ = neumann_solve(g, enumerate_cliques(g), eta=eta)

        def refuse(graph):
            raise AssertionError("the solve enumerated every clique of G")
        monkeypatch.setattr(solver, "enumerate_cliques", refuse)
        got, _ = neumann_solve(g, eta=eta)
        assert np.array_equal(got, want)

    def test_memory_scales_with_edges_and_multi_list(self):
        # (6, 4, 48, 24): the explicit list of broken host cliques holds
        # 331,237 x 6 ids, about 16 MB; the solve keeps O(|E|) floats, the
        # link of the missing edges and the cliques with two or more of them
        g = generate_admissible_instance(6, 4, 48, 24, seed=1)
        g.indexing  # built once per graph, before the measurement
        plan = defect_plan(g)
        bound = (12 * 8 * g.structure.num_edges
                 + 8 * (plan.multi.nbytes + plan.scatter.nbytes) + 2 ** 20)
        tracemalloc.start()
        try:
            _, rep = neumann_solve(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.converged
        assert peak <= bound < 8 * len(oracle.broken_cliques(g)) * 6

    def test_plain_path_rejected_at_r_equals_s_plus_1(self):
        with pytest.raises(SolveError):
            neumann_solve(make_complete(4, 3, 2))


class TestDefectPlan:
    @pytest.mark.parametrize("r,s,n,defects,cap", [
        (5, 3, 16, 400, 4),  # many defects per vertex: cliques with 2 and 3
        (5, 4, 12, 6, 1),  # eta path: K_4 copies with 2 to 6 missing edges
        (6, 4, 8, 20, 2),
        (7, 5, 6, 10, 1),
    ])
    def test_broken_sums_match_the_listed_cliques(self, r, s, n, defects, cap):
        g = generate_admissible_instance(r, s, n, defects, seed=1, per_part_cap=cap)
        ng = g.indexing.num_graph_edges
        plan = defect_plan(g)
        z = np.random.default_rng(2).standard_normal(g.structure.num_edges)
        want = oracle.broken_sums(g, z)[:ng]
        assert np.abs(plan.broken_sums(z) - want).max() < 1e-12 * np.abs(want).max()
        assert plan.num_broken == len(oracle.broken_cliques(g))
        assert set(plan.excess.tolist()) >= {1, 2}  # mu = 2 and mu = 3

    @pytest.mark.parametrize("g,eta", [
        (generate_admissible_instance(5, 3, 8, 4, seed=1), None),
        (generate_admissible_instance(6, 4, 6, 10, seed=0, per_part_cap=2), None),
        (generate_admissible_instance(7, 5, 4, 6, seed=1), None),
        (generate_admissible_instance(5, 4, 4, 1, seed=2), eta_star(4, 4)),
    ])
    def test_solve_never_lists_broken_cliques(self, monkeypatch, g, eta):
        def refuse(*args):
            raise AssertionError("the broken host cliques were listed")
        for name in ("broken_cliques", "_block_broken", "broken_sums"):
            monkeypatch.setattr(oracle, name, refuse)
        d, rep = decompose(g, eta=eta)
        assert rep.verified and rep.num_broken > 0 and len(d.cliques) > 0


class TestWeights:
    def test_uniform_weights_on_complete(self):
        g = make_complete(4, 3, 2)
        cl = enumerate_cliques(g)
        y = np.full(24, 1 / 12)
        d = extract_weights(y, cl)
        assert np.allclose(d.weights, 0.25)
        assert verify_decomposition(g, d) < 1e-12

    def test_negative_entry_is_hard_error(self):
        g = make_complete(4, 3, 2)
        cl = enumerate_cliques(g)
        y = np.full(24, 1 / 12)
        y[0] = -1.0  # the cliques through edge 0 weigh 1/6 - 1
        with pytest.raises(NegativeWeight):
            extract_weights(y, cl)

    def test_tiny_negative_is_clipped(self):
        g = make_complete(4, 3, 2)
        cl = enumerate_cliques(g)
        y = np.zeros(24)
        y[0] = -1e-13
        d = extract_weights(y, cl)
        assert (d.weights >= 0).all()


    @pytest.mark.parametrize("seed", range(8))
    def test_checks_clique_weights_not_edge_entries(self, seed):
        # the edge solution has entries near -1e-3, every clique weight is > 0
        g = generate_admissible_instance(6, 4, 6, 10, seed=seed, per_part_cap=2)
        cl = enumerate_cliques(g)
        z, _ = neumann_solve(g, cl)
        y = z[:g.indexing.num_graph_edges]
        assert y.min() < -1e-4
        d = extract_weights(y, cl)
        assert d.weights.min() > 1e-3
        assert verify_decomposition(g, d) < 1e-8


class TestItems:
    def test_same_cliques_and_order_as_exhaustive_search(self):
        g = generate_admissible_instance(5, 3, 4, 3, seed=2)
        d, _ = decompose(g)
        pairs = list(d.items())
        assert [K for K, _ in pairs] == list(oracle.brute_cliques(g))
        assert [w for _, w in pairs] == d.weights.tolist()

    def test_streams(self):
        d, _ = decompose(make_complete(5, 3, 2))
        it = d.items()
        assert next(it) == (((0, 0), (1, 0), (2, 0)), pytest.approx(1 / 6))


class TestVerifier:
    @pytest.fixture
    def solved(self):
        g = generate_admissible_instance(5, 3, 4, 3, seed=2)
        d, _ = decompose(g)
        return g, d

    def test_accepts_solution(self, solved):
        g, d = solved
        err, edge = verify_cliques(g, bin_cliques(g, d.blocks()))
        assert err < 1e-8 and g.has_edge(*edge)

    def test_binned_rows_equal_library_cubes(self, solved):
        g, d = solved
        assert verify_cliques(g, bin_cliques(g, d.blocks())) == verify_cliques(g, d.cubes())

    def test_one_shuffled_stream_of_every_block(self, solved):
        # the CLI's shape: one row of parts per clique, blocks interleaved
        g, d = solved
        parts = np.concatenate([np.tile(p, (len(i), 1)) for p, i, _ in d.blocks()])
        index = np.concatenate([i for _, i, _ in d.blocks()])
        order = np.random.default_rng(0).permutation(len(index))
        stream = [(parts[order], index[order], d.weights[order])]
        err, edge = verify_cliques(g, bin_cliques(g, stream))
        assert (err, edge) == verify_cliques(g, d.cubes())

    def test_rejects_missing_edge_clique(self):
        host = make_complete(5, 3, 2)
        d, _ = decompose(host)
        g = host.delete_edges([((0, 1), (3, 0))])
        with pytest.raises(VerificationFailed, match="missing edge"):
            verify_decomposition(g, d)

    def test_rejects_negative_weight(self, solved):
        g, d = solved
        blocks = [(parts, index, w.copy()) for parts, index, w in d.blocks()]
        blocks[0][2][5] = -1e-9
        with pytest.raises(VerificationFailed, match="negative"):
            verify_cliques(g, bin_cliques(g, blocks))

    def test_rejects_negative_cube_cell(self, solved):
        g, d = solved
        cubes = [(parts, mask, cube.copy()) for parts, mask, cube in d.cubes()]
        cubes[0][2][tuple(np.argwhere(cubes[0][1])[5])] = -1e-9
        with pytest.raises(VerificationFailed, match="negative"):
            verify_cliques(g, cubes)

    def test_rejects_uncovered_edge(self, solved):
        g, d = solved
        kept = [b for b in d.blocks() if not {0, 1} <= set(b[0])]
        with pytest.raises(VerificationFailed, match="no clique"):
            verify_cliques(g, bin_cliques(g, kept))

    def test_rejects_two_vertices_in_one_part(self, solved):
        g, _ = solved
        parts = np.array([[0, 0, 1]])
        with pytest.raises(VerificationFailed, match="one part"):
            verify_cliques(g, bin_cliques(g, [(parts, np.array([[0, 1, 0]]), np.ones(1))]))
        cube = np.zeros((4, 4, 4))
        cube[0, 1, 0] = 1.0
        with pytest.raises(VerificationFailed, match="one part"):
            verify_cliques(g, [((0, 0, 1), cube != 0, cube)])

    @pytest.mark.parametrize("parts,index,weight,match", [
        ((0, 1, 5), [[0, 0, 0]], 1.0, "outside the host"),
        ((0, 1, 2), [[0, 4, 0]], 1.0, "outside the host"),
        ((0, 1, 2), [[0, 1, 0]], float("nan"), "non-finite"),
        ((0, 1, 2), [[0, 1, 0]], float("inf"), "non-finite"),
        ((0, 1), [[0, 1, 0]], 1.0, "shape"),
    ])
    def test_rejects_malformed_rows(self, solved, parts, index, weight, match):
        g, _ = solved
        rows = [(parts, np.array(index), np.array([weight]))]
        with pytest.raises(VerificationFailed, match=match):
            verify_cliques(g, bin_cliques(g, rows))

    @pytest.mark.parametrize("parts,shape,weight,match", [
        ((0, 1, 5), (4, 4, 4), 1.0,
         r"clique \[\(0, 0\), \(1, 1\), \(5, 2\)\] .*outside the host"),
        ((0, 1, 2), (4, 4, 4), float("nan"), "non-finite"),
        ((0, 1, 2), (4, 4, 3), 1.0, "shape"),
    ])
    def test_rejects_malformed_cubes(self, solved, parts, shape, weight, match):
        g, _ = solved
        sums = np.zeros(shape)
        sums[0, 1, 2] = weight
        with pytest.raises(VerificationFailed, match=match):
            verify_cliques(g, [(parts, sums != 0, sums)])

    def test_parts_in_any_order(self, solved):
        g, d = solved
        blocks = [(np.tile(parts[::-1], (len(index), 1)), index[:, ::-1], w)
                  for parts, index, w in d.blocks()]
        want = verify_cliques(g, bin_cliques(g, d.blocks()))
        assert verify_cliques(g, bin_cliques(g, blocks)) == want
        shared = [(parts[::-1], index[:, ::-1], w) for parts, index, w in d.blocks()]
        assert verify_cliques(g, bin_cliques(g, shared)) == want
        cubes = [(parts[::-1], mask.T, cube.T) for parts, mask, cube in d.cubes()]
        assert verify_cliques(g, cubes) == want

    def test_missing_edge_named_from_reversed_cube(self):
        host = make_complete(5, 3, 2)
        d, _ = decompose(host)
        g = host.delete_edges([((0, 1), (3, 0))])
        cubes = [(parts[::-1], mask.T, cube.T) for parts, mask, cube in d.cubes()]
        with pytest.raises(VerificationFailed, match=r"\(0, 1\).*\(3, 0\).*missing edge"):
            verify_cliques(g, cubes)

    @pytest.mark.parametrize("name", ["r>=s+2", "s=4 r>=s+2", "r=s+1"])
    def test_axis_sums_match_incidence_bincount(self, name):
        # the verifier before cubes: one bincount of the weights over every
        # clique's C(s,2) G-first edge ids
        g = BLOCK_GRAPHS[name]
        d, _ = decompose(g)
        inc = d.cliques.incidence
        ng = g.indexing.num_graph_edges
        cover = np.bincount(inc.ravel(), weights=np.repeat(d.weights, inc.shape[1]),
                            minlength=ng)
        assert abs(verify_decomposition(g, d) - np.abs(cover - 1.0).max()) < 1e-14


class TestDecompose:
    def test_complete_6_4_3_certified_uniform(self):
        d, rep = decompose(make_complete(6, 4, 3))
        assert rep.guarantee == "certified"
        assert np.allclose(d.weights, 1 / 54)
        assert rep.max_edge_sum_error < 1e-10

    def test_beyond_threshold_is_attempted_but_verifies(self):
        g = generate_admissible_instance(4, 3, 8, 1, seed=0)
        d, rep = decompose(g)
        assert rep.guarantee == "attempted"  # c = 1/8 exceeds 1/64
        assert rep.admissible
        assert rep.max_edge_sum_error < 1e-8
        assert d.weights.min() >= 0

    def test_certified_at_exact_threshold(self):
        # (5, 3, 64) with per-vertex-per-part losses <= 1: c = 1/64 on the nose
        g = generate_admissible_instance(5, 3, 64, 32, seed=5)
        assert g.min_partite_degree() == 63
        d, rep = decompose(g)
        assert rep.guarantee == "certified"
        assert rep.converged
        assert rep.max_edge_sum_error < 1e-8
        assert d.weights.min() >= 0

    @pytest.mark.parametrize("r,s,n,defects", [
        (5, 3, 128, 64),  # r >= s+2
        (4, 3, 128, 8),  # r = s+1, the eta path
    ])
    def test_certified_at_scale(self, r, s, n, defects):
        g = generate_admissible_instance(r, s, n, defects, seed=1)
        d, rep = decompose(g)
        assert rep.guarantee == "certified"
        assert rep.converged and rep.verified
        assert rep.min_weight == d.min_weight >= 0

    def test_one_block_alive_at_a_time(self):
        # (5, 3, 128): one block's weight cube is 16.8 MB and its mask 2.1 MB;
        # holding the previous block while building the next doubles the peak
        g = generate_admissible_instance(5, 3, 128, 64, seed=1)
        d, _ = decompose(g)
        block = 128 ** 3 * (8 + 1)
        for measure in (lambda fd: verify_decomposition(g, fd),
                        lambda fd: fd.min_weight):
            fresh = solver.FractionalDecomposition(cliques=d.cliques, y=d.y)
            tracemalloc.start()
            try:
                measure(fresh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.3 * block

    def test_weights_held_once(self):
        # (5, 3, 64): 20.9 MB of weights; one block's cube and mask are 2.4 MB
        g = generate_admissible_instance(5, 3, 64, 32, seed=1)
        d, _ = decompose(g)
        fresh = solver.FractionalDecomposition(cliques=d.cliques, y=d.y)
        tracemalloc.start()
        try:
            w = fresh.weights
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * w.nbytes + 64 ** 3 * (8 + 1)
        assert np.array_equal(w, np.concatenate([c[m] for _, m, c in d.cubes()]))
        assert not w.flags.writeable

    def test_block_rows_built_once(self):
        # per block: the cube and mask, plus the (k, s) rows and k weights it
        # yields; np.argwhere's s index arrays and stacked copy would exceed it
        g = generate_admissible_instance(5, 3, 64, 32, seed=1)
        d, _ = decompose(g)
        fresh = solver.FractionalDecomposition(cliques=d.cliques, y=d.y)
        tracemalloc.start()
        try:
            for _, index, weights in fresh.blocks():
                del index, weights
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * 64 ** 3 * (8 + 1 + 8 * (3 + 1))
        for (_, index, _), (_, mask) in zip(d.blocks(), d.cliques.masks()):
            assert np.array_equal(index, np.argwhere(mask))

    @pytest.mark.parametrize("g", [
        make_complete(5, 3, 3).delete_edges(SHARED),
        generate_admissible_instance(5, 4, 3, 1, seed=4),  # eta path, s = 4
    ])
    def test_report_sizes(self, g):
        host = make_complete(g.structure.r, g.structure.s, g.structure.n)
        missing = [(u, w) for u, w in host.structure.host_edges() if not g.has_edge(u, w)]
        cliques = len(list(oracle.brute_cliques(g)))
        _, rep = decompose(g)
        assert rep.num_missing == len(missing) > 0
        assert rep.num_edges == host.structure.num_edges - len(missing)
        assert rep.num_cliques == cliques
        assert rep.num_broken == len(list(oracle.brute_cliques(host))) - cliques
        sizes = ("num_edges", "num_missing", "num_broken", "num_cliques")
        assert {k: rep.to_dict()[k] for k in sizes} == {k: getattr(rep, k) for k in sizes}

    @pytest.mark.parametrize("g,eta,negative", [
        # plain path beyond the threshold, where some entries of y are negative
        (generate_admissible_instance(5, 3, 8, 160, seed=2, per_part_cap=3), None, 7),
        (generate_admissible_instance(5, 4, 3, 1, seed=4), eta_star(4, 3), 0),
    ])
    def test_report_residuals_and_signs_of_y(self, g, eta, negative):
        z, solo = neumann_solve(g, eta=eta)
        y = z[:g.indexing.num_graph_edges]
        d, rep = decompose(g)
        assert np.array_equal(d.y, y)
        assert rep.min_y == y.min()
        assert rep.num_negative_y == np.count_nonzero(y < 0) == negative
        assert rep.residuals == solo.residuals
        assert len(rep.residuals) == rep.iterations
        assert rep.residuals[-1] == rep.final_residual_inf < 1e-10
        assert min(rep.residuals[:-1]) >= 1e-10  # the solve went on past each
        fields = ("residuals", "min_y", "num_negative_y")
        assert {k: rep.to_dict()[k] for k in fields} == {k: getattr(rep, k) for k in fields}

    def test_verified_report(self):
        _, rep = decompose(generate_admissible_instance(5, 3, 8, 4, seed=1))
        assert rep.verified and rep.max_edge_sum_error < VERIFY_TOL
        assert rep.to_dict()["verified"] is True

    def test_loose_tolerance_returns_unverified_report(self):
        g = generate_admissible_instance(5, 3, 8, 4, seed=1)
        _, rep = decompose(g, tol=1e-2)
        assert not rep.verified and rep.max_edge_sum_error >= VERIFY_TOL
        assert rep.to_dict()["verified"] is False

    def test_inadmissible_rejected_on_eta_path(self):
        g = make_complete(4, 3, 2).delete_edges([((0, 0), (1, 0))])
        with pytest.raises(SolveError):
            decompose(g)

    def test_r_equals_s_out_of_scope(self):
        with pytest.raises(SolveError):
            decompose(make_complete(4, 4, 2))

    def test_solution_solves_mg_exactly(self):
        g = generate_admissible_instance(5, 3, 8, 3, seed=11)
        d, rep = decompose(g)
        cl = d.cliques
        ng = g.indexing.num_graph_edges
        cover = np.zeros(ng)
        np.add.at(cover, cl.incidence.ravel(),
                  np.repeat(d.weights, cl.incidence.shape[1]))
        assert np.abs(cover - 1.0).max() < 1e-8


BLOCK_GRAPHS = {
    "r>=s+2": generate_admissible_instance(5, 3, 4, 6, seed=1, per_part_cap=2),
    "s=4 r>=s+2": generate_admissible_instance(6, 4, 3, 4, seed=2),
    "shared broken clique": make_complete(5, 3, 3).delete_edges(SHARED),
    "r=s+1": generate_admissible_instance(4, 3, 4, 1, seed=3),
    "s=4 r=s+1": generate_admissible_instance(5, 4, 3, 1, seed=4),
    "s=5 r=s+1": generate_admissible_instance(6, 5, 2, 1, seed=5),
}


class TestBroadcastBlocks:
    @pytest.mark.parametrize("name", BLOCK_GRAPHS)
    def test_blocks_match_exhaustive_search(self, name):
        g = BLOCK_GRAPHS[name]
        want = {}
        for K in oracle.brute_cliques(g):
            want.setdefault(tuple(p for p, _ in K), []).append([i for _, i in K])
        cl = enumerate_cliques(g)
        assert [parts for parts, _ in cl.blocks] == list(want)
        for parts, index in cl.blocks:
            assert index.dtype == np.int64
            assert index.tolist() == want[parts]

    @pytest.mark.parametrize("name", BLOCK_GRAPHS)
    def test_weights_equal_incidence_sums(self, name):
        g = BLOCK_GRAPHS[name]
        cl = enumerate_cliques(g)
        y = np.random.default_rng(0).random(g.indexing.num_graph_edges)
        want = solver._edge_sums(y, cl.incidence)
        assert np.array_equal(extract_weights(y, cl).weights, want)

    @pytest.mark.parametrize("r,s,n,defects,seed", [
        (5, 3, 8, 4, 1),
        (5, 4, 4, 1, 2),  # eta path
    ])
    def test_decompose_never_builds_incidence(self, monkeypatch, r, s, n,
                                              defects, seed):
        g = generate_admissible_instance(r, s, n, defects, seed=seed)

        def refuse(self):
            raise AssertionError("the incidence of G's cliques was built")
        monkeypatch.setattr(solver.CliqueList, "incidence", property(refuse))
        d, rep = decompose(g)
        assert rep.verified and len(d.weights) == len(d.cliques) > 0

    @pytest.mark.parametrize("r,s,n,defects,seed", [
        (5, 3, 8, 4, 1),
        (5, 4, 4, 1, 2),  # eta path
    ])
    def test_decompose_builds_no_index_rows(self, monkeypatch, r, s, n,
                                            defects, seed):
        g = generate_admissible_instance(r, s, n, defects, seed=seed)

        def refuse(*args):
            raise AssertionError("index rows or a flat weight array were built")
        with monkeypatch.context() as m:
            m.setattr(np, "argwhere", refuse)
            m.setattr(solver, "_mask_rows", refuse)
            m.setattr(solver.CliqueList, "incidence", property(refuse))
            m.setattr(solver.FractionalDecomposition, "weights", property(refuse))
            d, rep = decompose(g)
        assert rep.verified and rep.num_cliques == len(d.weights) > 0
