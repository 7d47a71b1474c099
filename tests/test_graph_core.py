import json
from fractions import Fraction

import numpy as np
import pytest

from fracdecomp.graph_core import (
    GraphError,
    MultipartiteGraph,
    binom,
    check_admissible,
    edge_key,
    generate_admissible_instance,
    make_complete,
    threshold_c,
)


class TestMakeComplete:
    def test_edge_counts(self):
        assert make_complete(4, 3, 2).structure.num_edges == 24
        assert make_complete(5, 3, 2).structure.num_edges == 40
        assert make_complete(4, 3, 1).structure.num_edges == 6

    def test_min_degree_is_n(self):
        assert make_complete(4, 3, 2).min_partite_degree() == 2

    def test_rejects_bad_parameters(self):
        with pytest.raises(GraphError):
            make_complete(3, 4, 2)
        with pytest.raises(GraphError):
            make_complete(4, 2, 2)
        with pytest.raises(GraphError):
            make_complete(4, 3, 0)


class TestDeletion:
    def test_single_edge_degrees(self):
        g = make_complete(4, 3, 2).delete_edges([(((0, 0)), ((1, 0)))])
        assert g.min_partite_degree() == 1
        assert g.degree((0, 0), 1) == 1
        assert g.degree((1, 0), 0) == 1
        assert g.degree((0, 1), 1) == 2

    def test_transversal_drops_each_pair_count_by_one(self):
        g = make_complete(4, 3, 2)
        before = {pp: g.pair_count(*pp) for pp in g.structure.part_pairs()}
        g2 = g.delete_transversal_clique([(p, 0) for p in range(4)])
        for pp in g.structure.part_pairs():
            assert g2.pair_count(*pp) == before[pp] - 1

    def test_two_disjoint_transversals_min_degree(self):
        g = make_complete(4, 3, 4)
        g = g.delete_transversal_clique([(p, 0) for p in range(4)])
        g = g.delete_transversal_clique([(p, 1) for p in range(4)])
        assert g.min_partite_degree() == 3

    def test_rejects_double_deletion(self):
        g = make_complete(4, 3, 2).delete_edges([((0, 0), (1, 0))])
        with pytest.raises(GraphError):
            g.delete_edges([((0, 0), (1, 0))])

    def test_rejects_bad_transversal(self):
        g = make_complete(4, 3, 2)
        with pytest.raises(GraphError):
            g.delete_transversal_clique([(0, 0), (1, 0), (2, 0)])
        with pytest.raises(GraphError):
            g.delete_transversal_clique([(0, 0), (0, 1), (1, 0), (2, 0)])

    def test_degree_table_matches_scratch_recompute(self):
        rng = np.random.default_rng(5)
        g = make_complete(5, 3, 4)
        edges = list(g.structure.host_edges())
        for pick in rng.choice(len(edges), size=10, replace=False):
            g = g.delete_edges([edges[pick]])
        fresh = MultipartiteGraph(g.structure, g.missing)
        assert (g.degree_table == fresh.degree_table).all()


class TestEdgeIndexing:
    def test_bijection_and_g_first(self):
        g = make_complete(4, 3, 2).delete_edges(
            [((0, 0), (1, 0)), ((2, 1), (3, 1))])
        ed = g.indexing
        seen = {ed.index(edge_key(*e)) for e in g.structure.host_edges()}
        assert seen == set(range(ed.num_edges))
        assert ed.num_graph_edges == 22
        graph_idx = {ed.index(edge_key(*e))
                     for e in g.structure.host_edges()
                     if edge_key(*e) not in g.missing}
        assert graph_idx == set(range(22))

    def test_edge_round_trip(self):
        ed = make_complete(5, 3, 3).indexing
        for i in range(ed.num_edges):
            assert ed.index(ed.edge(i)) == i


class TestAdmissibility:
    def test_complete_4_3_2(self):
        rep = check_admissible(make_complete(4, 3, 2))
        assert rep.nec1_ok and rep.nec2_ok
        assert rep.x_values == [Fraction(2)] * 4

    def test_transversal_deletion_preserves_nec2(self):
        g = make_complete(4, 3, 2).delete_transversal_clique(
            [(p, 0) for p in range(4)])
        rep = check_admissible(g)
        assert rep.nec2_ok

    def test_pair_identity_sides_both_drop_by_one(self):
        # scaled-identity bookkeeping: both sides of the pair-count identity
        # change by exactly -1 per part pair under a transversal deletion
        def sides(g):
            s = g.structure.s
            pc = {pp: g.pair_count(*pp) for pp in g.structure.part_pairs()}
            d = [sum(pc[tuple(sorted((l, k)))] for k in range(g.structure.r)
                     if k != l) for l in range(g.structure.r)]
            total = sum(d) // 2
            return {
                pp: (Fraction(pc[pp]),
                     Fraction(d[pp[0]] + d[pp[1]], s - 1)
                     - Fraction(total, binom(s, 2)))
                for pp in pc
            }

        g = make_complete(4, 3, 3)
        before = sides(g)
        after = sides(g.delete_transversal_clique([(p, 2) for p in range(4)]))
        for pp in before:
            assert after[pp][0] - before[pp][0] == -1
            assert after[pp][1] - before[pp][1] == -1

    def test_single_edge_deletion_breaks_nec2(self):
        g = make_complete(4, 3, 2).delete_edges([((0, 0), (1, 0))])
        rep = check_admissible(g)
        assert not rep.nec2_ok
        assert (0, 1) in rep.nec2_violations

    def test_nec2_not_checked_beyond_s_plus_1(self):
        g = make_complete(5, 3, 2).delete_edges([((0, 0), (1, 0))])
        rep = check_admissible(g)
        assert rep.nec2_ok  # vacuous at r >= s+2
        assert rep.nec1_ok

    def test_nec1_violation_detected(self):
        # strip vertex (0,0) down to a single neighbour in part 1 while the
        # other parts keep full degree: then (s-1) d(v, V_2) > d(v)
        g = make_complete(4, 3, 4)
        g = g.delete_edges([((0, 0), (1, i)) for i in range(4)]
                           + [((0, 0), (2, i)) for i in range(4)]
                           + [((0, 0), (3, i)) for i in range(1, 4)])
        rep = check_admissible(g)
        assert not rep.nec1_ok
        assert ((0, 0), 3) in rep.nec1_violations


class TestThreshold:
    def test_known_values(self):
        assert threshold_c(5, 3) == (Fraction(1, 64), Fraction(1, 64))
        assert threshold_c(4, 3) == (Fraction(1, 64), Fraction(1, 81))
        assert threshold_c(6, 4)[1] == Fraction(1, 2 * 5 * 81)

    def test_rejects_out_of_regime(self):
        with pytest.raises(GraphError):
            threshold_c(3, 3)
        with pytest.raises(GraphError):
            threshold_c(5, 2)

    def test_simplified_never_exceeds_exact(self):
        for s in range(3, 51):
            for r in range(s + 1, 61):
                exact, simplified = threshold_c(r, s)
                assert simplified <= exact, (r, s)


class TestGenerator:
    @pytest.mark.parametrize("r,s,n", [(4, 3, 4), (4, 3, 8), (5, 3, 4), (6, 4, 3)])
    def test_instances_always_admissible(self, r, s, n):
        budget = 1 if r == s + 1 else 2
        for seed in range(100):
            g = generate_admissible_instance(r, s, n, budget, seed=seed)
            rep = check_admissible(g)
            assert rep.nec1_ok
            if r == s + 1:
                assert rep.nec2_ok

    def test_zero_budget_is_complete(self):
        g = generate_admissible_instance(4, 3, 8, 0, seed=0)
        assert not g.missing

    def test_transversal_budget_keeps_high_degree(self):
        g = generate_admissible_instance(4, 3, 8, 1, seed=7)
        assert g.min_partite_degree() == 7
        assert check_admissible(g).nec2_ok

    def test_random_edges_respect_cap(self):
        g = generate_admissible_instance(5, 3, 8, 4, seed=1)
        assert g.min_partite_degree() >= 7
        assert check_admissible(g).nec1_ok

    def test_infeasible_budget_raises(self):
        with pytest.raises(GraphError):
            generate_admissible_instance(4, 3, 4, 5, seed=0)
        with pytest.raises(GraphError):
            generate_admissible_instance(5, 3, 2, 1000, seed=0)

    @pytest.mark.parametrize("r", [4, 5])
    def test_negative_budget_raises(self, r):
        # r = s+1 deletes transversals, r >= s+2 random capped edges
        with pytest.raises(GraphError, match="negative"):
            generate_admissible_instance(r, 3, 4, -1, seed=0)


class TestJsonFormat:
    def test_round_trip(self):
        g = make_complete(4, 3, 2).delete_edges([((0, 0), (1, 1))])
        g2 = MultipartiteGraph.from_json(g.to_json())
        assert g2.missing == g.missing
        assert g2.structure == g.structure

    def test_rejects_duplicates_and_same_part(self):
        base = {"r": 4, "s": 3, "n": 2}
        bad1 = dict(base, missing_edges=[[0, 0, 1, 0], [0, 0, 1, 0]])
        with pytest.raises(GraphError):
            MultipartiteGraph.from_json(json.dumps(bad1))
        bad2 = dict(base, missing_edges=[[1, 0, 1, 1]])
        with pytest.raises(GraphError):
            MultipartiteGraph.from_json(json.dumps(bad2))
        bad3 = dict(base, missing_edges=[[2, 0, 1, 0]])
        with pytest.raises(GraphError):
            MultipartiteGraph.from_json(json.dumps(bad3))

    @pytest.mark.parametrize("record", [
        {"r": 5, "s": 3, "n": 4, "missing_edges": [[3, 0, 4, 100]]},
        {"r": 5, "s": 3, "n": 4, "missing_edges": [[-1, 0, 4, 1]]},
        {"r": 5, "s": 3, "n": 4, "missing_edges": [[0, 0, 1, 0, 2]]},
        {"r": 5, "s": 3, "n": 4, "missing_edges": [[0, 0, 1]]},
        {"r": 5, "s": 3, "n": 4, "missing_edges": [[0, 0, 1, 0.0]]},
        {"r": 5, "s": 3, "n": 4, "missing_edges": [[0, 0, 1, True]]},
        {"r": 5, "s": 3, "n": 4, "missing_edges": {"0": [0, 0, 1, 0]}},
        {"r": 5, "s": 3, "n": 4.0, "missing_edges": []},
        {"r": "5", "s": 3, "n": 4, "missing_edges": []},
        {"r": 5, "s": 3, "n": 4},
        [5, 3, 4, []],
    ])
    def test_rejects_malformed_records(self, record):
        with pytest.raises(GraphError):
            MultipartiteGraph.from_json(json.dumps(record))
