import hashlib
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

    # sha256 of to_json() for seeds 0-9, keyed by (r, s, n, budget, cap):
    # the benchmark's three workloads, then an r >= s+2, s = 4 instance. The
    # benchmark compares commits on these instances, so a rewrite of the
    # generator must keep them bit for bit.
    DIGESTS = {
        (5, 3, 48, 24, 1): [
            "f54a9e49e9eadb941c8f77e259e19d5738f3d599f1c02539e9f86d8801b2dd2b",
            "a2fc612e653ed9e7134519effa5c54c8d25687a79b6d80c1abe1b58ff72f4d32",
            "4e65ac826537107123d700cc841de22eab6af1a685e04ac23a08596489dc4077",
            "0174228a21a35df43d2bb9cbcd428c90d87674fee71c3235ccbfd46cf49ec307",
            "0bc6822386e30196563751daac926d5016f801480f15a8bda68bd6e9d6b6708e",
            "6f53efc63282f91154af5001ae223dc858fdfd26f14f2da5fd007332c1daaf39",
            "085d118987f8a55be7ed9f88833f9023255ad3b17d9c04cf12c8930bafcfebc9",
            "29e2f9860cce8647f008d607239e62bf1952c2d7499a37531054434b48008c3f",
            "25ef8fb78253bb3484f6e9a62ba6aca03d66bfbe7226e9318b4a63a3d461d1b7",
            "ecd2f990e7e0c8e4ec135cdf00212aab15707dba06d7119feb259d6b4b19afec",
        ],
        (5, 3, 16, 400, 4): [
            "ee21a5b152c10d8e548de847bde00214a7c6534d703d8f632c5e6e181c8b1843",
            "55f84bbb4e698f3394f8abf53d3159977d97358471e1b5d36c16279a4e57bde0",
            "b166ac13127b8903ebf30540a3136ddc06da2aa0bd04e88da8ff563bc7df1874",
            "1c8198d53567067106aa7b9d0e43e9099d4b17e55e8611a101ee98dafd2b8e34",
            "47767f9a8031f1555689ef65f48d2c22b172b33d751fc8fdf8d6f599d8e8480c",
            "b2a4cab90546259e0aae07f9d47b6ea64c73835abe7c38c83fa77f04668d1075",
            "de2a34263bc6b4d3c0cbbd1a43b58a9cccf483a092926fdcb7f087b8c34892f7",
            "74e8bf7ed9aeed647996eeb851214c6f05fdf96bbce0073ee0a1e39f70bf558e",
            "4b28bcb797f616fe437bcc1067f69f3a75f455fdd955e3dabfce141c9800fc29",
            "aefddad0cdcb2093d5609144f543909f029f0fd42ecc15f334c374861eb9e271",
        ],
        (5, 4, 12, 6, 1): [
            "c6918bcd5f62b2c4ac77f38c459ed402c2233cd2b7353a3beea1fbc78b432a7c",
            "636c257c930e69a16479973b0adc75e46b97c98f59afac0ba89504bfee52a8a7",
            "8f4db846370a428255f7b55a06658bc8446a2946f2a90e5058afef7dc775d1be",
            "72e73f37cc4dff013e8f7e0b4a62314bfe4d1232c1adbb56ce69fef078c2a5da",
            "4b6d6a032fef71673bd78d616c1c8df0922bafc959acdce8b4c1eb70ef683430",
            "79dc4b9232792fc95edc5282a665d35a78836aaef2ae69e35b2a362a01f0d854",
            "a11828948bac45f24b91024b2d77964730967064271819f26de52fbcf1f18008",
            "6a8c04fe7e82cab2141ba991c37010220ca83e71e66b7ed1b2b7099c6c39a66d",
            "714a22250d2f4a4c879ec46c53bfd6a6e190b6bc61177ba85a0120d03ccba94a",
            "95f78357cb8f2aeefaa2a222c28af0f84e90454200544639e4d9dc2f9d00be39",
        ],
        (6, 4, 8, 20, 2): [
            "45c9447d0342cc1075213ff10449c74e5f0fd6893ad725e2538a44539113c345",
            "f88b7ec876c9623d565b9efc2d0f7cacac96282cd8db57aa212419abcfbcbaf4",
            "ec757a18444aab343ff59ec1eaa862f15c3fd66f2cd9aeb6aae3a2de303ea173",
            "093dc6995233791d32dca32234aa5d136f6bf4728fbb0d69b94fcb88853f025e",
            "ab97a8f261a72115ed93b77ae2d15a01cff52bc1adb085ef60066ca48eeac04a",
            "a87ca18f00f458b0a384df9fb82a763e1f1bc4aa662d89a44066de217f8fb508",
            "b873cc45f11aeb4057346cfa2ee4e79cc78d19a1d3aeb3af6a20421f360b8a86",
            "b2c3cac72fed71ad2691419df2ef8f23aad467dc471cf0626d6bc6b8c30aa92b",
            "841bb332ca9a4cb3d01d2cc1646368ff7673dff12bbd6ff5a6ac32ef3b58eb8a",
            "b756941cf6c862e62f0cc625e56ede76f58c82c52b1f99484c2d98f799f38ab5",
        ],
    }

    @pytest.mark.parametrize("params", list(DIGESTS))
    def test_instances_are_pinned(self, params):
        r, s, n, budget, cap = params
        got = [hashlib.sha256(generate_admissible_instance(
                   r, s, n, budget, seed=seed, per_part_cap=cap).to_json().encode())
               .hexdigest() for seed in range(10)]
        assert got == self.DIGESTS[params]


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
