"""Property tests: the solver's cliques and defect operator against the oracle,
the graph JSON round trip, and admissibility under transversal deletion.

Random small hosts (r, s, n) with random missing-edge sets; the examples are
fixed by the hypothesis profile in conftest.py.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from fracdecomp import oracle
from fracdecomp.graph_core import (
    MultipartiteGraph,
    check_admissible,
    generate_admissible_instance,
    make_complete,
)
from fracdecomp.solver import apply_delta, enumerate_cliques
from fracdecomp.spectral import eta_star


@st.composite
def defected_graphs(draw, max_s=4):
    """A host with 3 <= s <= max_s, s+1 <= r <= s+2 and n^s <= 81, minus random edges."""
    s = draw(st.integers(3, max_s))
    r = draw(st.integers(s + 1, s + 2))
    n = draw(st.integers(1, 3 if s < 5 else 2))
    host = make_complete(r, s, n)
    m = host.structure.num_edges
    ids = draw(st.lists(st.integers(0, m - 1), unique=True, max_size=min(m, 12)))
    return host.delete_edges([host.indexing.edge(i) for i in ids])


@given(defected_graphs(max_s=5))
def test_cliques_match_exhaustive_search(g):
    got = [tuple(zip(parts, row)) for parts, index in enumerate_cliques(g).blocks
           for row in index.tolist()]
    assert got == list(oracle.brute_cliques(g))


@given(defected_graphs(), st.integers(0, 2 ** 32 - 1))
def test_delta_matches_dense(g, seed):
    z = np.random.default_rng(seed).standard_normal(g.structure.num_edges)
    cl = enumerate_cliques(g)
    assert np.abs(apply_delta(z, g, cl) - oracle.dense_delta(g) @ z).max() < 1e-9


@given(defected_graphs(), st.integers(0, 2 ** 32 - 1))
def test_delta_eta_matches_dense(g, seed):
    eta = eta_star(g.structure.s, g.structure.n)
    z = np.random.default_rng(seed).standard_normal(g.structure.num_edges)
    cl = enumerate_cliques(g)
    dm = oracle.dense_delta(g, eta=float(eta))
    assert np.abs(apply_delta(z, g, cl, eta) - dm @ z).max() < 1e-9


@given(defected_graphs(max_s=5))
def test_json_round_trip(g):
    back = MultipartiteGraph.from_json(g.to_json())
    assert back.structure == g.structure and back.missing == g.missing
    assert np.array_equal(back.indexing.order, g.indexing.order)


@st.composite
def transversal_deletions(draw):
    """An r = s+1 generator instance with budget < n and a transversal clique
    vertex-disjoint from the ones it already lost."""
    s = draw(st.integers(3, 5))
    n = draw(st.integers(2, 6))
    budget = draw(st.integers(0, n - 1))
    g = generate_admissible_instance(s + 1, s, n, budget,
                                     seed=draw(st.integers(0, 2 ** 32 - 1)))
    used = {v for e in g.missing for v in e}
    transversal = [(p, draw(st.sampled_from(
        [i for i in range(n) if (p, i) not in used]))) for p in range(s + 1)]
    return g, transversal


@given(transversal_deletions())
def test_transversal_deletion_keeps_admissibility(case):
    g, transversal = case
    before = check_admissible(g)
    after = check_admissible(g.delete_transversal_clique(transversal))
    assert before.admissible and after.admissible
    assert all(after.pair_counts[pp] == cnt - 1
               for pp, cnt in before.pair_counts.items())
