"""Property tests: the solver's cliques and defect operator against the oracle,
the graph JSON round trip, admissibility under transversal deletion, and the
CLI weights file against json.dumps of the decomposition's records.

Random small hosts (r, s, n) with random missing-edge sets; the examples are
fixed by the hypothesis profile in conftest.py.
"""

import io
import json
from contextlib import redirect_stdout
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from fracdecomp import cli, oracle
from fracdecomp.graph_core import (
    MultipartiteGraph,
    binom,
    check_admissible,
    generate_admissible_instance,
    make_complete,
)
from fracdecomp.defect import defect_plan
from fracdecomp.solver import SolveError, apply_delta, decompose, enumerate_cliques
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
    assert np.abs(apply_delta(z, cl.plan) - oracle.dense_delta(g) @ z).max() < 1e-9


@given(defected_graphs(), st.integers(0, 2 ** 32 - 1))
def test_delta_eta_matches_dense(g, seed):
    eta = eta_star(g.structure.s, g.structure.n)
    z = np.random.default_rng(seed).standard_normal(g.structure.num_edges)
    cl = enumerate_cliques(g)
    dm = oracle.dense_delta(g, eta=float(eta))
    assert np.abs(apply_delta(z, cl.plan, eta) - dm @ z).max() < 1e-9


@st.composite
def clustered_graphs(draw):
    """A host with 3 <= s <= 5 and r in {s+1, s+2}, minus 2 edges of one host
    clique, 3 edges of another and random edges of neither.

    The two cliques use vertex 0 and vertex 1 of their parts, so they share
    no edge: the first has exactly 2 missing edges and the second exactly 3.
    Returns the graph and the two cliques.
    """
    s = draw(st.integers(3, 5))
    r = draw(st.integers(s + 1, s + 2))
    n = draw(st.integers(2, 3 if s < 5 else 2))
    host = make_complete(r, s, n)
    cliques, lost = [], []
    for vertex, size in ((0, 2), (1, 3)):
        parts = sorted(draw(st.lists(st.integers(0, r - 1), min_size=s, max_size=s,
                                     unique=True)))
        clique = [(p, vertex) for p in parts]
        edges = list(combinations(clique, 2))
        cliques.append(clique)
        lost += draw(st.lists(st.sampled_from(edges), min_size=size, max_size=size,
                              unique=True))
    kept = {e for clique in cliques for e in combinations(clique, 2)}
    m = host.structure.num_edges
    ids = draw(st.lists(st.integers(0, m - 1), unique=True, max_size=8))
    lost += [e for e in map(host.indexing.edge, ids) if e not in kept]
    return host.delete_edges(lost), cliques


def _lost(g, clique):
    return sum(not g.has_edge(u, w) for u, w in combinations(clique, 2))


@given(clustered_graphs(), st.integers(0, 2 ** 32 - 1))
def test_implicit_delta_matches_dense_on_multiply_broken_cliques(case, seed):
    g, cliques = case
    assert [_lost(g, clique) for clique in cliques] == [2, 3]
    shape = g.structure
    eta = eta_star(shape.s, shape.n) if shape.r == shape.s + 1 else None
    z = np.random.default_rng(seed).standard_normal(shape.num_edges)
    dm = oracle.dense_delta(g, eta=None if eta is None else float(eta))
    assert np.abs(apply_delta(z, defect_plan(g), eta) - dm @ z).max() < 1e-9


@given(st.one_of(defected_graphs(max_s=5), clustered_graphs().map(lambda case: case[0])))
def test_clique_counts_without_a_mask_pass(g):
    shape = g.structure
    cl = enumerate_cliques(g)
    in_masks = sum(int(np.count_nonzero(mask)) for _, mask in cl.masks())
    brute = len(list(oracle.brute_cliques(g)))
    assert len(cl) == in_masks == brute
    assert cl.plan.num_broken == len(oracle.broken_cliques(g)) \
        == binom(shape.r, shape.s) * shape.n ** shape.s - brute


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


def _weights_text(decomp, n, include_zero):
    """The weights file as the CLI prints it without --output."""
    out = io.StringIO()
    with redirect_stdout(out):
        cli._write_weights(None, decomp, n, include_zero)
    return out.getvalue()


def _records_json(pairs, include_zero):
    return json.dumps([{"clique": [list(v) for v in clique], "weight": w}
                       for clique, w in pairs if include_zero or w != 0.0]) + "\n"


def _by_record(text):
    """The text cut between records: equal lists mean equal texts, and a
    failure names the first record that differs instead of diffing two long
    lines character by character."""
    return text.split("}, {")


@st.composite
def generated_instances(draw):
    """A generator instance with 4 <= r <= 6, 3 <= s <= 4, s < r and n <= 5."""
    s = draw(st.integers(3, 4))
    r = draw(st.integers(max(4, s + 1), 6))
    n = draw(st.integers(1, 5))
    budget = draw(st.integers(0, n if r == s + 1 else 3 * n))
    return generate_admissible_instance(r, s, n, budget,
                                        seed=draw(st.integers(0, 2 ** 32 - 1)),
                                        per_part_cap=draw(st.integers(1, 2)))


@given(generated_instances(), st.booleans())
def test_weights_file_is_json_dumps_of_the_records(g, include_zero):
    try:
        decomp, _ = decompose(g)
    except SolveError:
        assume(False)
    assert (_by_record(_weights_text(decomp, g.structure.n, include_zero))
            == _by_record(_records_json(decomp.items(), include_zero)))


class _HandSetBlocks:
    """A decomposition stand-in whose blocks carry hand-set weights."""

    BLOCKS = [
        ((0, 1, 2), [[0, 1, 2], [2, 0, 1], [1, 1, 1]], [1e-05, 1.0, 0.0]),
        ((0, 1, 3), [[0, 0, 0], [2, 2, 2]], [0.0, 0.0]),  # emptied by the filter
        ((1, 2, 3), [[2, 1, 0]], [1 / 3]),
    ]

    def blocks(self):
        for parts, index, weights in self.BLOCKS:
            yield parts, np.array(index), np.array(weights)

    def items(self):
        for parts, index, weights in self.BLOCKS:
            for row, w in zip(index, weights):
                yield tuple(zip(parts, row)), w


def test_weights_file_of_hand_set_weights(tmp_path):
    stub = _HandSetBlocks()
    for include_zero in (False, True):
        want = _records_json(stub.items(), include_zero)
        assert '"weight": 1e-05' in want and '"weight": 1.0' in want
        assert _weights_text(stub, 3, include_zero) == want
        path = tmp_path / "weights.json"
        cli._write_weights(str(path), stub, 3, include_zero)
        assert path.read_text() + "\n" == want


class _RepeatedWeights(_HandSetBlocks):
    """Hand-set blocks of weights that repeat within a block and across its
    chunks of two records (0.1 + 0.2 at records 0 and 3 of the first, 1/3 at
    1 and 4), -0.0 beside 0.0, and a last block of distinct weights."""

    BLOCKS = [
        ((0, 1, 2), [[0, 0, 0], [0, 1, 2], [1, 2, 0], [2, 2, 2], [1, 0, 1]],
         [0.1 + 0.2, 1 / 3, 5e-324, 0.1 + 0.2, 1 / 3]),
        ((0, 1, 3), [[0, 1, 2], [1, 1, 1], [2, 0, 1], [2, 2, 0]],
         [-0.0, 0.0, -0.0, 1e16]),
        ((0, 2, 3), [[0, 0, 1], [1, 2, 0], [2, 1, 1]], [1e16, 5e-324, 0.25]),
    ]


def _same_arrays(a, b):
    """Equal shapes, dtypes and bits: -0.0 and 0.0 differ."""
    return all(x.dtype == y.dtype and x.shape == y.shape
               and x.tobytes() == y.tobytes() for x, y in zip(a, b))


@pytest.mark.parametrize("chunk", [2, cli.WEIGHTS_CHUNK])
@pytest.mark.parametrize("include_zero", [False, True])
def test_repeated_weights_file_is_json_dumps_of_the_records(
        tmp_path, monkeypatch, chunk, include_zero):
    monkeypatch.setattr(cli, "WEIGHTS_CHUNK", chunk)
    stub = _RepeatedWeights()
    want = _records_json(stub.items(), include_zero)
    assert ('"weight": -0.0' in want) == include_zero
    path = tmp_path / "weights.json"
    cli._write_weights(str(path), stub, 3, include_zero)
    printed = _weights_text(stub, 3, include_zero)
    assert _by_record(path.read_text() + "\n") == _by_record(want)
    assert _by_record(printed) == _by_record(want)
    for data in (path.read_bytes(), printed.encode()):
        scanned = cli._scan_weights(data, 3)
        assert scanned is not None  # the writer's layout, so scanned
        assert _same_arrays(scanned, cli._read_weights(json.loads(data), 3))


def test_each_distinct_weight_is_formatted_once(tmp_path, monkeypatch):
    formatted = []

    def counting_repr(x):
        formatted.append(x)
        return repr(x)

    monkeypatch.setattr(cli, "WEIGHTS_CHUNK", 2)
    monkeypatch.setattr(cli, "repr", counting_repr, raising=False)
    stub = _RepeatedWeights()
    cli._write_weights(str(tmp_path / "weights.json"), stub, 3, True)
    # by bit pattern within each block: 1/3 and 0.1 + 0.2 once each in the
    # first block, -0.0 and 0.0 once each in the second, 1e16 once per block
    want = [sorted(set(np.array(w).view(np.uint64).tolist()))
            for _, _, w in stub.BLOCKS]
    got, start = [], 0
    for size in map(len, want):
        got.append(sorted(np.array(formatted[start:start + size])
                          .view(np.uint64).tolist()))
        start += size
    assert start == len(formatted) == 9 and got == want


@pytest.mark.parametrize("chunk", [2, 3])
def test_scanned_weights_keep_each_records_bits(tmp_path, monkeypatch, chunk):
    """-0.0 beside 0.0, and 0.1 + 0.2 and 1/3 each repeated across a chunk
    boundary: every record's weight comes back with its own bits."""
    monkeypatch.setattr(cli, "WEIGHTS_CHUNK", chunk)
    stub = _RepeatedWeights()
    path = tmp_path / "weights.json"
    cli._write_weights(str(path), stub, 3, True)
    _, weights = cli._scan_weights(path.read_bytes(), 3)
    want = np.concatenate([np.array(w) for _, _, w in stub.BLOCKS])
    assert weights.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert np.signbit(weights).sum() == 2


def test_json_reads_each_distinct_weight_text_once(tmp_path, monkeypatch):
    stub = _RepeatedWeights()
    path = tmp_path / "weights.json"
    cli._write_weights(str(path), stub, 3, True)
    data = path.read_bytes()
    texts = [rec.split(b"}")[0] for rec in data.split(b'"weight": ')[1:]]
    real_loads, parsed = json.loads, []

    def counting_loads(text, **kwargs):
        parsed.append(real_loads(text, **kwargs))
        return parsed[-1]
    monkeypatch.setattr(json, "loads", counting_loads)
    scanned = cli._scan_weights(data, 3)
    monkeypatch.undo()
    assert len(parsed) == 1
    assert len(parsed[0]) == len(set(texts)) == 7 < len(texts) == 12
    assert _same_arrays(scanned, cli._read_weights(json.loads(data), 3))
