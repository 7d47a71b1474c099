"""Batch command-line front end.

Subcommands: gen, check, decompose, verify, tables, spectrum, xval, bench.
All file formats are JSON. Exit codes: 0 success/verified, 1 usage or
malformed input, 2 inadmissible, 3 attempted-but-failed verification,
4 non-convergence.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import sys
import time
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from itertools import chain

import numpy as np

from . import oracle, scheme, solver, spectral
from .graph_core import (
    GraphError,
    MultipartiteGraph,
    check_admissible,
    generate_admissible_instance,
    make_complete,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INADMISSIBLE = 2
EXIT_VERIFY_FAILED = 3
EXIT_NO_CONVERGENCE = 4


def _seed(args) -> int:
    """The generator seed of --seed, 0 by default.

    Raises GraphError if --seed is given without defects: the graph is then
    complete, and the seed would go unused.
    """
    if args.seed is not None and not args.defects:
        raise GraphError("--seed needs --defects above 0; "
                         "a graph without defects is complete and draws nothing")
    return args.seed or 0


def _load_graph(args) -> MultipartiteGraph:
    """The graph of --input, or the one that -r, -s, -n, --defects and --seed
    describe. Raises GraphError if --input comes with any of those flags,
    which it would leave unused; they default to None to tell them apart.
    So does --seed without defects."""
    if args.input is not None:
        given = [("-" if len(name) == 1 else "--") + name
                 for name in ("r", "s", "n", "defects", "seed")
                 if getattr(args, name) is not None]
        if given:
            raise GraphError(f"--input cannot come with {', '.join(given)}")
        with open(args.input) as fh:
            return MultipartiteGraph.from_json(fh.read())
    if args.r is None or args.s is None or args.n is None:
        raise GraphError("need --input or all of -r, -s, -n")
    seed = _seed(args)
    if args.defects:
        return generate_admissible_instance(
            args.r, args.s, args.n, args.defects, seed=seed)
    return make_complete(args.r, args.s, args.n)


def _write(path, text):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_gen(args) -> int:
    if args.r is None or args.s is None or args.n is None:
        raise GraphError("gen needs all of -r, -s, -n")
    g = generate_admissible_instance(
        args.r, args.s, args.n, args.defects or 0, seed=_seed(args))
    _write(args.output, g.to_json())
    return EXIT_OK


def cmd_check(args) -> int:
    g = _load_graph(args)
    rep = check_admissible(g)
    out = {
        "nec1_ok": rep.nec1_ok,
        "nec1_violations": [[list(v), k] for v, k in rep.nec1_violations],
        "nec2_ok": rep.nec2_ok,
        "nec2_violations": [list(p) for p in rep.nec2_violations],
        "x_values": [str(x) for x in rep.x_values],
        "d_values": rep.d_values,
        "pair_counts": {f"{i},{j}": c for (i, j), c in rep.pair_counts.items()},
        "min_partite_degree": g.min_partite_degree(),
    }
    _write(args.output, json.dumps(out, indent=2))
    return EXIT_OK if rep.admissible else EXIT_INADMISSIBLE


WEIGHTS_CHUNK = 1 << 14  # records per write
VERTEX = "[%d, %d]"  # a clique vertex of the weights file: [part, index]


def _record_format(s: int) -> str:
    """The %-format of one weights-file record: s VERTEX texts, then the weight."""
    return '{"clique": [' + ", ".join(["%s"] * s) + '], "weight": %s}'


def _write_weights(path, decomp: solver.FractionalDecomposition, n: int,
                   include_zero: bool):
    """Write the weights file, or print it when there is no path.

    The text is json.dumps of the list of {"clique": [[part, index], ...],
    "weight": w} records. Each record is the join of s + 1 texts, each taken
    from a per-block table by index: the VERTEX text of its j-th vertex with
    the separator before it, ', {"clique": [' for j = 0 and ', ' otherwise,
    and the text of its weight with '], "weight": ' before it and '}' after
    it. The weight texts hold the repr of each distinct weight, which is
    json's float text. Weights are told apart by bit pattern, so -0.0 and 0.0
    keep their own texts, and a block whose weights repeat formats each of
    them once. A chunk of up to WEIGHTS_CHUNK records is one join, and the
    first record's leading ', ' becomes '['. So no record object and no
    whole-file string exists at any time, and the blocks are built one at a
    time from the implicit decomposition.
    """
    with open(path, "w") if path else nullcontext(sys.stdout) as fh:
        first = True
        for parts, index, weights in decomp.blocks():
            if not include_zero:
                keep = weights != 0.0
                index, weights = index[keep], weights[keep]
            s = len(parts)
            # the text of vertex (parts[j], i) and its separator at j * n + i
            vertices = np.array(
                [(", " if j else ', {"clique": [') + VERTEX % (p, i)
                 for j, p in enumerate(parts) for i in range(n)], dtype=object)
            # the text of weights[k] is texts[which[k]], one repr per bit pattern
            bits, which = np.unique(weights.view(np.uint64), return_inverse=True)
            texts = np.array(['], "weight": ' + text + "}" for text in
                              map(repr, bits.view(np.float64).tolist())],
                             dtype=object)
            for start in range(0, len(weights), WEIGHTS_CHUNK):
                rows = index[start:start + WEIGHTS_CHUNK]
                cells = np.empty((len(rows), s + 1), dtype=object)
                cells[:, :s] = vertices[rows + n * np.arange(s)]
                cells[:, s] = texts[which[start:start + WEIGHTS_CHUNK]]
                chunk = "".join(cells.ravel().tolist())
                fh.write("[" + chunk[2:] if first else chunk)
                first = False
            del index, weights, which  # before the next block is built
        fh.write("[]" if first else "]")
        if not path:
            fh.write("\n")


def cmd_decompose(args) -> int:
    g = _load_graph(args)
    decomp, rep = solver.decompose(
        g, tol=args.tol, max_iter=args.max_iter, eta=args.eta)
    t0 = time.perf_counter()
    _write_weights(args.output, decomp, g.structure.n, args.include_zero_weights)
    rep.timings["write"] = time.perf_counter() - t0
    report_text = json.dumps(rep.to_dict(), indent=2)
    if args.report:
        _write(args.report, report_text)
    else:
        print(report_text, file=sys.stderr)
    return EXIT_OK if rep.verified else EXIT_VERIFY_FAILED


def _weight_array(values: list) -> np.ndarray:
    """The (K,) floats of a weights file's parsed weights.

    Raises GraphError unless every value is a JSON number.
    """
    try:
        weights = np.array(values)
    except (TypeError, ValueError) as exc:
        raise GraphError(f"malformed weights record: {exc!r}") from exc
    # numpy reads a JSON true or false among numbers as 1 or 0
    if (weights.ndim != 1 or weights.dtype.kind not in "if"
            or bool in set(map(type, values))):
        raise GraphError("every weight must be a number")
    return weights.astype(float)


def _read_weights(records, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The (K, s, 2) integer clique array and (K,) weights of a weights file.

    Raises GraphError unless every record is {"clique": [[part, index], ...
    s vertices], "weight": number}. The vertex entries go straight into one
    flat integer array, with no nested lists for numpy to walk.
    """
    if not isinstance(records, list):
        raise GraphError("weights file must hold a list of records")
    if not records:
        return np.zeros((0, s, 2), dtype=np.int64), np.zeros(0)
    try:
        cliques = [rec["clique"] for rec in records]
        values = [rec["weight"] for rec in records]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed weights record: {exc!r}") from exc
    weights = _weight_array(values)
    try:
        vertices = list(chain.from_iterable(cliques))
        if set(map(len, cliques)) == {s} and set(map(len, vertices)) == {2}:
            entries = list(chain.from_iterable(vertices))
            if set(map(type, entries)) == {int}:
                flat = np.fromiter(entries, dtype=np.int64, count=len(entries))
                return flat.reshape(-1, s, 2), weights
    except (TypeError, OverflowError):
        pass
    raise GraphError(f"every clique must be {s} [part, index] integer pairs")


# The bytes that may occur in a JSON number, and the weights-file scanner's
# 256-byte bytes.translate table that maps them to 1 and other bytes to 0.
_NUMBER_BYTES = b"0123456789+-.eE"
_IS_NUMBER = bytes(c in _NUMBER_BYTES for c in range(256))
SCAN_CHUNK = 1 << 20  # bytes classified at a time


def _number_runs(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Start offsets and lengths of the runs of JSON-number bytes in data.

    The first and the last byte of data must not be number bytes. The bytes
    are classified a chunk at a time, so that only the offsets, int32 below
    2 GiB, are held for the whole text.
    """
    dtype = np.int32 if len(data) < 2 ** 31 else np.int64
    edges = [np.zeros(0, dtype=dtype)]
    for lo in range(0, len(data) - 1, SCAN_CHUNK):
        number = np.frombuffer(data[lo:lo + SCAN_CHUNK + 1].translate(_IS_NUMBER),
                               dtype=bool)
        edges.append(np.flatnonzero(number[1:] != number[:-1]).astype(dtype))
        edges[-1] += lo + 1
    edges = np.concatenate(edges)
    edges[1::2] -= edges[0::2]
    return edges[0::2], edges[1::2]


def _scan_weights(data: bytes, s: int) -> tuple[np.ndarray, np.ndarray] | None:
    """`_read_weights(json.loads(data), s)` of a file in the writer's layout.

    The layout is `_write_weights`' text exactly: "[]", or "[", the records
    joined by ", " and "]", each record `_record_format(s)` filled with
    VERTEX vertices; either may end in one newline. The template record,
    formatted with every entry 0, gives the runs of JSON-number bytes a
    record has (its entries, and the "e" of each key) and the bytes between
    them. In the text, every run must sit where the template's does and
    every other byte must be the template's. Vertex entries must be plain
    JSON integers of at most 18 digits, read by digit arithmetic; only the
    weights go through json.loads, each distinct text once
    (`_scan_weight_texts`), so they are json's own floats. Returns None for
    any other text, which is then read as JSON. Raises GraphError, as
    `_read_weights` does, if a weight is a number numpy cannot hold.
    """
    if data in (b"[]", b"[]\n"):
        return np.zeros((0, s, 2), dtype=np.int64), np.zeros(0)
    tail = b"]\n" if data.endswith(b"\n") else b"]"
    if not (data.startswith(b"[") and data.endswith(tail)):
        return None
    one = (_record_format(s) % ((VERTEX % (0, 0),) * s + (0,))).encode()
    one_starts, one_lens = _number_runs(one)
    skeleton = one.translate(None, _NUMBER_BYTES)
    one_at = one_starts - (np.cumsum(one_lens) - one_lens)  # its offset in skeleton
    entry = np.frombuffer(one, dtype=np.uint8)[one_starts] == ord("0")
    *vertex_cols, weight_col = np.flatnonzero(entry)  # 2s vertex entries, the weight

    starts, lens = _number_runs(data)
    k, extra = divmod(starts.size, one_starts.size)
    if k == 0 or extra:
        return None
    # every run where the template's sits, every other byte the template's:
    # a run's offset among the other bytes is its start less the run bytes
    # before it, and a record's offset is 1 + its index times skeleton + ", "
    at = np.cumsum(lens, dtype=starts.dtype)
    at -= lens
    np.subtract(starts, at, out=at)
    starts, lens, at = (a.reshape(k, -1) for a in (starts, lens, at))
    at -= one_at
    at -= (1 + (len(skeleton) + 2) * np.arange(k, dtype=at.dtype))[:, None]
    if at.any():
        return None
    del at
    others = data.translate(None, _NUMBER_BYTES)
    records = (b", " + skeleton) * (k - 1)
    if not (len(others) == 1 + len(skeleton) + len(records) + len(tail)
            and others.startswith(b"[" + skeleton)
            and others.startswith(records, 1 + len(skeleton))
            and others.endswith(tail)):
        return None
    del others, records
    text = np.frombuffer(data, dtype=np.uint8)
    for c in np.flatnonzero(~entry):
        if (lens[:, c] != one_lens[c]).any():
            return None
        for d in range(one_lens[c]):
            if (text[starts[:, c] + d] != one[one_starts[c] + d]).any():
                return None
    vertex_starts, vertex_lens = starts[:, vertex_cols], lens[:, vertex_cols]
    weight_starts, weight_lens = starts[:, weight_col].copy(), lens[:, weight_col].copy()
    del starts, lens  # and with them the offsets of every run

    longest = int(vertex_lens.max())
    if longest > 18 or ((text[vertex_starts] == ord("0")) & (vertex_lens > 1)).any():
        return None  # a leading zero is not JSON; longer numbers are left to json
    # the digits from each entry's last one back: the d-th from last, times
    # 10 ** d, of the entries that have more than d digits
    last = (vertex_starts + vertex_lens - 1).reshape(-1)
    vertex_lens = vertex_lens.reshape(-1)
    del vertex_starts
    vertices = text[last] - np.uint8(ord("0"))
    if (vertices > 9).any():
        return None
    vertices = vertices.astype(np.int64)
    for d in range(1, longest):
        some = np.flatnonzero(vertex_lens > d)
        digit = text[last[some] - d] - np.uint8(ord("0"))
        if (digit > 9).any():
            return None
        vertices[some] += digit.astype(np.int64) * 10 ** d
    del last, vertex_lens

    weights = _scan_weight_texts(data, weight_starts, weight_lens)
    if weights is None:
        return None
    return vertices.reshape(k, s, 2), weights


WEIGHT_WORDS = 3  # 8-byte words of the longest float repr, -1.2345678901234567e-308
# _LOW_BYTES[v] keeps the low v bytes of a little-endian 8-byte word
_LOW_BYTES = np.array([(1 << 8 * v) - 1 for v in range(9)], dtype=np.uint64)


def _row_hashes(words: np.ndarray) -> np.ndarray:
    """A uint64 hash of each row of a (k, m) uint64 array.

    Equal rows hash alike; rows that differ may too, which the caller checks.
    """
    hashes = np.zeros(len(words), dtype=np.uint64)
    for column in words.T:
        hashes *= np.uint64(0x9E3779B97F4A7C15)
        hashes ^= column
    return hashes


def _scan_weight_texts(data: bytes, starts: np.ndarray,
                       lens: np.ndarray) -> np.ndarray | None:
    """The (K,) floats of the weight texts data[starts[k]:starts[k] + lens[k]].

    Each text is read as WEIGHT_WORDS little-endian 8-byte words, the bytes
    past its end zeroed; no number has a zero byte, so two texts are equal
    exactly when their words are. The rows of words are told apart by hash,
    every row must equal its hash's first row exactly, and json.loads reads
    each distinct text once, so the weights are json's own floats under
    JSON's number grammar. Returns None if two texts share a hash, if a text
    is longer than the words or if json rejects one. Raises GraphError, as
    `_read_weights` does, if a weight is a number numpy cannot hold.
    """
    if int(lens.max()) > 8 * WEIGHT_WORDS:
        return None
    # the 8 bytes from each offset of data as one word; a word that would
    # run past the end is the last word shifted down by the difference
    word_at = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data, strides=(1,))
    words = np.empty((len(starts), WEIGHT_WORDS), dtype=np.uint64)
    for c in range(WEIGHT_WORDS):
        offsets = starts + 8 * c
        inside = np.minimum(offsets, len(word_at) - 1)
        words[:, c] = word_at[inside] >> (8 * (offsets - inside)).astype(np.uint64)
        words[:, c] &= _LOW_BYTES[np.clip(lens - 8 * c, 0, 8)]
    _, first, which = np.unique(_row_hashes(words), return_index=True,
                                return_inverse=True)
    if (words[first][which] != words).any():
        return None
    del words
    distinct = zip(starts[first].tolist(), lens[first].tolist())
    try:
        values = json.loads(b"[" + b",".join(
            [data[start:start + size] for start, size in distinct]) + b"]")
    except ValueError:
        return None
    return _weight_array(values)[which]


@contextmanager
def _gc_paused():
    """The cyclic garbage collector paused; the caller's GC state is restored.

    Parsed JSON holds no reference cycles, so the collections that its many
    allocations would trigger can free nothing. The records must also be
    freed inside the pause: otherwise the first allocation after it runs one
    young-generation collection over all of them.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def cmd_verify(args) -> int:
    with open(args.input) as fh:
        g = MultipartiteGraph.from_json(fh.read())
    with open(args.weights, "rb") as fh:
        data = fh.read()
    s = g.structure.s
    scanned = _scan_weights(data, s)
    if scanned is None:  # not the writer's layout: read it as JSON
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh, _gc_paused():
            # the parsed records are freed as soon as the arrays are built
            scanned = _read_weights(json.load(fh), s)
    del data
    cliques, weights = scanned
    err, worst = solver.verify_cliques(
        g, solver.bin_cliques(g, [(cliques[:, :, 0], cliques[:, :, 1], weights)]))
    result = {
        "max_edge_sum_error": err,
        "worst_edge": [list(v) for v in worst] if worst else None,
        "tolerance": solver.VERIFY_TOL,
    }
    _write(args.output, json.dumps(result, indent=2))
    return EXIT_OK if err < solver.VERIFY_TOL else EXIT_VERIFY_FAILED


def cmd_tables(args) -> int:
    r, n = args.r, args.n
    em = scheme.eigenmatrices(r, n)
    tables = {
        f"p^{k}": [[scheme.intersection_number(i, j, k, r, n)
                    for j in range(6)] for i in range(6)]
        for k in range(6)
    }
    out = {
        "r": r, "n": n,
        "intersection_numbers": tables,
        "valencies": [scheme.valency(j, r, n) for j in range(6)],
        "C": [[str(x) for x in row] for row in em.C],
        "D": [[str(x) for x in row] for row in em.D],
    }
    _write(args.output, json.dumps(out, indent=2))
    if not args.output:
        for k in range(6):
            print(f"\np_ij^{k}:")
            for row in tables[f"p^{k}"]:
                print("  " + " ".join(f"{x:>8}" for x in row))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    tab = spectral.spectrum(args.r, args.s, args.n, eta=args.eta)
    out = {
        "eigenvalues": [str(x) for x in tab.eigenvalues],
        "eigenvalues_float": [float(x) for x in tab.eigenvalues],
        "multiplicities": list(tab.multiplicities),
        "eta": str(tab.eta) if tab.eta is not None else None,
    }
    _write(args.output, json.dumps(out, indent=2))
    return EXIT_OK


def cmd_xval(args) -> int:
    """Run the dense-oracle cross-validation matrix for an (r, s, n) grid."""
    results = []
    ok = True
    for r in args.r_values:
        for s in args.s_values:
            for n in args.n_values:
                if not 3 <= s < r:
                    continue
                entry = {"r": r, "s": s, "n": n}
                try:
                    oracle.brute_relation_census(r, n, cap=args.oracle_cap)
                    entry["census"] = "pass"
                    tab = spectral.spectrum(r, s, n)
                    M = oracle.brute_mgamma(r, s, n, cap=args.oracle_cap)
                    got = oracle.group_spectrum(
                        oracle.numeric_spectrum(M), float(tab.eigenvalues[0]))
                    want = sorted(
                        (float(v), m)
                        for v, m in _merged_spectrum(tab).items())
                    match = len(got) == len(want) and all(
                        abs(a - b) < 1e-8 and ma == mb
                        for (a, ma), (b, mb) in zip(got, want))
                    entry["spectrum"] = "pass" if match else "FAIL"
                    ok = ok and match
                except oracle.SizeCapExceeded:
                    entry["skipped"] = "size cap"
                results.append(entry)
    _write(args.output, json.dumps(results, indent=2))
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _merged_spectrum(tab: spectral.SpectrumTable) -> dict:
    merged: dict = {}
    for lam, mult in zip(tab.eigenvalues, tab.multiplicities):
        if mult > 0:
            merged[lam] = merged.get(lam, 0) + mult
    return merged


def cmd_bench(args) -> int:
    rows = []
    seed = _seed(args)
    for n in args.n_values:
        g = (generate_admissible_instance(args.r, args.s, n, args.defects, seed=seed)
             if args.defects else make_complete(args.r, args.s, n))
        best = None
        iters = None
        for _ in range(3):
            t0 = time.perf_counter()
            _, rep = solver.decompose(g, tol=args.tol, max_iter=args.max_iter)
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
            iters = rep.iterations
        row = {"n": n, "edges": g.structure.num_edges,
               "matrix_free_s": best, "iterations": iters}
        try:
            t0 = time.perf_counter()
            oracle.dense_solve(g, eta=rep.eta, cap=args.oracle_cap)
            row["dense_s"] = time.perf_counter() - t0
        except oracle.SizeCapExceeded:
            row["dense_s"] = None
        rows.append(row)
    _write(args.output, json.dumps(rows, indent=2))
    return EXIT_OK


def _eta(text: str) -> Fraction:
    """A positive rational eta shift such as 6/5 or 1.2; otherwise a usage error."""
    try:
        eta = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"not a rational number: {text!r}") from None
    if eta <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return eta


def _tol(text: str) -> float:
    """A positive finite tolerance; otherwise a usage error."""
    tol = float(text)
    if not (math.isfinite(tol) and tol > 0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return tol


def _max_iter(text: str) -> int:
    """An iteration count of at least 1; otherwise a usage error."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fracdecomp",
        description="Fractional clique decompositions of balanced multipartite graphs")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, graph_input=True):
        sp.add_argument("-r", type=int, default=None)
        sp.add_argument("-s", type=int, default=None)
        sp.add_argument("-n", type=int, default=None)
        sp.add_argument("--defects", type=int, default=None, help="default 0")
        sp.add_argument("--seed", type=int, default=None, help="default 0")
        sp.add_argument("--output", default=None)
        if graph_input:
            sp.add_argument("--input", default=None,
                            help="graph JSON file, in place of -r/-s/-n/--defects/--seed")

    sp = sub.add_parser("gen", help="generate an admissible instance")
    add_common(sp, graph_input=False)

    sp = sub.add_parser("check", help="print the admissibility report")
    add_common(sp)

    sp = sub.add_parser("decompose", help="solve and write clique weights")
    add_common(sp)
    sp.add_argument("--report", default=None)
    sp.add_argument("--tol", type=_tol, default=1e-10)
    sp.add_argument("--max-iter", type=_max_iter, default=200)
    sp.add_argument("--eta", type=_eta, default=None)
    sp.add_argument("--include-zero-weights", action="store_true")

    sp = sub.add_parser("verify", help="recheck a weights file against a graph")
    sp.add_argument("--input", required=True)
    sp.add_argument("--weights", required=True)
    sp.add_argument("--output", default=None)

    sp = sub.add_parser("tables", help="dump intersection numbers and eigenmatrices")
    sp.add_argument("-r", type=int, required=True)
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("--output", default=None)

    sp = sub.add_parser("spectrum", help="dump the closed-form spectrum table")
    sp.add_argument("-r", type=int, required=True)
    sp.add_argument("-s", type=int, required=True)
    sp.add_argument("-n", type=int, required=True)
    sp.add_argument("--eta", type=_eta, default=None)
    sp.add_argument("--output", default=None)

    sp = sub.add_parser("xval", help="dense-oracle cross-validation grid")
    sp.add_argument("--r-values", type=int, nargs="+", default=[4, 5, 6])
    sp.add_argument("--s-values", type=int, nargs="+", default=[3, 4])
    sp.add_argument("--n-values", type=int, nargs="+", default=[1, 2, 3])
    sp.add_argument("--oracle-cap", type=int, default=oracle.DEFAULT_SIZE_CAP)
    sp.add_argument("--output", default=None)

    sp = sub.add_parser("bench", help="time matrix-free vs dense solves")
    sp.add_argument("-r", type=int, required=True)
    sp.add_argument("-s", type=int, required=True)
    sp.add_argument("--n-values", type=int, nargs="+", required=True)
    sp.add_argument("--defects", type=int, default=0)
    sp.add_argument("--seed", type=int, default=None, help="default 0")
    sp.add_argument("--tol", type=_tol, default=1e-10)
    sp.add_argument("--max-iter", type=_max_iter, default=200)
    sp.add_argument("--oracle-cap", type=int, default=oracle.DEFAULT_SIZE_CAP)
    sp.add_argument("--output", default=None)
    return p


def _solve_exit_code(exc: solver.SolveError) -> int:
    """The exit code of a failed solve or verification, for every command."""
    if isinstance(exc, solver.NonConvergence):
        return EXIT_NO_CONVERGENCE
    if isinstance(exc, (solver.NegativeWeight, solver.VerificationFailed)):
        return EXIT_VERIFY_FAILED
    return EXIT_INADMISSIBLE


_parser = None  # build_parser(), built by the first run


def run(argv=None) -> int:
    """Run one command; its exit code.

    The parser is built once and kept. It names the command, and the
    command's function is looked up on the module at each call, so that
    whatever replaced a `cmd_*` attribute in the meantime is what runs.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return globals()["cmd_" + args.command](args)
    except solver.SolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _solve_exit_code(exc)
    except (GraphError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
