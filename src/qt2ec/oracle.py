"""Independent brute-force ground truth and the small-graph theorem sweep.

The brute-force counters run one definitional backtracking search: edges
are assigned a bit in index order, and each induced-P3 constraint (an XOR
parity on its two edge bits) is tested as soon as its later edge is set.
Every surviving total colouring/orientation is counted one leaf at a time,
so the work follows the number of answers rather than 2^m.  The counters
never consult the class partition whose counting laws they validate.  The
sweep runs every named structural check over the labeled-graph corpus and
reports one record per (graph, check) with a reproducible witness on
failure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Callable, Iterator

from .classes import EdgeClassPartition, compute_classes, verify_partition_laws
from .colouring import (
    Colourability,
    classify_colourability,
    count_homogeneous_witness_classes,
    find_homogeneous_witness,
)
from .errors import ContractError, RefusalError
from .graph import (
    Graph,
    edge_subgraph,
    encode_graph6,
    induced_p3s,
    induced_subgraph,
    is_connected,
    is_module_set,
    reach,
)
from .orientation import orientability
from .report import CheckResult, VerificationReport
from .structure import (
    CROSSING,
    check_crossing_lemmas,
    check_tinylemma_instances,
    class_pair_relation,
    three_class_classification,
)

MASK_CAP_EDGES = 22
MAX_CORPUS_N = 7

CheckFn = Callable[[Graph, EdgeClassPartition], list[CheckResult]]


# ---------------------------------------------------------------------------
# brute-force counters


def _count_parity_solutions(g: Graph, orient: bool) -> int:
    """Count bit maps on the edges that satisfy every induced-P3 parity.

    For an induced P3 ``u-v-w`` with edges i < j the constraint is
    ``bit_i ^ bit_j == parity``.  Colourings need equal colours (parity 0).
    For orientations a bit of 0 orients its edge low->high, and the centre
    v must be a common head or a common tail, so the parity is whether v
    is the high end of exactly one of the two edges.  ``need[j]`` holds
    the earlier edges constrained against j and ``odd[j]`` those of them
    with parity 1: setting bit_j to b passes iff the earlier bits under
    ``need[j]`` equal ``odd[j]`` when b is 0 and its complement when b is 1.
    """
    if g.m > MASK_CAP_EDGES:
        raise RefusalError(f"brute force capped at {MASK_CAP_EDGES} edges, graph has {g.m}")
    m = g.m
    need = [0] * m
    odd = [0] * m
    for u, v, w in induced_p3s(g):
        i, j = sorted((g.edge_index(u, v), g.edge_index(v, w)))
        need[j] |= 1 << i
        if orient and (v == g.edge(i)[1]) != (v == g.edge(j)[1]):
            odd[j] |= 1 << i
    count = 0
    stack = [(0, 0)]
    while stack:
        e, bits = stack.pop()
        while e < m:
            earlier = need[e]
            if not earlier:
                stack.append((e + 1, bits | 1 << e))
            elif bits & earlier == odd[e]:
                pass
            elif bits & earlier == earlier ^ odd[e]:
                bits |= 1 << e
            else:
                break
            e += 1
        else:
            count += 1
    return count


def brute_force_colouring_count(g: Graph) -> int:
    """Count quasi-transitive 2-edge-colourings by backtracking over the
    edges: every induced P3 must be monochromatic."""
    return _count_parity_solutions(g, orient=False)


def brute_force_orientation_count(g: Graph) -> int:
    """Count quasi-transitive orientations by backtracking over the edges.

    Validity is checked directly from the definition: the centre of every
    induced P3 must be a common head or a common tail.
    """
    return _count_parity_solutions(g, orient=True)


@lru_cache(maxsize=1)
def _orientation_count(g: Graph) -> int:
    """The brute-force orientation count of the graph under test, shared by
    the two checks that need it."""
    return brute_force_orientation_count(g)


# ---------------------------------------------------------------------------
# corpus generation


def _pair_table(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def graph_from_mask(n: int, mask: int) -> Graph:
    pairs = _pair_table(n)
    return Graph(n, [pairs[b] for b in range(len(pairs)) if (mask >> b) & 1])


def _mask_connected(pairs: list[tuple[int, int]], n: int, mask: int) -> bool:
    """Connectivity of ``graph_from_mask(n, mask)`` straight from the mask."""
    adj = [0] * n
    while mask:
        low = mask & -mask
        u, v = pairs[low.bit_length() - 1]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        mask ^= low
    return n <= 1 or reach(adj, 1) == (1 << n) - 1


def _check_corpus_n(n: int) -> None:
    if not 1 <= n <= MAX_CORPUS_N:
        raise ContractError(f"corpus size must be 1..{MAX_CORPUS_N}, got {n}")


def _labeled_masks(n: int, connected_only: bool) -> Iterator[int]:
    pairs = _pair_table(n)
    for mask in range(1 << len(pairs)):
        if not connected_only or _mask_connected(pairs, n, mask):
            yield mask


def enumerate_labeled_graphs(n: int, connected_only: bool = True) -> Iterator[Graph]:
    """All labeled graphs on n vertices in ascending edge-mask order."""
    _check_corpus_n(n)
    for mask in _labeled_masks(n, connected_only):
        yield graph_from_mask(n, mask)


def _sample_connected_masks(n: int, count: int, seed: int) -> list[int]:
    _check_corpus_n(n)
    pairs = _pair_table(n)
    rng = Random(seed)
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < count:
        if len(seen) == 1 << len(pairs):
            raise RefusalError(f"fewer than {count} connected graphs exist at n={n}")
        mask = rng.getrandbits(len(pairs))
        if mask in seen:
            continue
        seen.add(mask)
        if _mask_connected(pairs, n, mask):
            out.append(mask)
    return out


def sample_connected_graphs(n: int, count: int, seed: int) -> list[Graph]:
    """Seeded sample of ``count`` distinct connected labeled graphs."""
    return [graph_from_mask(n, mask) for mask in _sample_connected_masks(n, count, seed)]


# ---------------------------------------------------------------------------
# subset oracle for the unique-witness theorem


def subset_witness_count(g: Graph) -> int:
    """Exhaustively count vertex subsets that qualify as homogeneous
    witnesses: size 2..n-1, module, connected induced subgraph.

    Works straight off adjacency bitsets, independently of the edge-class
    machinery it cross-checks.
    """
    if g.n > MAX_CORPUS_N:
        raise RefusalError(f"subset brute force capped at n = {MAX_CORPUS_N}, graph has {g.n}")
    adj = [g.adjacency_bits(v) for v in range(g.n)]
    count = 0
    for mask in range(1 << g.n):
        size = mask.bit_count()
        if size < 2 or size > g.n - 1:
            continue
        module = True
        for v in range(g.n):
            if (mask >> v) & 1:
                continue
            hit = adj[v] & mask
            if hit != 0 and hit != mask:
                module = False
                break
        count += module and reach(adj, mask & -mask, mask) == mask
    return count


# ---------------------------------------------------------------------------
# sweep checks

PENDANT_INTERPRETATION = (
    "pendant class = a class whose vertex set contains a vertex belonging "
    "to no other class's vertex set"
)


def _vacuous(name: str, detail: str) -> list[CheckResult]:
    return [CheckResult(name, True, detail=detail)]


def _check_colouring_count(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    brute = brute_force_colouring_count(g)
    expected = 1 << p.k
    ok = brute == expected
    return [
        CheckResult(
            "colouring-count",
            ok,
            witness=None if ok else f"brute={brute} expected=2^{p.k}={expected}",
        )
    ]


def _check_orientation_count(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    brute = _orientation_count(g)
    expected = orientability(g).count
    ok = brute == expected
    return [
        CheckResult(
            "orientation-count",
            ok,
            witness=None if ok else f"brute={brute} expected={expected}",
        )
    ]


def _check_partition_laws(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    return verify_partition_laws(g, p).results


def _check_class_subgraph_single_class(
    g: Graph, p: EdgeClassPartition
) -> list[CheckResult]:
    witness = None
    for cid in range(p.k):
        sub_k = compute_classes(edge_subgraph(g, p.class_edges(cid))).k
        if sub_k != 1:
            witness = f"class {cid} splits into {sub_k} classes as its own graph"
            break
    return [CheckResult("class-subgraph-single-class", witness is None, witness=witness)]


def _distances(g: Graph, x: int) -> dict[int, int]:
    dist = {x: 0}
    order = [x]
    for v in order:
        for w in g.neighbors(v):
            if w not in dist:
                dist[w] = dist[v] + 1
                order.append(w)
    return dist


def _all_shortest_paths(
    g: Graph, dist: dict[int, int], x: int, y: int
) -> Iterator[list[int]]:
    """Every shortest x-y path, given the BFS distances ``dist`` from x."""
    if y not in dist:
        return
    stack: list[list[int]] = [[y]]
    while stack:
        partial = stack.pop()
        head = partial[-1]
        if head == x:
            yield partial[::-1]
            continue
        for u in g.neighbors(head):
            if dist.get(u) == dist[head] - 1:
                stack.append(partial + [u])


def _shortest_path_witness(g: Graph, p: EdgeClassPartition) -> str | None:
    for x in range(g.n):
        dist = _distances(g, x)
        for y in range(x + 1, g.n):
            for path_vertices in _all_shortest_paths(g, dist, x, y):
                cids = {
                    p.class_of_pair(a, b)
                    for a, b in zip(path_vertices, path_vertices[1:])
                }
                if len(cids) > 1:
                    return f"shortest path {path_vertices} uses classes {sorted(cids)}"
    return None


def _check_shortest_paths(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    witness = _shortest_path_witness(g, p)
    return [CheckResult("shortest-path-single-class", witness is None, witness=witness)]


def _check_pendant_classes(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    if not is_connected(g):
        return _vacuous("pendant-class-bound", "disconnected, skipped")
    pendant = []
    for cid in range(p.k):
        others: set[int] = set()
        for other in range(p.k):
            if other != cid:
                others.update(p.vertex_sets[other])
        if p.vertex_sets[cid] - others:
            pendant.append(cid)
    ok = len(pendant) <= 1
    return [
        CheckResult(
            "pendant-class-bound",
            ok,
            witness=None if ok else f"pendant classes {pendant}",
            detail=PENDANT_INTERPRETATION,
        )
    ]


def _check_two_class_nesting(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    if not is_connected(g) or p.k != 2:
        return _vacuous("two-class-nesting", f"k={p.k}, vacuous")
    rel = class_pair_relation(g, p, 0, 1)
    ok = rel.tag == "nested"
    return [
        CheckResult(
            "two-class-nesting",
            ok,
            witness=None if ok else f"two-class pair is {rel.tag}",
        )
    ]


def _check_three_class(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    if not is_connected(g) or p.k != 3:
        return _vacuous("three-class-classification", f"k={p.k}, vacuous")
    outcome = three_class_classification(g)
    ok = outcome.tripartite_parts is not None or outcome.spanning_class is not None
    detail = None
    if outcome.tripartite_parts is not None and outcome.spanning_class is not None:
        detail = f"both: tripartite and spanning class {outcome.spanning_class}"
    return [
        CheckResult(
            "three-class-classification",
            ok,
            witness=None if ok else "neither complete tripartite nor spanning class",
            detail=detail,
        )
    ]


def _check_crossing_lemmas(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    results: list[CheckResult] = []
    for c in range(p.k):
        for d in range(c + 1, p.k):
            if class_pair_relation(g, p, c, d).tag == CROSSING:
                results.extend(check_crossing_lemmas(g, p, c, d).results)
    if not results:
        return _vacuous("crossing-lemmas", "no crossing pairs")
    return results


def _check_tinylemma(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    return check_tinylemma_instances(g, p).results


def _check_hf1f2_witness(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    if not is_connected(g):
        return _vacuous("hf1f2-witness", "disconnected, skipped")
    witness_set = find_homogeneous_witness(g)
    problems = []
    if (witness_set is not None) != (p.k >= 2):
        problems.append(f"witness presence {witness_set is not None} but k={p.k}")
    if witness_set is not None:
        if not 2 <= len(witness_set) <= g.n - 1:
            problems.append(f"witness size {len(witness_set)} out of range")
        if not is_module_set(g, witness_set):
            problems.append(f"witness {sorted(witness_set)} is not a module")
        if not is_connected(induced_subgraph(g, witness_set)):
            problems.append(f"witness {sorted(witness_set)} induces a disconnected graph")
    ok = not problems
    return [
        CheckResult("hf1f2-witness", ok, witness=None if ok else "; ".join(problems))
    ]


def _check_unique_hf1f2(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    if not is_connected(g):
        return _vacuous("unique-hf1f2", "disconnected, skipped")
    subset_count = subset_witness_count(g)
    class_count = count_homogeneous_witness_classes(g)
    uniquely = p.k == 2
    ok = (subset_count == 1) == uniquely and (class_count == 1) == uniquely
    detail = f"subset-count={subset_count} class-derived={class_count} k={p.k}"
    return [
        CheckResult(
            "unique-hf1f2",
            ok,
            witness=None if ok else detail,
            detail=detail if ok else None,
        )
    ]


def _check_final_equivalence(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    if g.m == 0 or not is_connected(g):
        return _vacuous("final-equivalence", "no edges or disconnected, skipped")
    brute = _orientation_count(g)
    if brute == 0:
        return _vacuous("final-equivalence", "not orientable, skipped")
    trivial_only = classify_colourability(g).kind is Colourability.TRIVIAL_ONLY
    ok = (brute == 2) == trivial_only
    return [
        CheckResult(
            "final-equivalence",
            ok,
            witness=None if ok else f"orientations={brute} trivial-only={trivial_only}",
        )
    ]


ALL_CHECKS: dict[str, CheckFn] = {
    "colouring-count": _check_colouring_count,
    "orientation-count": _check_orientation_count,
    "partition-laws": _check_partition_laws,
    "class-subgraph-single-class": _check_class_subgraph_single_class,
    "shortest-path-single-class": _check_shortest_paths,
    "pendant-class-bound": _check_pendant_classes,
    "two-class-nesting": _check_two_class_nesting,
    "three-class-classification": _check_three_class,
    "crossing-lemmas": _check_crossing_lemmas,
    "tinylemma": _check_tinylemma,
    "hf1f2-witness": _check_hf1f2_witness,
    "unique-hf1f2": _check_unique_hf1f2,
    "final-equivalence": _check_final_equivalence,
}


# ---------------------------------------------------------------------------
# the sweep


@dataclass
class SweepConfig:
    """What the theorem sweep should cover; ``checks=None`` selects all."""

    max_n: int = 5
    connected_only: bool = True
    checks: frozenset[str] | None = None
    sample_n6: int | None = None
    seed: int = 0
    threads: int = 1


def _run_checks(
    g: Graph, names: list[str], registry: dict[str, CheckFn]
) -> list[CheckResult]:
    """Every named check on ``g``, its records keyed by graph6.  A check's
    time goes on its first record only, so the ``seconds`` sum to the
    time spent in checks."""
    key = encode_graph6(g)
    partition = compute_classes(g)
    out: list[CheckResult] = []
    for name in names:
        started = time.perf_counter()
        records = registry[name](g, partition)
        seconds: float | None = time.perf_counter() - started
        for r in records:
            out.append(CheckResult(r.check, r.passed, key, r.witness, r.detail, seconds))
            seconds = None
    return out


def _sweep_worker(args: tuple[int, int, tuple[str, ...]]) -> list[CheckResult]:
    n, mask, names = args
    return _run_checks(graph_from_mask(n, mask), list(names), ALL_CHECKS)


def theorem_sweep(
    cfg: SweepConfig, registry: dict[str, CheckFn] | None = None
) -> VerificationReport:
    """Run the named checks over the corpus and report every verdict.

    Failures become report records (never exceptions), each carrying the
    graph6 key of the offending graph.  Records come back sorted by
    (graph6, check) so multi-worker runs merge identically; ``registry`` is
    a test hook replacing the default check table (serial execution only).
    """
    custom = registry is not None
    table = registry if registry is not None else ALL_CHECKS
    if not 1 <= cfg.max_n <= MAX_CORPUS_N:
        raise ContractError(f"max_n must be 1..{MAX_CORPUS_N}, got {cfg.max_n}")
    if cfg.sample_n6 is not None and cfg.sample_n6 < 0:
        raise ContractError(f"sample_n6 must be 0 or more, got {cfg.sample_n6}")
    names = sorted(cfg.checks) if cfg.checks is not None else sorted(table)
    for name in names:
        if name not in table:
            raise ContractError(f"unknown check {name!r}")

    items = [
        (n, mask)
        for n in range(1, cfg.max_n + 1)
        for mask in _labeled_masks(n, cfg.connected_only)
    ]
    if cfg.sample_n6 and cfg.max_n < 6:
        items.extend((6, mask) for mask in _sample_connected_masks(6, cfg.sample_n6, cfg.seed))

    report = VerificationReport(
        meta={
            "max_n": cfg.max_n,
            "connected_only": cfg.connected_only,
            "checks": names,
            "sample_n6": cfg.sample_n6,
            "seed": cfg.seed,
            "graphs": len(items),
        }
    )
    if cfg.threads > 1 and not custom:
        # Imported here: the module costs every CLI call tens of ms.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
            for records in pool.map(
                _sweep_worker,
                [(n, mask, tuple(names)) for n, mask in items],
                chunksize=64,
            ):
                report.extend(records)
    else:
        for n, mask in items:
            report.extend(_run_checks(graph_from_mask(n, mask), names, table))
    return report.sorted()
