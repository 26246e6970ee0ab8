"""Independent brute-force ground truth and the small-graph theorem sweep.

The brute-force counters run one definitional backtracking search: edges
are assigned a bit in index order, and each induced-P3 constraint (an XOR
parity on its two edge bits) is tested as soon as its later edge is set.
Every surviving total colouring/orientation is counted one leaf at a time,
so the work follows the number of answers rather than 2^m.  The counters
never consult the class partition whose counting laws they validate.  The
sweep runs every named structural check over the labeled-graph corpus and
reports one record per (graph, check) with a reproducible witness on
failure.  The sweep's corpus holds connected graphs only.  The sweep calls
the forcing kernel once per graph, for the partition under test; no check
calls it again, and ``class-subgraph-single-class`` decides every class's
own class count in one union-find over the graph's edges.
"""

from __future__ import annotations

import time
from collections import deque, namedtuple
from collections.abc import Callable, Iterator
from functools import lru_cache, partial
from itertools import chain, islice
from random import Random
from sys import intern

from .classes import EdgeClassPartition, compute_classes
from .colouring import count_homogeneous_witness_classes, find_homogeneous_witness
from .errors import ContractError, RefusalError
from .graph import (
    Graph,
    check_int,
    check_type,
    encode_graph6,
    graph_from_mask,
    induced_p3_edges,
    is_complete_multipartite,
    is_connected,
    is_module_set,
    mask_pairs,
    reach,
)
from .orientation import OrientationFeasibility
from .report import CheckResult, VerificationReport, verdict
from .structure import (
    NESTED,
    check_crossing_lemmas,
    check_tinylemma_instances,
    class_pair_relation,
    first_straddle,
    verify_partition_laws,
)

MASK_CAP_EDGES = 22
MAX_CORPUS_N = 7
MAX_SWEEP_THREADS = 64

# A structural check judges the partition it is handed, not the graph's
# memoised one, and returns its unkeyed records, each made by
# report.verdict, so it passes exactly when it names no witness; a
# standalone call reads them as they are, and only sweep_records keys them.  Two checks are
# exceptions: hf1f2-witness and unique-hf1f2 call
# find_homogeneous_witness(g) and count_homogeneous_witness_classes(g),
# which read the graph's memoised partition, so a tampered p does not reach
# them (ROADMAP item 3's memo-injection half).
CheckFn = Callable[[Graph, EdgeClassPartition], list[CheckResult]]


# ---------------------------------------------------------------------------
# brute-force counters


@lru_cache(maxsize=1)
def _p3_parity_table(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(need, odd)`` of the graph under test, built from one induced-P3
    scan and shared by the two counters: ``need[j]`` has bit i set for
    each induced P3 on edges i < j, and ``odd[j]`` also when that P3's
    orientation parity is 1.  A bit of 0 orients its edge low->high, and
    the centre v must be a common head or a common tail, so the parity is
    whether v is the high end of exactly one of the two edges."""
    need = [0] * g.m
    odd = [0] * g.m
    for u, v, w, i, j in induced_p3_edges(g):
        need[j] |= 1 << i
        if (u < v) != (w < v):
            odd[j] |= 1 << i
    return tuple(need), tuple(odd)


def _count_parity_solutions(g: Graph, orient: bool) -> int:
    """Count bit maps on the edges that satisfy every induced-P3 parity.

    For an induced P3 ``u-v-w`` with edges i < j the constraint is
    ``bit_i ^ bit_j == parity``.  Colourings need equal colours (parity 0);
    orientations take the parities of :func:`_p3_parity_table`.  ``need[j]``
    holds the earlier edges constrained against j and ``odd[j]`` those of
    them with parity 1: setting bit_j to b passes iff the earlier bits
    under ``need[j]`` equal ``odd[j]`` when b is 0 and its complement when
    b is 1.
    """
    if g.m > MASK_CAP_EDGES:
        raise RefusalError(f"brute force capped at {MASK_CAP_EDGES} edges, graph has {g.m}")
    m = g.m
    need, orient_odd = _p3_parity_table(g)
    odd = orient_odd if orient else (0,) * m
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
    check_type(g, Graph, "brute_force_colouring_count")
    return _count_parity_solutions(g, orient=False)


def brute_force_orientation_count(g: Graph) -> int:
    """Count quasi-transitive orientations by backtracking over the edges.

    Validity is checked directly from the definition: the centre of every
    induced P3 must be a common head or a common tail.
    """
    check_type(g, Graph, "brute_force_orientation_count")
    return _count_parity_solutions(g, orient=True)


@lru_cache(maxsize=1)
def _orientation_count(g: Graph) -> int:
    """The brute-force orientation count of the graph under test, shared by
    the two checks that need it."""
    return brute_force_orientation_count(g)


# ---------------------------------------------------------------------------
# corpus generation


def enumerate_labeled_graphs(n: int, connected_only: bool = True) -> Iterator[Graph]:
    """All labeled graphs on n vertices in ascending edge-mask order, which
    is graph6 order.  A bad ``n`` is refused at the call."""
    check_int(n, "corpus size", 1, MAX_CORPUS_N)
    graphs = map(partial(graph_from_mask, n), range(1 << n * (n - 1) // 2))
    return filter(is_connected, graphs) if connected_only else graphs


# The number of connected labeled graphs on n = 1..7 vertices (OEIS A001187).
_CONNECTED_COUNTS = (1, 1, 4, 38, 728, 26704, 1866256)


def _sample_connected_masks(n: int, count: int, seed: int) -> list[int]:
    check_int(n, "corpus size", 1, MAX_CORPUS_N)
    check_int(count, "count", 0)
    check_int(seed, "seed")
    if count > _CONNECTED_COUNTS[n - 1]:
        raise RefusalError(f"fewer than {count} connected graphs exist at n={n}")
    # A draw reads the upper triangle row by row, its bit i the i-th pair in
    # row order, so what a seed names is not tied to the mask layout.
    row_bits = [1 << bit for bit, _ in mask_pairs(n)]
    rng = Random(seed)
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < count:
        drawn = rng.getrandbits(len(row_bits))
        mask = 0
        while drawn:
            low = drawn & -drawn
            mask |= row_bits[low.bit_length() - 1]
            drawn ^= low
        if mask in seen:
            continue
        seen.add(mask)
        if is_connected(graph_from_mask(n, mask)):
            out.append(mask)
    return out


def sample_connected_graphs(n: int, count: int, seed: int) -> list[Graph]:
    """Seeded sample of ``count`` distinct connected labeled graphs."""
    return [graph_from_mask(n, mask) for mask in _sample_connected_masks(n, count, seed)]


# ---------------------------------------------------------------------------
# subset oracle for the unique-witness theorem


@lru_cache(maxsize=None)
def _subset_steps(n: int) -> tuple[tuple[int, int, int], ...]:
    """``(mask, rest, low vertex)`` for each nonempty vertex subset of n
    vertices in increasing mask order, ``rest`` being the mask minus its
    lowest vertex."""
    steps = []
    for mask in range(1, 1 << n):
        low = mask & -mask
        steps.append((mask, mask ^ low, low.bit_length() - 1))
    return tuple(steps)


def subset_witness_count(g: Graph) -> int:
    """Exhaustively count vertex subsets that qualify as homogeneous
    witnesses: size 2..n-1, module, connected induced subgraph.

    Works straight off adjacency bitsets, independently of the edge-class
    machinery it cross-checks.  Every subset is tried, in increasing mask
    order, so each mask's two running intersections come from the mask
    minus its lowest vertex: ``common`` holds the vertices adjacent to all
    of the mask and ``apart`` those adjacent to none of it.  The mask is a
    module iff every vertex outside it lies in one of the two, that is iff
    the mask and the two cover every vertex.
    """
    check_type(g, Graph, "subset_witness_count")
    n = g.n
    if n > MAX_CORPUS_N:
        raise RefusalError(f"subset brute force capped at n = {MAX_CORPUS_N}, graph has {n}")
    adj = [g.adjacency_bits(v) for v in range(n)]
    full = (1 << n) - 1
    co_adj = [full ^ row for row in adj]
    common = [full] * (1 << n)
    apart = [full] * (1 << n)
    count = 0
    for mask, rest, v in _subset_steps(n):
        common[mask] = both = common[rest] & adj[v]
        apart[mask] = neither = apart[rest] & co_adj[v]
        if rest and mask != full and both | neither | mask == full:
            count += reach(adj, mask ^ rest, mask) == mask
    return count


# ---------------------------------------------------------------------------
# sweep checks

PENDANT_INTERPRETATION = (
    "pendant class = a class whose vertex set contains a vertex belonging "
    "to no other class's vertex set"
)


def _vacuous(name: str, detail: str) -> list[CheckResult]:
    return [verdict(name, detail=detail)]


def _check_colouring_count(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    brute = brute_force_colouring_count(g)
    expected = 1 << p.k
    if brute != expected:
        return [verdict("colouring-count", f"brute={brute} expected=2^{p.k}={expected}")]
    return [verdict("colouring-count")]


def _check_orientation_count(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    brute = _orientation_count(g)
    expected = OrientationFeasibility(p).count
    if brute != expected:
        return [verdict("orientation-count", f"brute={brute} expected={expected}")]
    return [verdict("orientation-count")]


def _check_class_subgraph_single_class(
    g: Graph, p: EdgeClassPartition
) -> list[CheckResult]:
    """Each class is a single class as a graph of its own.

    One union-find over g's edge indices decides every class at once.  At
    each centre v, edges uv and vw are joined when both lie in one class c
    and uw is not an edge of c: either not an edge of g, or an edge of
    another class.  Those pairs are exactly the induced P3s of c's own
    graph, so the roots among c's edges count c's classes as a graph of
    its own, and the first class whose count is not 1 is the witness.  It
    reads only ``Graph``'s public API, builds no ``Graph`` and calls no
    kernel.
    """
    class_of = p.class_of
    parent = list(range(g.m))

    def find(e: int) -> int:
        while parent[e] != e:
            parent[e] = e = parent[parent[e]]
        return e

    # at[v][u] is the index of edge vu, keyed in ascending u since the
    # edges come in pair order.
    at: list[dict[int, int]] = [{} for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        at[u][v] = i
        at[v][u] = i
    for row in at:
        ends = list(row.items())
        for a, (u, i) in enumerate(ends, 1):
            c = class_of[i]
            across = at[u]
            for w, j in ends[a:]:
                if class_of[j] == c:
                    closing = across.get(w)
                    if closing is None or class_of[closing] != c:
                        parent[find(i)] = find(j)
    # A root is its own parent.
    sub_ks = [0] * p.k
    for e, root in enumerate(parent):
        if root == e:
            sub_ks[class_of[e]] += 1
    for cid, sub_k in enumerate(sub_ks):
        if sub_k != 1:
            witness = f"class {cid} splits into {sub_k} classes as its own graph"
            return [verdict("class-subgraph-single-class", witness)]
    return [verdict("class-subgraph-single-class")]


def _check_shortest_paths(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    """Every shortest path lies in one class.

    One induced-P3 straddle scan decides it, the one that partition law (d)
    runs (``first_straddle``).  Two consecutive edges a-b-c of a
    shortest path form an induced P3, since an edge ac would make the path
    shorter; and every induced P3 u-v-w is itself a shortest u-w path.  So
    some shortest path uses two classes exactly when some induced P3
    straddles two classes, and the first such P3 is the witness.
    """
    straddle = first_straddle(g, p)
    if straddle is None:
        return [verdict("shortest-path-single-class")]
    u, v, w = straddle
    cids = sorted((p.class_of_pair(u, v), p.class_of_pair(v, w)))
    return [verdict("shortest-path-single-class", f"shortest path {[u, v, w]} uses classes {cids}")]


def _check_pendant_classes(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    # A class is pendant unless every vertex of it lies in another class
    # too, i.e. among the vertices seen in two classes or more.
    seen: set[int] = set()
    shared: set[int] = set()
    for verts in p.vertex_sets:
        shared |= seen & verts
        seen |= verts
    pendant = [cid for cid, verts in enumerate(p.vertex_sets) if not verts <= shared]
    if len(pendant) > 1:
        return [verdict("pendant-class-bound", f"pendant classes {pendant}", PENDANT_INTERPRETATION)]
    return [verdict("pendant-class-bound", detail=PENDANT_INTERPRETATION)]


def _check_two_class_nesting(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    if p.k != 2:
        return _vacuous("two-class-nesting", f"k={p.k}, vacuous")
    tag = class_pair_relation(g, p, 0, 1).tag
    if tag != NESTED:
        return [verdict("two-class-nesting", f"two-class pair is {tag}")]
    return [verdict("two-class-nesting")]


def _check_three_class(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    """A connected three-class graph is complete tripartite or has a class
    spanning every vertex; the detail notes when both hold."""
    if p.k != 3:
        return _vacuous("three-class-classification", f"k={p.k}, vacuous")
    parts = is_complete_multipartite(g)
    tripartite = parts is not None and len(parts) == 3
    everything = frozenset(range(g.n))
    spanning = next((cid for cid in range(3) if p.vertex_sets[cid] == everything), None)
    if not tripartite and spanning is None:
        return [verdict("three-class-classification", "neither complete tripartite nor spanning class")]
    if tripartite and spanning is not None:
        return [verdict("three-class-classification", detail=f"both: tripartite and spanning class {spanning}")]
    return [verdict("three-class-classification")]


def _check_crossing_lemmas(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    return check_crossing_lemmas(g, p) or _vacuous("crossing-lemmas", "no crossing pairs")


def _check_hf1f2_witness(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    witness_set = find_homogeneous_witness(g)
    problems = []
    if (witness_set is not None) != (p.k >= 2):
        problems.append(f"witness presence {witness_set is not None} but k={p.k}")
    if witness_set is not None:
        if not 2 <= len(witness_set) <= g.n - 1:
            problems.append(f"witness size {len(witness_set)} out of range")
        if not is_module_set(g, witness_set):
            problems.append(f"witness {sorted(witness_set)} is not a module")
        if not is_connected(g, witness_set):
            problems.append(f"witness {sorted(witness_set)} induces a disconnected graph")
    return [verdict("hf1f2-witness", "; ".join(problems) or None)]


def _check_unique_hf1f2(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    subset_count = subset_witness_count(g)
    class_count = count_homogeneous_witness_classes(g)
    uniquely = p.k == 2
    counts = f"subset-count={subset_count} class-derived={class_count} k={p.k}"
    if (subset_count == 1) != uniquely or (class_count == 1) != uniquely:
        return [verdict("unique-hf1f2", counts)]
    return [verdict("unique-hf1f2", detail=counts)]


def _check_final_equivalence(g: Graph, p: EdgeClassPartition) -> list[CheckResult]:
    if g.m == 0:
        return _vacuous("final-equivalence", "no edges, skipped")
    brute = _orientation_count(g)
    if brute == 0:
        return _vacuous("final-equivalence", "not orientable, skipped")
    trivial_only = p.k == 1
    if (brute == 2) != trivial_only:
        return [verdict("final-equivalence", f"orientations={brute} trivial-only={trivial_only}")]
    return [verdict("final-equivalence")]


ALL_CHECKS: dict[str, CheckFn] = {
    "colouring-count": _check_colouring_count,
    "orientation-count": _check_orientation_count,
    "partition-laws": verify_partition_laws,
    "class-subgraph-single-class": _check_class_subgraph_single_class,
    "shortest-path-single-class": _check_shortest_paths,
    "pendant-class-bound": _check_pendant_classes,
    "two-class-nesting": _check_two_class_nesting,
    "three-class-classification": _check_three_class,
    "crossing-lemmas": _check_crossing_lemmas,
    "tinylemma": check_tinylemma_instances,
    "hf1f2-witness": _check_hf1f2_witness,
    "unique-hf1f2": _check_unique_hf1f2,
    "final-equivalence": _check_final_equivalence,
}


# ---------------------------------------------------------------------------
# the sweep


class SweepConfig(
    namedtuple("SweepConfig", "max_n checks sample_n6 seed threads", defaults=(5, None, None, 0, 1))
):
    """What the theorem sweep should cover: every connected labeled graph
    on 1..``max_n`` vertices, plus ``sample_n6`` seeded connected six-vertex
    graphs, which only a ``max_n`` below 6 admits.  ``checks=None``
    selects all.  The corpus holds connected graphs only, and the checks
    rely on that."""

    __slots__ = ()


Row = tuple[str, bool, str, str | None, str | None, float | None]


def _record_order(r: CheckResult | Row) -> tuple[str, str, str]:
    """``(graph6 key, check, witness or "")``, at the same positions in
    records and rows."""
    return r[2], r[0], r[3] or ""


def _run_checks(checks: list[tuple[str, CheckFn]], block: tuple[int, range | list[int]]) -> list[Row]:
    """The checks of the ``(name, check)`` pairs, in name order, on each
    connected graph of the corpus block ``(n, masks)``, in mask order, as
    plain ``(check, passed, key, witness, detail, seconds)`` tuples keyed
    by graph6: the fields of ``CheckResult`` in order, which pickle far
    cheaper than records on their way back from a pool worker.  The rows
    come sorted by ``(key, check, witness or "")``; the sort is stable, so
    records that tie keep the order their check returned them in.  A
    check's records are sorted first, so its time goes on the first of
    them in that order and the ``seconds`` sum to the time spent in checks.
    Each detail is interned: most are equal across graphs, and one shared
    string pickles once per block of rows, not once per row."""
    n, masks = block
    out: list[Row] = []
    for g in filter(is_connected, map(partial(graph_from_mask, n), masks)):
        key = encode_graph6(g)
        partition = compute_classes(g)
        for _, check in checks:
            started = time.perf_counter()
            records = check(g, partition)
            seconds: float | None = time.perf_counter() - started
            if len(records) > 1:
                records = sorted(records, key=_record_order)
            for name, passed, _, witness, detail, _ in records:
                out.append((name, passed, key, witness, detail and intern(detail), seconds))
                seconds = None
    out.sort(key=_record_order)
    return out


def _records(run: Callable, blocks: Iterator, threads: int) -> Iterator[CheckResult]:
    """``run`` over each corpus block, in order, in this process or in a
    pool of ``threads`` workers with at most ``4 * threads`` blocks in
    flight; the rows become ``CheckResult`` records as they arrive.  When
    the consumer closes it early, or a check raises, the pool's pending
    blocks are cancelled and its workers joined before this generator
    ends."""
    if threads == 1:
        yield from map(_record_of_row, chain.from_iterable(map(run, blocks)))
        return
    # Imported here: the module costs every CLI call tens of ms.
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=threads)
    try:
        futures = (pool.submit(run, block) for block in blocks)
        pending = deque(islice(futures, 4 * threads))
        while pending:
            rows = pending.popleft().result()
            pending.extend(islice(futures, 1))
            yield from map(_record_of_row, rows)
    finally:
        pool.shutdown(cancel_futures=True)


# A row is a record's fields in order, so tuple.__new__ builds the record
# from it in one C call.
_record_of_row = partial(tuple.__new__, CheckResult)


def sweep_records(
    cfg: SweepConfig, registry: dict[str, CheckFn] | None = None
) -> tuple[dict[str, object], Iterator[CheckResult]]:
    """The run metadata and the records of the theorem sweep of ``cfg``.

    This is the one place that decides the corpus (connected graphs only)
    and keys the records: checks return unkeyed records, and each gets the
    graph6 key of its graph here.  Failures become records (never
    exceptions).  ``cfg`` is checked and the sample drawn before this
    returns, so a bad config raises ContractError and a ``sample_n6``
    larger than the connected six-vertex graphs raises RefusalError before
    any check runs.  The corpus is never listed: it goes out in blocks
    ``(n, masks)``, 64 consecutive masks of one n or up to 64 of the sorted
    sample, and ``meta["graphs"]`` counts it from ``_CONNECTED_COUNTS``.
    A mask is the integer of its graph's graph6 bits (``graph.mask_pairs``),
    so the blocks hold each graph once, in graph6 order.  The serial loop
    and the pool workers alike map one function, ``_run_checks`` bound to
    the sorted checks, over the blocks in that order; it builds each mask's
    graph and keeps the connected ones.  Each block's rows come back
    sorted, so the records come out sorted by (graph6, check, witness or
    "") as they are made, and multi-worker runs give the same stream.  The
    records are made as they are asked for; a consumer that stops early
    should ``close()`` the iterator, which shuts its pool down.
    ``max_n``, ``threads``, ``seed`` and a non-None ``sample_n6`` must be
    ints, and ``threads`` 1..``MAX_SWEEP_THREADS``: a pool starts all its
    workers at once.  ``registry`` is a test hook replacing the default
    check table; it runs with ``cfg.threads`` like the default one.  The
    pool pickles the table by reference, so its checks must be
    module-level functions: with ``threads`` above 1 a closure fails at
    once, unpicklable (``AttributeError: Can't pickle local object`` on
    CPython 3.11), and never hangs.
    """
    check_type(cfg, SweepConfig, "sweep_records")
    table = registry if registry is not None else ALL_CHECKS
    check_int(cfg.max_n, "max_n", 1, MAX_CORPUS_N)
    check_int(cfg.threads, "threads", 1, MAX_SWEEP_THREADS)
    if cfg.sample_n6 is not None:
        check_int(cfg.sample_n6, "sample_n6", 0)
    check_int(cfg.seed, "seed")
    if cfg.sample_n6 and cfg.max_n >= 6:
        raise ContractError(f"sample_n6 needs max_n below 6, got max_n={cfg.max_n}")
    try:
        names = sorted(cfg.checks) if cfg.checks is not None else sorted(table)
    except TypeError:
        raise ContractError(f"checks must be an iterable of check names, got {cfg.checks!r}") from None
    for name in names:
        if name not in table:
            valid = ", ".join(sorted(table))
            raise ContractError(f"unknown check {name!r}; expected one of: {valid}")

    corpus: list = [(n, range(1 << n * (n - 1) // 2)) for n in range(1, cfg.max_n + 1)]
    if cfg.sample_n6:
        corpus.append((6, sorted(_sample_connected_masks(6, cfg.sample_n6, cfg.seed))))
    blocks = ((n, masks[lo : lo + 64]) for n, masks in corpus for lo in range(0, len(masks), 64))
    meta = {
        "max_n": cfg.max_n,
        "connected_only": True,  # always; kept in the report schema
        "checks": names,
        "sample_n6": cfg.sample_n6,
        "seed": cfg.seed,
        "graphs": sum(_CONNECTED_COUNTS[: cfg.max_n]) + (cfg.sample_n6 or 0),
    }
    run = partial(_run_checks, [(name, table[name]) for name in names])
    return meta, _records(run, blocks, cfg.threads)


def theorem_sweep(
    cfg: SweepConfig, registry: dict[str, CheckFn] | None = None
) -> VerificationReport:
    """Run the named checks over the corpus and report every verdict: the
    records of :func:`sweep_records`, collected, under its metadata."""
    meta, records = sweep_records(cfg, registry)
    return VerificationReport(list(records), meta)
