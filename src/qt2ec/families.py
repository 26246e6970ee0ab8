"""Deterministic generators for the named graphs and families used as
golden fixtures throughout the test suite and the CLI."""

from __future__ import annotations

from functools import partial

from .errors import ContractError, RefusalError
from .graph import Graph, check_int, check_type, check_vertex_cap

# 6-vertex figure fixtures, vertex v_i at dense index i-1.  The left graph
# has twelve edges and four edge classes; the right one is the ten-edge
# example whose only quasi-transitive colourings are monochromatic.
_FIG1_LEFT_EDGES = [
    (0, 1), (1, 2), (1, 5), (3, 4), (0, 3), (1, 4),
    (2, 3), (3, 5), (0, 4), (2, 4), (0, 5), (4, 5),
]
_FIG1_RIGHT_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
    (0, 5), (0, 4), (1, 5), (2, 4), (3, 5),
]


# Every builder makes canonical (min, max) pairs of int ids in range, each
# once, so it builds through Graph._make, which skips the per-edge check.
# That holds only for int parameters, so each builder checks its own first,
# with check_int under a name such as "path's k".  The builders of more
# than a few edges make them in pair order, the order Graph sorts them in,
# so the sort is one linear pass; join_with_k1 hands over two ascending
# runs, which the sort merges in one pass.


def threshold_alternating(n: int) -> Graph:
    """Threshold graph built by alternately adding a universal then an
    independent vertex, starting from K1 (so v2, v4, ... are universal on
    arrival).  Has exactly n/2 edge classes.
    """
    check_int(n, "threshold_alternating's n", 2)
    if n % 2:
        raise ContractError(f"threshold_alternating needs an even n >= 2, got {n}")
    # Dense index i is v_{i+1}, so each odd i is universal on arrival: j
    # is joined to every odd i above it, the least being j + 1 | 1.
    edges = [(j, i) for j in range(n) for i in range(j + 1 | 1, n, 2)]
    return Graph._make(n, edges, labels=[f"v{i + 1}" for i in range(n)])


def triangle_with_tail(k: int) -> Graph:
    """A path w0..w{k-1} plus mutually adjacent u, v both attached to w0.

    Uniquely colourable with classes {uv} and everything-else for k >= 2;
    k = 1 degenerates to the triangle (no induced P3, three singleton
    classes), which the generator permits but the 2-class golden excludes.
    """
    check_int(k, "triangle_with_tail's k", 1)
    u, v = k, k + 1
    edges = [(i, i + 1) for i in range(k - 1)]
    edges += [(u, v), (0, u), (0, v)]
    labels = [f"w{i}" for i in range(k)] + ["u", "v"]
    return Graph._make(k + 2, edges, labels=labels)


def double_path_apex(k: int) -> Graph:
    """Two disjoint k-vertex paths plus one universal apex vertex.

    Exactly three edge classes (each path, and the apex star) with the
    apex class spanning every vertex; never complete tripartite for k >= 2.
    """
    check_int(k, "double_path_apex's k", 2)
    apex = 2 * k
    edges = []
    for u in range(2 * k):
        if u % k < k - 1:  # u's successor on its path
            edges.append((u, u + 1))
        edges.append((u, apex))
    labels = [f"p{i}" for i in range(k)] + [f"q{i}" for i in range(k)] + ["apex"]
    return Graph._make(2 * k + 1, edges, labels=labels)


def figure_graph(which: str) -> Graph:
    """Hard-coded figure fixtures: ``fig1_left``, ``fig1_right``,
    ``k4_minus_e`` (K4 with the edge between vertices 2 and 3 removed)."""
    if which == "fig1_left":
        return Graph._make(6, _FIG1_LEFT_EDGES, labels=[f"v{i + 1}" for i in range(6)])
    if which == "fig1_right":
        return Graph._make(6, _FIG1_RIGHT_EDGES, labels=list("abcdef"))
    if which == "k4_minus_e":
        return Graph._make(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    raise ContractError(f"unknown figure graph {which!r}")


def path(k: int) -> Graph:
    check_int(k, "path's k", 1)
    return Graph._make(k, [(i, i + 1) for i in range(k - 1)])


def cycle(k: int) -> Graph:
    check_int(k, "cycle's k", 3)
    return Graph._make(k, [(0, 1), (0, k - 1)] + [(i, i + 1) for i in range(1, k - 1)])


def complete(n: int) -> Graph:
    check_int(n, "complete's n", 1)
    return Graph._make(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_multipartite(*part_sizes: int) -> Graph:
    if not part_sizes:
        raise ContractError(f"parts must be nonempty, got {part_sizes}")
    bounds = []
    start = 0
    for size in part_sizes:
        check_int(size, "complete_multipartite's part size", 1)
        bounds.append(range(start, start + size))
        start += size
    # Each vertex is joined to every vertex of the later parts.
    edges = [(u, v) for part in bounds for u in part for v in range(part.stop, start)]
    return Graph._make(start, edges)


def join_with_k1(g: Graph) -> Graph:
    """Add one vertex adjacent to everything; the result is always
    properly colourable when ``g`` is connected with >= 2 vertices."""
    check_type(g, Graph, "join_with_k1")
    labels = None
    if g.labels is not None:
        apex = "apex"
        while apex in g.labels:
            apex += "_"
        labels = list(g.labels) + [apex]
    return Graph._make(g.n + 1, g.edges + tuple((v, g.n) for v in range(g.n)), labels=labels)


FAMILY_USAGE = (
    "k4_minus_e | fig1_left | fig1_right | threshold,N | triangle_tail,K | "
    "double_path_apex,K | path,K | cycle,K | complete,N | "
    "complete_multipartite,A,B,... | join_k1:<spec>"
)


# The most edges a family spec may ask for.  K_1415 has 1.0M edges; on a
# 2-vCPU VM it builds in about 4 s, classifies in about 15 s and peaks
# near 1 GB.
MAX_FAMILY_EDGES = 1_000_000

_FIGURES = {"k4_minus_e": (4, 5), "fig1_left": (6, 12), "fig1_right": (6, 10)}

# Each one-parameter family's builder, and its (vertices, edges) for a
# parameter the builder accepts.
_ONE_ARG = {
    "threshold": (threshold_alternating, lambda n: (n, n * n // 4)),
    "triangle_tail": (triangle_with_tail, lambda k: (k + 2, k + 2)),
    "double_path_apex": (double_path_apex, lambda k: (2 * k + 1, 4 * k - 2)),
    "path": (path, lambda k: (k, k - 1)),
    "cycle": (cycle, lambda k: (k, k)),
    "complete": (complete, lambda n: (n, n * (n - 1) // 2)),
}


def family_from_spec(spec: str) -> Graph:
    """Build a generator graph from a CLI spec string like ``cycle,5``.

    The spec's vertex and edge counts follow from its parameters, so a spec
    asking for more than ``qt2ec.graph.MAX_VERTICES`` vertices, or else for more
    than ``MAX_FAMILY_EDGES`` edges, is refused before any edge is built.
    """
    if not isinstance(spec, str):
        raise ContractError(f"family spec {spec!r} is not a string")
    whole = spec = spec.strip()
    joins = 0
    while spec.startswith("join_k1:"):
        joins += 1
        spec = spec[len("join_k1:"):].strip()
    name, *raw_args = spec.split(",")
    name = name.strip()
    try:
        args = [int(a) for a in raw_args]
    except ValueError:
        raise ContractError(f"non-integer parameter in family spec {spec!r}") from None
    # Sizes are counted with negative parameters read as 0: the builders
    # reject those with their own message.
    if name in _FIGURES:
        if args:
            raise ContractError(f"family {name!r} takes no parameters")
        n, m = _FIGURES[name]
        build = partial(figure_graph, name)
    elif name in _ONE_ARG:
        if len(args) != 1:
            raise ContractError(f"family {name!r} takes exactly one integer parameter")
        builder, size = _ONE_ARG[name]
        n, m = size(max(args[0], 0))
        build = partial(builder, args[0])
    elif name == "complete_multipartite":
        parts = [max(a, 0) for a in args]
        n = sum(parts)
        m = (n * n - sum(a * a for a in parts)) // 2
        build = partial(complete_multipartite, *args)
    else:
        raise ContractError(f"unknown family {spec!r}; expected one of: {FAMILY_USAGE}")
    for _ in range(joins):
        n, m = n + 1, m + n
    check_vertex_cap(n, f"family {whole!r}")
    if m > MAX_FAMILY_EDGES:
        raise RefusalError(f"family {whole!r} has {m} edges; the cap is {MAX_FAMILY_EDGES} edges")
    g = build()
    for _ in range(joins):
        g = join_with_k1(g)
    return g
