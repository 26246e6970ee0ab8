"""Undirected simple graphs with dense vertex ids, text formats, and the
local structure queries the rest of the package builds on."""

from __future__ import annotations

import binascii
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

from .errors import ContractError, FormatError

VertexSet = Iterable[int]
EdgePair = tuple[int, int]

_GRAPH6_HEADER = ">>graph6<<"
# graph6 writes six bits per character, as base64 does, but as the
# characters chr(63)..chr(126) in place of base64's alphabet.
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_BASE64_TO_GRAPH6 = bytes.maketrans(_BASE64, bytes(range(63, 127)))
_GRAPH6_TO_BASE64 = bytes.maketrans(bytes(range(63, 127)), _BASE64)
# str.translate with this table deletes every graph6 character, so what is
# left of a line is its invalid characters, in order.
_GRAPH6_CHARS = dict.fromkeys(range(63, 127))


class Graph:
    """Immutable undirected simple graph on vertices ``0..n-1``.

    Each given edge is checked once, in input order: it must be a pair of
    ids that are exactly ``int`` (not a bool, a float or an int subclass),
    not a self-loop, and in range; the first that is not is a
    ContractError that names it as given.  A repeated edge collapses to
    one.  That checked constructor is for library users.  Every graph the
    package builds itself goes through :meth:`_make`, which skips the
    check: this module's decoders :func:`parse_edge_list`,
    :func:`parse_graph6` and :func:`graph_from_mask`, and the
    :mod:`qt2ec.families` builders, make their edges as canonical pairs of
    int ids in range, each once, from token ids, bit positions, another
    graph's edges or int parameters that the builder checks first.  Both
    constructors check the vertex count and the labels, and fill the same
    fields.  Edges are canonical ``(min, max)``
    pairs carrying a dense index assigned in lexicographic pair order.
    Adjacency is kept as one int
    bitset per vertex because neighbour-pair scans (induced-P3
    enumeration) dominate the workload.  The one edge map, ``_edge_at[u][v]``, gives the index
    of edge {u, v}; its keys come out ascending, and they are the one
    neighbour list, which :meth:`neighbors`, :meth:`degree` and
    :func:`induced_p3_edges` read.  Walks over the bitsets go through
    :func:`reach`, the package's one bitset BFS function (the forcing
    kernel grows its co-components in its own star walk), and induced
    P3s through :func:`induced_p3_edges`.  External string labels, when
    present, map one-to-one onto the dense ids.  Only the forcing kernel in
    :mod:`qt2ec.classes` reads these fields outside this module, and
    ``compute_classes`` memoises its partition's fields in ``_partition``.
    """

    __slots__ = ("n", "edges", "labels", "_adj_bits", "_edge_at", "_partition")

    def __init__(
        self,
        n: int,
        edges: Iterable[EdgePair] = (),
        labels: Sequence[str] | None = None,
    ):
        _check_vertex_count(n)
        # A dict keeps the edges in input order, so edges given sorted or
        # nearly so reach the sort in about linear time; a set would hand
        # it the edges in hash order.
        canonical: dict[EdgePair, None] = {}
        for edge in _iterate(edges, "edges"):
            try:
                u, v = edge
            except (TypeError, ValueError):
                u = v = None
            if type(u) is not int or type(v) is not int:
                raise ContractError(f"edge {edge!r} is not a pair of int vertex ids")
            if u == v:
                raise ContractError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ContractError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            canonical[(u, v) if u < v else (v, u)] = None
        self._fill(n, canonical, labels)

    @classmethod
    def _make(
        cls,
        n: int,
        edges: Iterable[EdgePair],
        labels: Sequence[str] | None = None,
    ) -> Graph:
        """The graph the public constructor builds from ``edges``, with no
        per-edge check: for the package's own producers, whose edges are
        canonical ``(min, max)`` pairs of exact ints in 0..n-1, each pair
        once, in any order.  The vertex count and the labels are checked."""
        _check_vertex_count(n)
        g = cls.__new__(cls)
        g._fill(n, edges, labels)
        return g

    def _fill(self, n: int, edges: Iterable[EdgePair], labels: Sequence[str] | None) -> None:
        """Both constructors' common part: the fields, from ``n`` and the
        distinct canonical ``edges`` in any order."""
        self.n = n
        self.edges: tuple[EdgePair, ...] = tuple(sorted(edges))
        if labels is not None:
            labels = tuple(map(str, _iterate(labels, "labels")))
            if len(labels) != n:
                raise ContractError(f"expected {n} labels, got {len(labels)}")
            if len(set(labels)) != n:
                raise ContractError("vertex labels must be unique")
        self.labels: tuple[str, ...] | None = labels

        # The edges arrive sorted, so each vertex's lower neighbours come
        # first and every row of the edge map is keyed in ascending order.
        adj = [0] * n
        edge_at: list[dict[int, int]] = [{} for _ in range(n)]
        for i, (u, v) in enumerate(self.edges):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            edge_at[u][v] = i
            edge_at[v][u] = i
        self._adj_bits = tuple(adj)
        self._edge_at = tuple(edge_at)
        self._partition = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(self._edge_at[_vertex(self, v)])

    def adjacency_bits(self, v: int) -> int:
        return self._adj_bits[_vertex(self, v)]

    def degree(self, v: int) -> int:
        return len(self._edge_at[_vertex(self, v)])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether {u, v} is an edge: False for an int id outside 0..n-1,
        and a ContractError for an id that is not an int."""
        if type(u) is not int or type(v) is not int:
            _vertex(self, v if type(u) is int else u)
        return 0 <= u < self.n and v in self._edge_at[u]

    def edge_index(self, u: int, v: int) -> int:
        """Dense index of edge {u, v}; unknown edges are a contract error."""
        if not self.has_edge(u, v):
            raise ContractError(f"no edge {(u, v) if u < v else (v, u)} in graph")
        return self._edge_at[u][v]

    def edge(self, index: int) -> EdgePair:
        return self.edges[check_index(index, self.m, "edge index")]

    def label(self, v: int) -> str:
        _vertex(self, v)
        return self.labels[v] if self.labels is not None else str(v)

    def vertex_names(self) -> tuple[str, ...]:
        """Every vertex's :meth:`label`, in id order.  Nothing is kept on the
        graph: a writer takes the names once per call and indexes them."""
        return self.labels if self.labels is not None else tuple(map(str, range(self.n)))

    def vertex_by_label(self, label: str) -> int:
        if self.labels is not None:
            try:
                return self.labels.index(label)
            except ValueError:
                raise ContractError(f"unknown vertex label {label!r}") from None
        try:
            v = int(label)
        except (TypeError, ValueError):
            v = None
        # Only the names vertex_names() prints: int() also takes "01",
        # "+1", "1_0" and non-ASCII digits.
        if v is None or str(v) != label:
            raise ContractError(f"unknown vertex label {label!r}")
        return _vertex(self, v)

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _iterate(values: object, name: str) -> Iterator:
    """An iterator over ``values``, the argument ``name``; if ``values`` is
    not iterable, a ContractError that names both."""
    try:
        return iter(values)  # type: ignore[call-overload]
    except TypeError:
        raise ContractError(f"{name} must be iterable, got {values!r}") from None


def _check_vertex_count(n: object) -> None:
    if type(n) is not int:
        raise ContractError(f"vertex count must be an int, got {n!r}")
    if n < 0:
        raise ContractError(f"vertex count must be non-negative, got {n}")


def _vertex(g: Graph, v: object) -> int:
    """``v`` if it is a vertex of ``g``, an exact int in 0..n-1; anything
    else, a negative id that indexing would wrap included, is a
    ContractError."""
    if type(v) is not int:
        raise ContractError(f"vertex {v!r} is not an int vertex id")
    if not 0 <= v < g.n:
        raise ContractError(f"vertex {v!r} outside range 0..{g.n - 1}")
    return v


def check_index(i: object, size: int, kind: str) -> int:
    """``i`` if it is an exact int in 0..size-1, an edge index, a class id
    or an edge mask; anything else, a negative one that indexing would
    wrap included, is a ContractError that names it as a ``kind``."""
    if type(i) is not int:
        raise ContractError(f"{kind} {i!r} is not an int")
    if not 0 <= i < size:
        raise ContractError(f"{kind} {i!r} outside {kind} range 0..{size - 1}")
    return i


def check_edge_record(g: Graph, values: Iterable, allowed: tuple, record: str, value: str) -> tuple:
    """``values`` as a tuple, once checked: a ContractError unless ``g`` is
    a Graph and ``values`` holds one of ``allowed``, of its own type
    (``True`` equals 1 but is not a bit), per edge; the first bad value is
    named."""
    if not isinstance(g, Graph):
        raise ContractError(f"{record} needs a Graph, got {g!r}")
    if type(values) is not tuple:
        values = tuple(_iterate(values, f"{value}s"))
    if len(values) != g.m:
        raise ContractError(f"{record} covers {len(values)} edges, graph has {g.m}")
    types = set(map(type, allowed))
    for x in values:
        if type(x) not in types or x not in allowed:
            raise ContractError(f"invalid {value} {x!r}")
    return values


# ---------------------------------------------------------------------------
# text formats


# The starts of a line that parse_edge_list reads as a comment or a header.
_NOT_AN_EDGE = ("#", "vertices:")


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated ``u v`` lines into a graph.

    Vertex tokens are arbitrary strings; dense ids follow first appearance.
    Blank lines and lines starting with ``#`` are skipped.  A header line
    ``vertices: a b c`` declares vertices up front (isolated ones included).
    Duplicate edge lines collapse to a single edge.
    """
    index: dict[str, int] = {}
    # Distinct tokens get distinct int ids in range, so each canonical pair
    # is one Graph._make takes; the dict drops repeats in input order.
    edges: dict[EdgePair, None] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if tokens[0].startswith("vertices:"):
            for token in raw.strip()[len("vertices:"):].split():
                index.setdefault(token, len(index))
            continue
        if len(tokens) != 2:
            raise FormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        a, b = tokens
        if a == b:
            raise FormatError(f"line {lineno}: self-loop on {a!r}")
        u, v = index.setdefault(a, len(index)), index.setdefault(b, len(index))
        edges[(u, v) if u < v else (v, u)] = None
    return Graph._make(len(index), edges, labels=list(index) or None)


def format_edge_list(g: Graph) -> str:
    """Inverse of :func:`parse_edge_list`; the full ``vertices:`` header
    pins first-appearance order so dense ids round-trip exactly.

    Each edge line starts with an endpoint the parser cannot take for a
    comment or a header, one not starting with ``#`` or ``vertices:``.  A
    label that is empty or holds whitespace, or an edge whose two names
    both start so, cannot be written: that is a ContractError.
    """
    names = g.vertex_names()
    for name in names:
        if name.split() != [name]:
            raise ContractError(f"vertex label {name!r} is not one edge-list token")
    lines = ["vertices: " + " ".join(names)] if g.n else []
    for u, v in g.edges:
        a, b = names[u], names[v]
        if a.startswith(_NOT_AN_EDGE):
            if b.startswith(_NOT_AN_EDGE):
                raise ContractError(f"edge {a!r} {b!r} cannot open an edge-list line")
            a, b = b, a
        lines.append(f"{a} {b}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_graph6(text: str) -> Graph:
    """Decode one graph in graph6 format (basic variant).

    Layout: N(n) header, then the upper adjacency triangle read column by
    column, packed big-endian six bits per printable character offset 63.
    The header must use the shortest form that holds n, so accepted input
    re-encodes to itself.  The bits are decoded as :func:`encode_graph6`
    writes them, through base64, and then scanned for ones.
    """
    s = text.strip()
    if s.startswith(_GRAPH6_HEADER):
        s = s[len(_GRAPH6_HEADER):]
    if not s:
        raise FormatError("empty graph6 input")
    bad = s.translate(_GRAPH6_CHARS)
    if bad:
        raise FormatError(f"invalid graph6 character {bad[0]!r}")
    data = s.encode("ascii")
    values = [c - 63 for c in data[:8]]
    if values[0] < 63:
        n, pos, least = values[0], 1, 0
    elif len(values) >= 2 and values[1] < 63:
        if len(values) < 4:
            raise FormatError("truncated graph6 vertex count")
        n, pos, least = (values[1] << 12) | (values[2] << 6) | values[3], 4, 63
    else:
        if len(values) < 8:
            raise FormatError("truncated graph6 vertex count")
        n = 0
        for v in values[2:8]:
            n = (n << 6) | v
        pos, least = 8, 258048
    if n < least:
        raise FormatError(f"graph6 vertex count {n} needs a shorter header")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = data[pos:]
    if len(body) < need:
        raise FormatError(f"truncated graph6 bit stream: need {need} characters, got {len(body)}")
    if len(body) > need:
        raise FormatError("trailing data after graph6 bit stream")

    # Zero characters fill the last 4-character base64 group.
    body = body.translate(_GRAPH6_TO_BASE64) + b"A" * (-need % 4)
    raw = binascii.a2b_base64(body)
    bits = format(int.from_bytes(raw, "big"), f"0{8 * len(raw)}b")
    if "1" in bits[nbits:]:
        raise FormatError("nonzero padding bits in graph6 stream")
    # Column j holds pairs (0, j) .. (j - 1, j) at bits end - j .. end - 1.
    # Each pair goes to its row's list, so the rows joined in order hand
    # Graph._make its edges in pair order, each a canonical pair in range
    # once.
    rows: list[list[EdgePair]] = [[] for _ in range(n)]
    j = end = 1
    b = bits.find("1", 0, nbits)
    while b >= 0:
        while b >= end:
            j += 1
            end += j
        i = b - end + j
        rows[i].append((i, j))
        b = bits.find("1", b + 1, nbits)
    return Graph._make(n, chain.from_iterable(rows))


# encode_graph6 writes its bit stream in blocks of about this many bits.
_GRAPH6_BLOCK_BITS = 1 << 18


def _graph6_columns(adj: Sequence[int], start: int, stop: int) -> str:
    """The bits of columns ``start`` .. ``stop - 1`` of the upper triangle.

    Column j is pairs (0, j) .. (j - 1, j): row j's low j bits, reversed.
    Bit j, set above them, makes format write all j; the reversal drops it.
    """
    return "".join(
        [format(adj[j] & ((1 << j) - 1) | 1 << j, "b")[:0:-1] for j in range(start, stop)]
    )


def _graph6_chars(bits: str) -> bytes:
    """The graph6 characters of ``bits``, a whole number of 24-bit groups,
    so base64 writes them with no "=" padding."""
    data = int(bits or "0", 2).to_bytes(len(bits) // 8, "big")
    return binascii.b2a_base64(data, newline=False).translate(_BASE64_TO_GRAPH6)


def encode_graph6(g: Graph) -> str:
    """Encode a graph in graph6 format; exact inverse of :func:`parse_graph6`.

    The upper triangle goes out column by column, padded with zeros to a
    whole number of 24-bit groups, in blocks of columns of about
    ``_GRAPH6_BLOCK_BITS`` bits: each block is encoded up to its last whole
    24-bit group, and the bits left over open the next block.  So the
    characters are those of the whole triangle encoded at once, while the
    memory beyond the output stays one block's worth however large n is.
    """
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise ContractError(f"graph6 supports at most 258047 vertices, got {n}")
    adj = g._adj_bits
    nbits = n * (n - 1) // 2
    chars = -(-nbits // 6)
    pad = "0" * (-nbits % 24)
    out = bytearray(head, "ascii")
    step = _GRAPH6_BLOCK_BITS // (n or 1) + 1
    bits = ""
    for start in range(1, n, step):
        bits += _graph6_columns(adj, start, min(start + step, n))
        cut = len(bits) - len(bits) % 24
        out += _graph6_chars(bits[:cut])
        bits = bits[cut:]
    out += _graph6_chars(bits + pad)
    del out[len(head) + chars:]
    return out.decode()


_MASK_PAIRS: dict[int, tuple[tuple[int, EdgePair], ...]] = {}


def mask_pairs(n: int) -> tuple[tuple[int, EdgePair], ...]:
    """``(mask bit, pair)`` for the pairs of n vertices in row order, the
    order ``Graph`` sorts its edges in.  A mask is the integer of its graph's
    graph6 bits: graph6 writes pair (i, j) as bit j(j-1)/2 + i of N =
    n(n-1)/2, so mask bit N - 1 - (j(j-1)/2 + i) is that pair."""
    if n not in _MASK_PAIRS:
        _check_vertex_count(n)
        last = n * (n - 1) // 2 - 1
        _MASK_PAIRS[n] = tuple((last - j * (j - 1) // 2 - i, (i, j)) for i in range(n) for j in range(i + 1, n))
    return _MASK_PAIRS[n]


def graph_from_mask(n: int, mask: int) -> Graph:
    """The graph of an edge mask in :func:`mask_pairs`'s layout; a mask that
    is not an exact int in 0..2^N - 1 is a ContractError that names it."""
    pairs = mask_pairs(n)
    check_index(mask, 1 << len(pairs), "edge mask")
    return Graph._make(n, [pair for bit, pair in pairs if mask >> bit & 1])


_CLASS_STYLES = ("solid", "dashed", "dotted", "bold")


# DOT reads these bare, in any case, as keywords rather than node names.
_DOT_KEYWORDS = frozenset({"node", "edge", "graph", "digraph", "subgraph", "strict"})


def _dot_id(name: str) -> str:
    if name and (name.isidentifier() or name.isdigit()) and name.lower() not in _DOT_KEYWORDS:
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: Graph, overlay: object = None) -> str:
    """Render DOT text, optionally styled by a class partition or an
    orientation (directed arcs)."""
    from .classes import EdgeClassPartition
    from .orientation import Orientation

    if overlay is not None and getattr(overlay, "graph", None) != g:
        raise ContractError("overlay refers to edges of a different graph")
    directed = isinstance(overlay, Orientation)
    if not (overlay is None or directed or isinstance(overlay, EdgeClassPartition)):
        raise ContractError(f"unsupported overlay type {type(overlay).__name__}")

    ids = [_dot_id(name) for name in g.vertex_names()]
    lines = ["digraph {" if directed else "graph {"]
    for v in range(g.n):
        if g.degree(v) == 0:
            lines.append(f"  {ids[v]};")
    for idx, (u, v) in enumerate(g.edges):
        a, b = ids[u], ids[v]
        if overlay is None:
            lines.append(f"  {a} -- {b};")
        elif directed:
            bit = overlay.bits[idx]
            if bit is None:
                lines.append(f"  {a} -> {b} [dir=none];")
            elif bit == 0:
                lines.append(f"  {a} -> {b};")
            else:
                lines.append(f"  {b} -> {a};")
        else:
            style = _CLASS_STYLES[overlay.class_of[idx] % len(_CLASS_STYLES)]
            lines.append(f"  {a} -- {b} [style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# structure queries


def induced_p3_edges(g: Graph) -> Iterator[tuple[int, int, int, int, int]]:
    """The package's one induced-P3 scan: each path of :func:`induced_p3s`,
    in its order, as ``(u, v, w, i, j)`` with ``i`` the index of edge uv
    and ``j`` that of vw, both read from the centre's edge-map row.  Since
    ``u < w`` and the edges are indexed in pair order, ``i < j`` whether
    v lies below, between or above u and w."""
    adj = g._adj_bits
    for v, to_v in enumerate(g._edge_at):
        nbrs = tuple(to_v)
        for a, u in enumerate(nbrs):
            row, i = adj[u], to_v[u]
            for w in nbrs[a + 1:]:
                if not (row >> w) & 1:
                    yield u, v, w, i, to_v[w]


def induced_p3s(g: Graph) -> Iterator[tuple[int, int, int]]:
    """Yield each induced 3-vertex path once, centre-anchored: ``(u, v, w)``
    with ``uv, vw`` edges, ``uw`` a non-edge, and ``u < w``."""
    return ((u, v, w) for u, v, w, _, _ in induced_p3_edges(g))


def _vertex_bits(g: Graph, vertices: VertexSet) -> int:
    inside = 0
    for v in _iterate(vertices, "vertex set"):
        inside |= 1 << _vertex(g, v)
    return inside


def is_module_set(g: Graph, vertices: VertexSet) -> bool:
    """True iff every vertex outside the set is adjacent to all of it or
    to none of it (the set is a module / homogeneous set)."""
    inside = _vertex_bits(g, vertices)
    for v, row in enumerate(g._adj_bits):
        if (inside >> v) & 1:
            continue
        hit = row & inside
        if hit != 0 and hit != inside:
            return False
    return True


def reach(adj: Sequence[int], seed: int, within: int = -1) -> int:
    """Bitset of the vertices reachable from the vertex bitset ``seed``
    along the adjacency bitsets ``adj``, never leaving the bitset
    ``within``.

    This is the package's one bitset BFS function; the forcing kernel
    does not call it, as it grows a centre's co-components in the walk
    that hands out their star ids.  It stops as soon as the component
    fills ``within``.
    """
    component = frontier = seed
    while frontier and component != within:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        frontier = nxt & within & ~component
        component |= frontier
    return component


def is_complete_multipartite(g: Graph) -> list[tuple[int, ...]] | None:
    """Parts of a complete multipartite decomposition, or None.

    A vertex's candidate part is its non-neighbourhood, itself included.
    The graph is complete multipartite iff every member of that part has
    the same non-neighbourhood, that is, the same adjacency row.  Parts
    are sorted by their smallest vertex.
    """
    adj = g._adj_bits
    full = (1 << g.n) - 1
    seen = 0
    parts: list[tuple[int, ...]] = []
    for v, row in enumerate(adj):
        if not (seen >> v) & 1:
            part = full ^ row
            members = tuple(u for u in range(g.n) if (part >> u) & 1)
            if any(adj[u] != row for u in members):
                return None
            seen |= part
            parts.append(members)
    return parts


def is_connected(g: Graph, vertices: VertexSet | None = None) -> bool:
    """True iff the subgraph induced on ``vertices`` (default: all of
    ``g``) is connected; no vertex or one vertex counts as connected."""
    inside = (1 << g.n) - 1 if vertices is None else _vertex_bits(g, vertices)
    return reach(g._adj_bits, inside & -inside, inside) == inside

