"""Seeded graph generators for the workloads.

Every generator takes a ``random.Random`` and returns ``(n, edges)`` with
canonical edges, or a ``qt2ec`` family spec string.  Nothing here imports
``qt2ec``; the same seed always gives the same graphs.
"""

from __future__ import annotations

from random import Random

from reference import adjacency, canonical_edges, is_connected_mask


def gnp(rng: Random, n: int, p: float) -> tuple[int, list]:
    """Connected G(n, p), resampled until connected."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if is_connected_mask(adjacency(n, edges), (1 << n) - 1):
            return n, edges


def permutation_graph(rng: Random, n: int) -> tuple[int, list]:
    """Connected inversion graph of a random permutation: always a
    comparability graph, hence orientable."""
    while True:
        pi = list(range(n))
        rng.shuffle(pi)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if pi[i] > pi[j]]
        if is_connected_mask(adjacency(n, edges), (1 << n) - 1):
            return n, edges


def cograph(rng: Random, n: int) -> tuple[int, list]:
    """Random connected cograph: a cotree whose root is a join and whose
    internal nodes alternate join/union with 2-3 children.  Cographs are
    comparability graphs, hence orientable."""
    edges: list = []

    def build(vertices: list[int], join: bool) -> None:
        if len(vertices) == 1:
            return
        parts = min(len(vertices), rng.choice((2, 2, 3)))
        cuts = sorted(rng.sample(range(1, len(vertices)), parts - 1))
        groups = [vertices[a:b] for a, b in zip([0] + cuts, cuts + [len(vertices)])]
        for group in groups:
            build(group, not join)
        if join:
            for i, a in enumerate(groups):
                for b in groups[i + 1:]:
                    edges.extend((u, v) for u in a for v in b)

    order = list(range(n))
    rng.shuffle(order)
    build(order, True)
    return n, canonical_edges(edges)


def multipartite_spec(rng: Random, total: int, parts: int) -> str:
    """``complete_multipartite`` spec with every part of size >= 2, so the
    graph has exactly C(parts, 2) classes."""
    sizes = [2] * parts
    for _ in range(total - 2 * parts):
        sizes[rng.randrange(parts)] += 1
    return "complete_multipartite," + ",".join(map(str, sizes))


def spec_graph(spec: str) -> tuple[int, list]:
    """``(n, edges)`` of the three family specs the workloads use, built
    here from their definitions so the reference never sees qt2ec output."""
    name, *raw = spec.split(",")
    args = [int(a) for a in raw]
    if name == "threshold":
        n = args[0]
        return n, [(j, i) for i in range(1, n, 2) for j in range(i)]
    if name == "double_path_apex":
        k = args[0]
        apex = 2 * k
        edges = [(i, i + 1) for i in range(k - 1)]
        edges += [(k + i, k + i + 1) for i in range(k - 1)]
        edges += [(i, apex) for i in range(2 * k)]
        return 2 * k + 1, canonical_edges(edges)
    if name == "complete_multipartite":
        bounds, start = [], 0
        for size in args:
            bounds.append(range(start, start + size))
            start += size
        edges = [
            (u, v)
            for i, a in enumerate(bounds)
            for b in bounds[i + 1:]
            for u in a
            for v in b
        ]
        return start, edges
    raise ValueError(f"no reference construction for {spec!r}")


def expected_k_by_construction(spec: str) -> int:
    """Class counts that hold by construction for the family specs."""
    name, *raw = spec.split(",")
    args = [int(a) for a in raw]
    if name == "threshold":
        return args[0] // 2
    if name == "double_path_apex":
        return 3
    if name == "complete_multipartite":
        return len(args) * (len(args) - 1) // 2
    raise ValueError(spec)


def graph6(n: int, edges) -> str:
    """graph6 encoding (n <= 62), written from the format's definition."""
    if n > 62:
        raise ValueError("benchmark graph6 writer covers n <= 62")
    present = set(edges)
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k:k + 6])), 2)) for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def edge_list_text(n: int, edges, labels: list[str]) -> str:
    """Edge-list file whose ``vertices:`` header pins dense ids to 0..n-1."""
    lines = ["# perfbench input", "vertices: " + " ".join(labels)]
    lines += [f"{labels[u]} {labels[v]}" for u, v in edges]
    return "\n".join(lines) + "\n"
