"""
Bruhat-graph intervals, labeled paths, and ascent-descent words.

The Bruhat graph on S_n has an edge x -> y whenever l(x) < l(y) and
x^{-1} y is a reflection; the edge label is that reflection.  All vertices
of a path from u to v lie in the interval [u, v], so an interval object
(vertices plus internal labeled edges) is the full arena for enumeration.

Path length follows the convention that counts *internal* vertices: a path
u -> v of length n has n+2 vertices and n+1 edge labels t_0, ..., t_n, and
the single-edge path (u, v) has length 0.  The ascent-descent word of a
path has one letter per consecutive label pair: A where the labels increase
in the active reflection order and D where they decrease.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .orders import ReflectionOrder
from .perms import (
    Perm,
    Reflection,
    bruhat_leq,
    compose,
    format_perm,
    length,
    reflection_perm,
)


@dataclass(frozen=True, slots=True)
class BruhatPath:
    """A labeled path u = x_0 -> x_1 -> ... -> x_{n+1} = v of length n."""

    vertices: tuple[Perm, ...]
    labels: tuple[Reflection, ...]

    @property
    def n(self) -> int:
        """Path length (number of labels minus one; a single edge has n = 0)."""
        return len(self.labels) - 1

    @property
    def source(self) -> Perm:
        return self.vertices[0]

    @property
    def sink(self) -> Perm:
        return self.vertices[-1]

    def tail(self) -> "BruhatPath":
        """The sub-path starting at x_1 (one vertex and one label shorter)."""
        return BruhatPath(self.vertices[1:], self.labels[1:])

    def tail_from(self, m: int) -> "BruhatPath":
        """The sub-path starting at x_m."""
        return BruhatPath(self.vertices[m:], self.labels[m:])


@dataclass(frozen=True, eq=False)
class BruhatInterval:
    """Materialized interval [u, v]: vertex set and internal labeled edges.

    `adjacency[x]` lists the outgoing edges (t, y) sorted by the intrinsic
    lexicographic order on reflections, which makes every enumeration over
    the interval deterministic.
    """

    u: Perm
    v: Perm
    elements: frozenset[Perm]
    edges: tuple[tuple[Perm, Perm, Reflection], ...]
    adjacency: dict[Perm, tuple[tuple[Reflection, Perm], ...]]

    @property
    def length_diff(self) -> int:
        return length(self.v) - length(self.u)


def build_interval(u: Perm, v: Perm) -> BruhatInterval:
    """Build the interval [u, v]; raises ValueError unless u <= v.

    One breadth-first walk up from u: an upward neighbour y = x*t of a
    vertex x is in [u, v] exactly when y <= v, so the walk records each
    vertex's out-edges as it finds its vertices.
    """
    if not bruhat_leq(u, v):
        raise ValueError(f"{format_perm(u)} is not below {format_perm(v)} in Bruhat order")
    n = len(u)
    refl_perms = [
        (Reflection(i, j), reflection_perm(Reflection(i, j), n))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    elements = {u}
    adjacency: dict[Perm, tuple[tuple[Reflection, Perm], ...]] = {}
    frontier = [u]
    while frontier:
        nxt = []
        for x in frontier:
            out = []
            lx = length(x)
            for t, tp in refl_perms:
                y = compose(x, tp)
                if length(y) <= lx:
                    continue
                if y not in elements:
                    if not bruhat_leq(y, v):
                        continue
                    elements.add(y)
                    nxt.append(y)
                out.append((t, y))
            adjacency[x] = tuple(out)
        frontier = nxt
    edges = sorted(
        ((x, y, t) for x, out in adjacency.items() for t, y in out),
        key=lambda e: (length(e[0]), e[0], e[2]),
    )
    return BruhatInterval(u, v, frozenset(elements), tuple(edges), adjacency)


def iter_paths(
    adjacency: dict[Perm, tuple[tuple[Reflection, Perm], ...]],
    u: Perm,
    v: Perm,
    n: int,
) -> Iterator[BruhatPath]:
    """Depth-first enumeration of the length-n paths u -> v.

    Paths come out in lexicographic order of their label sequences provided
    the adjacency lists are sorted.

    Each edge raises the Coxeter length by an odd amount, so a vertex at
    length distance d from v with e edges still to place is dead unless
    d >= e and d = e (mod 2).
    """
    target_len = length(v)
    edges_total = n + 1

    verts = [u]
    labs: list[Reflection] = []

    def rec() -> Iterator[BruhatPath]:
        x = verts[-1]
        remaining = edges_total - len(labs)
        d = target_len - length(x)
        if remaining == 0:
            if x == v:
                yield BruhatPath(tuple(verts), tuple(labs))
            return
        if d < remaining or (d - remaining) % 2 != 0:
            return
        for t, y in adjacency.get(x, ()):
            verts.append(y)
            labs.append(t)
            yield from rec()
            verts.pop()
            labs.pop()

    if n >= 0:
        yield from rec()


def rank_sequence(path: BruhatPath, order: ReflectionOrder) -> tuple[int, ...]:
    """Label ranks of the path under the given order.

    As a sort key this is the lexicographic order on paths.
    """
    return tuple(order.rank(t) for t in path.labels)


def ad_word(path: BruhatPath, order: ReflectionOrder) -> str:
    """Ascent-descent word over {A, D}; one letter per consecutive label pair.

    Consecutive labels are never equal (that would retrace the same edge),
    so every pair is a strict ascent or descent.
    """
    ranks = rank_sequence(path, order)
    return "".join(
        "A" if ranks[i - 1] < ranks[i] else "D" for i in range(1, len(ranks))
    )


def label_string(path: BruhatPath, order: ReflectionOrder) -> str:
    """Compact rank string like "41516"; dot-separated once ranks pass 9."""
    ranks = rank_sequence(path, order)
    if all(r <= 9 for r in ranks):
        return "".join(str(r) for r in ranks)
    return ".".join(str(r) for r in ranks)


def path_json(path: BruhatPath, order: ReflectionOrder) -> dict:
    """JSON form {"vertices": [...one-line...], "labels": [ranks...]}."""
    return {
        "vertices": [format_perm(x) for x in path.vertices],
        "labels": list(rank_sequence(path, order)),
    }


def export_dot(iv: BruhatInterval, order: ReflectionOrder) -> str:
    """DOT digraph of the interval, edges labeled by reflection rank.

    Output is byte-deterministic: vertices sorted by (length, one-line),
    edges sorted the same way with rank as tiebreaker.
    """
    lines = ["digraph bruhat_interval {", "  rankdir=BT;"]
    for x in sorted(iv.elements, key=lambda p: (length(p), p)):
        lines.append(f'  "{format_perm(x)}";')
    for x, y, t in sorted(
        iv.edges, key=lambda e: (length(e[0]), e[0], length(e[1]), e[1], e[2])
    ):
        lines.append(
            f'  "{format_perm(x)}" -> "{format_perm(y)}" [label="{order.rank(t)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
