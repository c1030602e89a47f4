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

`bruhat_graph(n)` builds the whole group once per process, as the interval
[e, w0] plus its reversed edges.  Bruhat order is the transitive closure of
the graph's edges, so the cone {x <= v} is the down-closure of v in it:
the T-set tables and the interval sweep read their cones from there and
call no `compose` or `bruhat_leq`.  The graph also sorts its out-edges by
rank once per reflection order, and each table keeps those in its cone.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import cache

from .orders import Immutable, ReflectionOrder
from .perms import (
    Perm,
    Reflection,
    bruhat_leq,
    compose,
    format_perm,
    identity,
    length,
    longest_element,
    reflection_perm,
)


class BruhatPath(Immutable):
    """A labeled path u = x_0 -> x_1 -> ... -> x_{n+1} = v of length n.

    Equal and hashed by (vertices, labels).  Two slots and no instance
    dict keep it at 48 bytes, which `tset` pays once per path it holds.
    """

    __slots__ = ("vertices", "labels")
    vertices: tuple[Perm, ...]
    labels: tuple[Reflection, ...]

    def __init__(self, vertices: tuple[Perm, ...], labels: tuple[Reflection, ...]):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "labels", labels)

    def __reduce__(self):
        return BruhatPath, (self.vertices, self.labels)

    def __eq__(self, other):
        if type(other) is not BruhatPath:
            return NotImplemented
        return self.vertices == other.vertices and self.labels == other.labels

    def __hash__(self):
        return hash((self.vertices, self.labels))

    def __repr__(self):
        return f"BruhatPath(vertices={self.vertices!r}, labels={self.labels!r})"

    @property
    def n(self) -> int:
        """Path length (number of labels minus one; a single edge has n = 0)."""
        return len(self.labels) - 1


class BruhatInterval(Immutable):
    """Materialized interval [u, v]: vertex set and internal labeled edges.

    `adjacency[x]` lists the outgoing edges (t, y) sorted by the intrinsic
    lexicographic order on reflections, which makes every enumeration over
    the interval deterministic.  Equality is identity.
    """

    __slots__ = ("u", "v", "elements", "adjacency")
    u: Perm
    v: Perm
    elements: frozenset[Perm]
    adjacency: dict[Perm, tuple[tuple[Reflection, Perm], ...]]

    def __init__(
        self,
        u: Perm,
        v: Perm,
        elements: frozenset[Perm],
        adjacency: dict[Perm, tuple[tuple[Reflection, Perm], ...]],
    ):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "adjacency", adjacency)

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
    return BruhatInterval(u, v, frozenset(elements), adjacency)


class BruhatGraph(Immutable):
    """The Bruhat graph of S_n: the interval [e, w0] and its reversed edges.

    `below[y]` lists every x with an edge x -> y; `lengths` holds l(x).
    Equality is identity.
    """

    __slots__ = ("interval", "below", "lengths", "_sorted")
    interval: BruhatInterval
    below: dict[Perm, tuple[Perm, ...]]
    lengths: dict[Perm, int]

    def __init__(
        self,
        interval: BruhatInterval,
        below: dict[Perm, tuple[Perm, ...]],
        lengths: dict[Perm, int],
    ):
        object.__setattr__(self, "interval", interval)
        object.__setattr__(self, "below", below)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "_sorted", {})

    def sorted_adjacency(
        self, order: ReflectionOrder
    ) -> dict[Perm, tuple[tuple[Reflection, Perm], ...]]:
        """Every vertex's out-edges sorted by rank under `order`, sorted once
        per order and shared by every cone that reads them."""
        hit = self._sorted.get(order.sequence)
        if hit is None:
            rank = order.rank
            hit = {
                x: tuple(sorted(out, key=lambda ty: rank(ty[0])))
                for x, out in self.interval.adjacency.items()
            }
            self._sorted[order.sequence] = hit
        return hit

    def cone(self, v: Perm, max_gap: int | None = None) -> set[Perm]:
        """The elements x <= v, or only those with l(v) - l(x) <= max_gap.

        A walk down the reversed edges from v.  Capping the gap loses no
        element: a saturated chain of covers joins x to v, and every
        element on it lies within the cap.
        """
        lengths = self.lengths
        floor = -1 if max_gap is None else lengths[v] - max_gap
        found = {v}
        frontier = [v]
        while frontier:
            nxt = []
            for y in frontier:
                for x in self.below[y]:
                    if x not in found and lengths[x] >= floor:
                        found.add(x)
                        nxt.append(x)
            frontier = nxt
        return found


@cache
def bruhat_graph(n: int) -> BruhatGraph:
    """The Bruhat graph of S_n, built once per process and shared: read it only."""
    iv = build_interval(identity(n), longest_element(n))
    below: dict[Perm, list[Perm]] = {x: [] for x in iv.elements}
    for x, out in iv.adjacency.items():
        for _, y in out:
            below[y].append(x)
    return BruhatGraph(
        iv,
        {y: tuple(xs) for y, xs in below.items()},
        {x: length(x) for x in iv.elements},
    )


def iter_paths(
    adjacency: dict[Perm, tuple[tuple[Reflection, Perm], ...]],
    u: Perm,
    v: Perm,
    n: int,
) -> Iterator[BruhatPath]:
    """Depth-first enumeration of the length-n paths u -> v, lazily.

    Paths come out in lexicographic order of their label sequences provided
    the adjacency lists are sorted.  This is the package's one path
    enumeration: the witness replay of the flip checks walks it over a
    T-set table's rank-sorted out-edges, and stops at the first witness.

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
    return rank_word(rank_sequence(path, order))


def rank_word(ranks: Sequence[int]) -> str:
    """The ascent-descent word of a path given its label ranks."""
    return "".join(["A" if a < b else "D" for a, b in zip(ranks, ranks[1:])])


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
    edges = sorted(
        ((x, y, t) for x, out in iv.adjacency.items() for t, y in out),
        key=lambda e: (length(e[0]), e[0], length(e[1]), e[1], e[2]),
    )
    for x, y, t in edges:
        lines.append(
            f'  "{format_perm(x)}" -> "{format_perm(y)}" [label="{order.rank(t)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
