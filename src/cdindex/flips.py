"""
T-sets, flip bijections, and the flip conditions.

For a cd-monomial M with AD-form gamma_1 ... gamma_n, the set T_M(w, v)
holds the length-n paths from w to v whose word matches gamma and which
additionally pass, at every position m carrying a D, a local test after
flipping the tail from x_m: the letter read across the splice must be an A.
The tails being flipped always lie in the T-set of the suffix monomial on
the shorter interval [x_m, v], so the whole construction is recursive in
(interval length, monomial degree) and is memoized here per sink vertex.

Every query is keyed by (vertex, suffix word), and so is the path store
the T-sets read: `word_paths(w, gamma)` holds only the paths w -> v whose
word is gamma, built by suffix sharing from the word paths of gamma[1:]
out of each upper neighbour of w.  No T-set enumerates all paths or
recomputes a word.  The store of all length-n paths that the scan's sums
and the per-path checks read, `paths(w, n)`, is built the same way from
the length-(n-1) paths of each upper neighbour, so the table runs no
depth-first enumeration.

The flip on a sub-problem pairs T with its reverse-order counterpart T-bar
by lexicographic position under the primal order.  Lex order on the
equal-length rank sequences runs backwards under the reversed order, and
a path is fixed by its source and labels, so the reverse-order table reads
the primal's paths in reverse, and T-bar in primal lex order is its T-set
reversed.  Reversing the order also swaps ascents and descents, so the
twin's word paths of gamma are the primal's of gamma with A and D swapped,
reversed.  |T| = |T-bar| is conjectured; a mismatch raises
FlipUndefinedError and is surfaced, never patched.

`position_factor` is the one definition of the per-position factor
(+1, 0 or -1): the T-set splice test, `path_contribution` (the product of
the factors from right to left, with an early exit on zero) and the flip
condition (no factor -1 where the tail lies in its suffix T-set) all read
it.  Under the flip condition no -1 survives to the final product, which
is what makes |T_M| the coefficient.

The checks take the source u and read the sink v from the table: every
path u -> v lies in the cone [e, v] it holds, so [u, v] is never built.
The cone is the down-closure of v in the process's one Bruhat graph
(`intervals.bruhat_graph`), so a table builds no interval of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import FlipUndefinedError
from .intervals import BruhatPath, ad_word, bruhat_graph, label_string
from .ncpoly import ad_form
from .orders import ReflectionOrder
from .perms import Perm, format_perm

_BAR = str.maketrans("AD", "DA")


class TSetTable:
    """Memoized T-sets, memberships and flips for one sink vertex and order.

    The table reads the lower cone {x <= v} off the group's Bruhat graph
    once, with each out-edge list sorted by rank, and hands out:

    - ``paths(w, n)``: all length-n paths w -> v, sorted lexicographically
      by label ranks under the table's order (the scan's path sums and the
      per-path checks read these);
    - ``gaps[w]``: the length gap l(v) - l(w), for every w in the cone;
    - ``word_paths(w, gamma)``: the length-|gamma| paths w -> v whose
      AD-word is ``gamma``, in the same order;
    - ``t_set(w, gamma)``: the T-set for the AD-word ``gamma``, a subset of
      ``word_paths(w, gamma)`` and read from nothing else;
    - ``flip(w, gamma)``: the pairing dict T -> T-bar.

    ``reversed_table()`` returns the twin table under the reversed order;
    T-bar sets are the twin's T-sets.  The twin enumerates nothing: its
    ``paths(w, n)`` is this table's tuple reversed, and its
    ``word_paths(w, gamma)`` this table's for the barred word, reversed,
    same path objects.
    Evaluation is demand-driven recursion over strictly smaller
    sub-problems, so preconditions on sub-interval flips hold by
    construction.  After a call completes, all entries it touched are
    cached; instances are cheap to share but not thread-safe while growing.
    """

    def __init__(self, sink: Perm, order: ReflectionOrder, _twin: "TSetTable | None" = None):
        if order.n != len(sink):
            raise ValueError("order and sink vertex live in different groups")
        self.sink = sink
        self.order = order
        if _twin is None:
            graph = bruhat_graph(len(sink))
            cone = graph.cone(sink)
            up = graph.interval.adjacency
            self._adjacency = {
                x: tuple(sorted(
                    ((t, y) for t, y in up[x] if y in cone),
                    key=lambda ty: order.rank(ty[0]),
                ))
                for x in cone
            }
            top = graph.lengths[sink]
            self.gaps = {x: top - graph.lengths[x] for x in cone}
            self._twin = TSetTable(sink, order.reversed(), _twin=self)
        else:
            self._adjacency = None
            self.gaps = _twin.gaps
            self._twin = _twin
        self._paths: dict[tuple[Perm, int], tuple[BruhatPath, ...]] = {}
        self._word_paths: dict[tuple[Perm, str], tuple[BruhatPath, ...]] = {}
        self._tsets: dict[tuple[Perm, str], tuple[BruhatPath, ...]] = {}
        self._members: dict[tuple[Perm, str], frozenset[BruhatPath]] = {}
        self._flips: dict[tuple[Perm, str], dict[BruhatPath, BruhatPath]] = {}

    def reversed_table(self) -> "TSetTable":
        return self._twin

    def paths(self, w: Perm, n: int) -> tuple[BruhatPath, ...]:
        """All length-n paths from w to the sink, lex-sorted by label ranks.

        A length-n path is an edge (t, y) out of w followed by a length-(n-1)
        path from y.  Out-edges are walked in rank order and each suffix
        tuple is lex-sorted, so the result needs no sort.
        """
        key = (w, n)
        hit = self._paths.get(key)
        if hit is None:
            if self._adjacency is None:
                hit = self._twin.paths(w, n)[::-1]
            elif not self._reaches(w, n + 1):
                hit = ()
            elif n == 0:
                hit = self._edges_to_sink(w)
            else:
                hit = tuple(
                    BruhatPath((w,) + p.vertices, (t,) + p.labels)
                    for t, y in self._adjacency[w]
                    for p in self.paths(y, n - 1)
                )
            self._paths[key] = hit
        return hit

    def _reaches(self, w: Perm, edges: int) -> bool:
        """The dead-end test of `iter_paths`: `edges` edges from w, each
        raising the length by an odd amount, can end at the sink."""
        gap = self.gaps[w]
        return gap >= edges > 0 and (gap - edges) % 2 == 0

    def _edges_to_sink(self, w: Perm) -> tuple[BruhatPath, ...]:
        return tuple(
            BruhatPath((w, y), (t,)) for t, y in self._adjacency[w] if y == self.sink
        )

    def word_paths(self, w: Perm, gamma: str) -> tuple[BruhatPath, ...]:
        """The paths w -> sink whose AD-word is gamma, lex-sorted by label ranks.

        A path with word gamma is an edge (t, y) out of w followed by a path
        from y with word gamma[1:] whose first label ascends from t exactly
        when gamma starts with A.  Out-edges are walked in rank order and
        each suffix tuple is lex-sorted, so the result needs no sort.
        """
        key = (w, gamma)
        hit = self._word_paths.get(key)
        if hit is None:
            if self._adjacency is None:
                hit = self._twin.word_paths(w, gamma.translate(_BAR))[::-1]
            else:
                hit = self._extend(w, gamma)
            self._word_paths[key] = hit
        return hit

    def _extend(self, w: Perm, gamma: str) -> tuple[BruhatPath, ...]:
        if not self._reaches(w, len(gamma) + 1):
            return ()
        if not gamma:
            return self._edges_to_sink(w)
        rank = self.order.rank
        ascent = gamma[0] == "A"
        out = []
        for t, y in self._adjacency[w]:
            r = rank(t)
            for p in self.word_paths(y, gamma[1:]):
                if (r < rank(p.labels[0])) == ascent:
                    out.append(BruhatPath((w,) + p.vertices, (t,) + p.labels))
        return tuple(out)

    def word(self, path: BruhatPath) -> str:
        """Ascent-descent word of a path under this table's order."""
        return ad_word(path, self.order)

    def t_set(self, w: Perm, gamma: str) -> tuple[BruhatPath, ...]:
        """T-set of the AD-word gamma on [w, sink], lex-sorted."""
        key = (w, gamma)
        hit = self._tsets.get(key)
        if hit is not None:
            return hit
        n = len(gamma)
        out = []
        for path in self.word_paths(w, gamma):
            if n > 0:
                if path.tail() not in self.members(path.vertices[1], gamma[1:]):
                    continue
                if position_factor(path, 1, gamma, self) != 1:
                    continue
            out.append(path)
        result = tuple(out)
        self._tsets[key] = result
        self._members[key] = frozenset(result)
        return result

    def members(self, w: Perm, gamma: str) -> frozenset[BruhatPath]:
        got = self._members.get((w, gamma))
        if got is None:
            self.t_set(w, gamma)
            got = self._members[(w, gamma)]
        return got

    def t_bar_set(self, w: Perm, gamma: str) -> tuple[BruhatPath, ...]:
        """The same construction under the reversed order, sorted by its lex."""
        return self._twin.t_set(w, gamma)

    def flip(self, w: Perm, gamma: str) -> dict[BruhatPath, BruhatPath]:
        """Lex-preserving pairing T -> T-bar on [w, sink] for gamma.

        T is sorted by label ranks under this table's order and T-bar under
        the reversed one, so T is matched positionally with T-bar reversed.
        Raises FlipUndefinedError on a size mismatch.
        """
        key = (w, gamma)
        hit = self._flips.get(key)
        if hit is not None:
            return hit
        t = self.t_set(w, gamma)
        tbar = self._twin.t_set(w, gamma)
        if len(t) != len(tbar):
            raise FlipUndefinedError(w, gamma, self.sink, len(t), len(tbar))
        mapping = dict(zip(t, reversed(tbar)))
        self._flips[key] = mapping
        return mapping


def compute_t_set(
    table: TSetTable, w: Perm, monomial: str
) -> tuple[BruhatPath, ...]:
    """T-set of a cd-monomial on [w, table.sink]."""
    return table.t_set(w, ad_form(monomial))


def compute_t_bar_set(
    table: TSetTable, w: Perm, monomial: str
) -> tuple[BruhatPath, ...]:
    return table.t_bar_set(w, ad_form(monomial))


def flip_pairing(
    table: TSetTable, w: Perm, monomial: str
) -> dict[BruhatPath, BruhatPath]:
    return table.flip(w, ad_form(monomial))


def position_factor(
    path: BruhatPath, m: int, gamma: str, table: TSetTable
) -> int:
    """The factor in {-1, 0, +1} contributed by position m (1-based).

    gamma is the whole AD-word and beta the path's m-th word letter.  Where
    gamma reads A the factor is 1 when beta is A, else 0.  Where gamma reads
    D the tail from x_m is flipped within T_{gamma[m:]} and the letter alpha
    read across the splice is compared with beta: (D, A) gives +1, (A, D)
    gives -1, anything else 0.  Raises FlipUndefinedError when the tail lies
    outside that T-set; callers evaluate right to left so that this cannot
    happen unless a later factor was -1.
    """
    rank = table.order.rank
    before = rank(path.labels[m - 1])
    ascent = before < rank(path.labels[m])
    if gamma[m - 1] == "A":
        return 1 if ascent else 0
    x_m = path.vertices[m]
    image = table.flip(x_m, gamma[m:]).get(path.tail_from(m))
    if image is None:
        raise FlipUndefinedError(
            x_m, gamma[m:], table.sink,
            reason="tail is outside the T-set the flip is defined on",
        )
    spliced_ascent = before < rank(image.labels[0])
    if spliced_ascent == ascent:
        return 0
    return 1 if spliced_ascent else -1


def path_contribution(path: BruhatPath, monomial: str, table: TSetTable) -> int:
    """Signed contribution of one path to the coefficient of `monomial`.

    Product of position factors, taken right to left with early exit on
    zero.  Raises FlipUndefinedError if a needed tail flip is undefined,
    which can only happen after a -1 has occurred, i.e. when the flip
    condition fails for a suffix sub-problem.
    """
    gamma = ad_form(monomial)
    if path.n != len(gamma):
        raise ValueError(f"path length {path.n} does not match degree {len(gamma)}")
    return _signed_product(path, gamma, table)


def _signed_product(path: BruhatPath, gamma: str, table: TSetTable) -> int:
    """The product of the position factors of a path whose length is |gamma|."""
    sign = 1
    for m in range(len(gamma), 0, -1):
        factor = position_factor(path, m, gamma, table)
        if not factor:
            return 0
        sign *= factor
    return sign


def sum_contributions(u: Perm, monomial: str, table: TSetTable) -> int:
    """Sum of signed contributions over all length-n paths u -> table.sink.

    With a flip compatible with the order this equals the coefficient of
    the monomial in the complete cd-index.
    """
    gamma = ad_form(monomial)
    return sum(_signed_product(path, gamma, table) for path in table.paths(u, len(gamma)))


@dataclass(frozen=True)
class FlipWitness:
    """Replayable record of a flip-condition failure.

    kinds: "minus-one-at-m" (a -1 factor with the tail in its suffix T-set),
    "size-mismatch" (|T| != |T-bar| on a sub-problem), and
    "first-reflection-order" (strong condition only: a flip image whose
    first reflection precedes the source's).
    """

    kind: str
    monomial: str
    path: Optional[BruhatPath] = None
    position: Optional[int] = None
    detail: str = ""

    def to_json(self, order: ReflectionOrder) -> dict:
        out = {"kind": self.kind, "monomial": self.monomial or "1", "detail": self.detail}
        if self.path is not None:
            out["path"] = label_string(self.path, order)
            out["source"] = format_perm(self.path.vertices[0])
        if self.position is not None:
            out["position"] = self.position
        return out


def check_flip_condition(
    u: Perm, monomial: str, table: TSetTable
) -> Optional[FlipWitness]:
    """Scan B_n(u, table.sink) for a violation; None means the condition holds.

    A violation at position m needs the tail from x_m inside the suffix
    T-set while the position-m factor is -1.  Monomials whose AD-form has
    no D hold vacuously.
    """
    gamma = ad_form(monomial)
    n = len(gamma)
    d_positions = [m for m in range(1, n + 1) if gamma[m - 1] == "D"]
    if not d_positions:
        return None
    try:
        for path in table.paths(u, n):
            for m in d_positions:
                if path.tail_from(m) not in table.members(path.vertices[m], gamma[m:]):
                    continue
                if position_factor(path, m, gamma, table) == -1:
                    return FlipWitness(
                        kind="minus-one-at-m",
                        monomial=monomial,
                        path=path,
                        position=m,
                    )
    except FlipUndefinedError as exc:
        return FlipWitness(
            kind="size-mismatch",
            monomial=monomial,
            detail=str(exc),
        )
    return None


def check_strong_flip_condition(
    u: Perm, monomial: str, table: TSetTable
) -> Optional[FlipWitness]:
    """First-reflection monotonicity of the flip, for monomials starting with c.

    Requires rank(first label of x) <= rank(first label of flip(x)) for
    every x in T_M(u, table.sink).
    """
    if not monomial.startswith("c"):
        raise ValueError("strong flip condition applies to monomials starting with c")
    gamma = ad_form(monomial)
    rank = table.order.rank
    try:
        pairing = table.flip(u, gamma)
    except FlipUndefinedError as exc:
        return FlipWitness(kind="size-mismatch", monomial=monomial, detail=str(exc))
    for x, y in pairing.items():
        if rank(x.labels[0]) > rank(y.labels[0]):
            return FlipWitness(
                kind="first-reflection-order",
                monomial=monomial,
                path=x,
                position=0,
                detail=f"image first label {y.labels[0]}",
            )
    return None
