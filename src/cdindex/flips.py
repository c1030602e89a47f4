"""
T-sets, flip bijections, and the flip conditions.

For a cd-monomial M with AD-form gamma_1 ... gamma_n, the set T_M(w, v)
holds the length-n paths from w to v whose word matches gamma and which
additionally pass, at every position m carrying a D, a local test after
flipping the tail from x_m: the letter read across the splice must be an A.
The tails being flipped always lie in the T-set of the suffix monomial on
the shorter interval [x_m, v], so the whole construction is recursive in
(interval length, monomial degree) and is memoized here per sink vertex.

Every query is keyed by (vertex, suffix word).  A path (t, x) + tau lies
in T(w, gamma) exactly when tau lies in T(x, gamma[1:]) and its first
factor is +1, and that factor reads only three first-label ranks: of t,
of tau and of flip(tau).  So `t_set(w, gamma)` is built from the suffix
T-sets of the upper neighbours of w, keeping the tails that pass; it
enumerates no other paths, recomputes no word and calls no
`position_factor`.  Each T-set caches its first-label ranks
(`first_ranks`), which the restricted counts also read.

The scan reads no other paths.  Its graded first-label sums come from a
DP over (vertex, length): `sums(w, n)` extends every bucket of each upper
neighbour by the letter read across the edge.  The flip condition and the
signed contribution sum come from a boolean DP over (vertex, suffix word),
`has_minus_one`, which reads only the first-label ranks of the suffix flip
pairs.  When no path has a factor -1 whose tail lies in its T-set, the
condition holds and every path contributes 1 if it lies in T and 0
otherwise, so the sum is |T|, the length of the T-set.  Only when the DP
finds a -1, or meets an undefined flip, do the checks walk the length-n
paths, lazily and in lex order, with `intervals.iter_paths` over the
table's rank-sorted out-edges, to name the witness or the undefined sum.
The table stores no paths but its T-sets.

The flip on a sub-problem pairs T with its reverse-order counterpart T-bar
by lexicographic position under the primal order.  Lex order on the
equal-length rank sequences runs backwards under the reversed order, so
T-bar in primal lex order is the twin's T-set reversed.  The twin holds
the primal's out-edge lists reversed, which sorts them by its own ranks,
and builds its T-sets from its own suffix T-sets exactly as the primal
does.  |T| = |T-bar| is conjectured; a mismatch raises FlipUndefinedError
and is surfaced, never patched.
T-sets, the flip DP and the witness replay read each flip pair off two
nondecreasing rank tuples (`_pair_ranks`): a = `first_ranks` of T and
b = `t_bar_ranks`, the twin's reversed, so the i-th path of T flips to
first-label rank b[i] (the replay finds i in `positions`).  A D at an edge
of rank r keeps the tails [#{b <= r}, #{a <= r}), and a -1 exists exactly
when #{b <= r} > #{a <= r}.  The path flip dict (`flip`) is built only for
`tset` and the strong flip condition.

`position_factor` is the one definition of the per-position factor
(+1, 0 or -1): `path_contribution` (the product of the factors from right
to left, with an early exit on zero) and the walked flip condition (no
factor -1 where the tail lies in its suffix T-set) read it; `t_set` and
the DPs restate its two rank comparisons on first labels.  Under the
flip condition no -1 survives to the final product, which is what makes
|T_M| the coefficient.

The checks take the source u and read the sink v from the table: every
path u -> v lies in the cone [e, v] it holds, so [u, v] is never built.
The cone is the down-closure of v in the process's one Bruhat graph
(`intervals.bruhat_graph`), so a table builds no interval of its own.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from .complete import GradedSums, degree_range
from .errors import FlipUndefinedError
from .intervals import BruhatPath, ad_word, bruhat_graph, iter_paths, label_string
from .ncpoly import ADPolynomial, ad_form
from .orders import ReflectionOrder
from .perms import Perm, format_perm

class TSetTable:
    """Memoized T-sets, positions and flips for one sink vertex and order.

    The table reads the lower cone {x <= v} off the group's Bruhat graph
    once, with each out-edge list sorted by rank, and hands out:

    - ``sums(w, n)``: the AD-word sum of the length-n paths w -> v, bucketed
      by first-label rank; ``graded_sums(w)`` holds every degree of [w, v];
    - ``has_minus_one(w, gamma)``: the flip-condition DP;
    - ``gaps[w]``: the length gap l(v) - l(w), for every w in the cone;
    - ``t_set(w, gamma)``: the T-set for the AD-word ``gamma``, lex-sorted,
      built from the suffix T-sets of w's upper neighbours;
      ``first_ranks(w, gamma)`` holds its first-label ranks, nondecreasing,
      and ``t_bar_ranks(w, gamma)`` those of T-bar, in this table's ranks;
    - ``flip(w, gamma)``: the pairing dict T -> T-bar, built only for
      ``tset`` and the strong flip condition;
    - ``positions(w, gamma)``: each path of the T-set mapped to its index,
      built only when the witness replay asks.

    The table stores no paths beyond its T-sets: the witness replay of the
    checks walks `iter_paths` over ``_adjacency``, lazily and in lex order.

    ``reversed_table()`` returns the twin table under the reversed order;
    T-bar sets are the twin's T-sets.  The twin holds this table's out-edge
    lists reversed, so sorted by its own ranks, and reads the cone's gaps
    from this table.  It holds this table through a weak reference, so the
    pair forms no reference cycle and a dropped table is freed at once;
    keep the primal alive while using the twin.
    Evaluation is demand-driven recursion over strictly smaller
    sub-problems, so preconditions on sub-interval flips hold by
    construction.  After a call completes, all entries it touched are
    cached; instances are cheap to share but not thread-safe while growing.
    """

    def __init__(self, sink: Perm, order: ReflectionOrder, _primal: "TSetTable | None" = None):
        if order.n != len(sink):
            raise ValueError("order and sink vertex live in different groups")
        self.sink = sink
        self.order = order
        self._is_primal = _primal is None
        if _primal is None:
            graph = bruhat_graph(len(sink))
            cone = graph.cone(sink)
            up = graph.sorted_adjacency(order)
            self._adjacency = {x: tuple(ty for ty in up[x] if ty[1] in cone) for x in cone}
            top = graph.lengths[sink]
            self.gaps = {x: top - graph.lengths[x] for x in cone}
            self._twin = TSetTable(sink, order.reversed(), _primal=self)
        else:
            self._adjacency = {x: out[::-1] for x, out in _primal._adjacency.items()}
            self.gaps = _primal.gaps
            self._primal = weakref.ref(_primal)
        self._sums: dict[tuple[Perm, int], dict[int, ADPolynomial]] = {}
        self._minus_one: dict[tuple[Perm, str], bool] = {}
        self._spans: dict[tuple[Perm, str], tuple[int, int]] = {}
        self._tsets: dict[tuple[Perm, str], tuple[BruhatPath, ...]] = {}
        self._first_ranks: dict[tuple[Perm, str], tuple[int, ...]] = {}
        self._t_bar_ranks: dict[tuple[Perm, str], tuple[int, ...]] = {}
        self._positions: dict[tuple[Perm, str], dict[BruhatPath, int]] = {}
        self._flips: dict[tuple[Perm, str], dict[BruhatPath, BruhatPath]] = {}

    def reversed_table(self) -> "TSetTable":
        """The twin under the reversed order.  The primal holds its twin and
        the twin holds its primal weakly, so a dropped table is freed at
        once; a twin whose primal is gone raises ReferenceError."""
        if self._is_primal:
            return self._twin
        primal = self._primal()
        if primal is None:
            raise ReferenceError("the primal table of this reverse-order twin was freed")
        return primal

    def sums(self, w: Perm, n: int) -> dict[int, ADPolynomial]:
        """Word sums of the length-n paths w -> sink, keyed by ascending
        first-label rank; read the result only.

        A length-n path is an edge (t, y) out of w followed by a
        length-(n-1) path from y, and the letter read across the splice is
        A exactly when rank(t) is below that path's first-label rank.  So
        bucket rank(t) of w is every bucket r' of y with that letter in
        front; the base case is the edge w -> sink, with the empty word.
        """
        key = (w, n)
        hit = self._sums.get(key)
        if hit is None:
            rank = self.order.rank
            buckets: dict[int, ADPolynomial] = {}
            if self._reaches(w, n + 1):
                for t, y in self._adjacency[w]:
                    r = rank(t)
                    if n == 0:
                        if y == self.sink:
                            buckets[r] = ADPolynomial({"": 1})
                        continue
                    acc: dict[str, int] = {}
                    for r_tail, tail in self.sums(y, n - 1).items():
                        letter = "A" if r < r_tail else "D"
                        for word, c in tail._terms.items():
                            word = letter + word
                            acc[word] = acc.get(word, 0) + c
                    if acc:
                        buckets[r] = ADPolynomial._of(acc)
            hit = {r: buckets[r] for r in sorted(buckets)}
            self._sums[key] = hit
        return hit

    def graded_sums(self, w: Perm) -> GradedSums:
        """`sums(w, n)` for every length n a path w -> sink can have."""
        return {n: self.sums(w, n) for n in degree_range(self.gaps[w])}

    def has_minus_one(self, w: Perm, gamma: str) -> bool:
        """Whether some path w -> sink has, at a position where gamma reads
        D, the factor -1 with its tail in the suffix T-set.

        A path is an edge (t, x) followed by a tail from x: its -1 lies in
        the tail, or at the first position when gamma starts with D and
        the tail tau lies in T(x, gamma[1:]).  There the factor is -1 when
        b <= rank(t) < a, for the first-label ranks a of tau and b of
        flip(tau), so for some tau exactly when more b than a are <= rank(t).
        Raises FlipUndefinedError when a flip it reads is undefined.
        """
        key = (w, gamma)
        hit = self._minus_one.get(key)
        if hit is None:
            hit = False
            if gamma and self._reaches(w, len(gamma) + 1):
                rank = self.order.rank
                rest = gamma[1:]
                for t, x in self._adjacency[w]:
                    if self.has_minus_one(x, rest):
                        hit = True
                    elif gamma[0] == "D":
                        r = rank(t)
                        a, b = self._pair_ranks(x, rest)
                        hit = bisect_right(b, r) > bisect_right(a, r)
                    if hit:
                        break
            self._minus_one[key] = hit
        return hit

    def t_bar_ranks(self, w: Perm, gamma: str) -> tuple[int, ...]:
        """The first-label ranks of T-bar(w, gamma) under this table's order,
        with T-bar in this table's lex order: nondecreasing.  The twin lists
        T-bar in its own lex order, the reverse, so this is its
        `first_ranks` read backwards, each rank r mapped back to N + 1 - r."""
        hit = self._t_bar_ranks.get((w, gamma))
        if hit is None:
            top = len(self.order.sequence) + 1
            ranks = self.reversed_table().first_ranks(w, gamma)
            hit = self._t_bar_ranks[(w, gamma)] = tuple(top - r for r in reversed(ranks))
        return hit

    def _pair_ranks(self, w: Perm, gamma: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(a, b): the first-label ranks of T(w, gamma) and of the flip
        images, both nondecreasing.  The flip pairs T with T-bar by position
        in this table's lex order, so the i-th path of T flips to a path of
        first-label rank b[i]: a is `first_ranks` and b is `t_bar_ranks`.
        Raises FlipUndefinedError, as `flip` does, when |T| != |T-bar|."""
        a = self.first_ranks(w, gamma)
        b = self.t_bar_ranks(w, gamma)
        if len(a) != len(b):
            raise FlipUndefinedError(w, gamma, self.sink, len(a), len(b))
        return a, b

    def _reaches(self, w: Perm, edges: int) -> bool:
        """The dead-end test of `iter_paths`: `edges` edges from w, each
        raising the length by an odd amount, can end at the sink."""
        gap = self.gaps[w]
        return gap >= edges > 0 and (gap - edges) % 2 == 0

    def word(self, path: BruhatPath) -> str:
        """Ascent-descent word of a path under this table's order."""
        return ad_word(path, self.order)

    def t_set(self, w: Perm, gamma: str) -> tuple[BruhatPath, ...]:
        """T-set of the AD-word gamma on [w, sink], lex-sorted by label ranks.

        A path (t, x) + tau lies in T(w, gamma) exactly when tau lies in
        T(x, gamma[1:]) and the first factor is +1: with r = rank(t) and a
        and b the first-label ranks of tau and flip(tau), r < a where gamma
        starts with A, and a <= r < b where it starts with D.  Both rank
        tuples are nondecreasing, so bisection finds the A tails [#{a <= r},
        |T|) and the D tails [#{b <= r}, #{a <= r}).  Out-edges are walked
        in rank order, so the result needs no sort.  A suffix T-set is read
        only where some path with word gamma crosses the edge (`_word_span`),
        and the flip pairs (`_pair_ranks`) only where a D candidate exists,
        so the sub-problems evaluated, and any FlipUndefinedError raised, are
        those of filtering the paths with word gamma by suffix membership and
        `position_factor`.
        """
        key = (w, gamma)
        hit = self._tsets.get(key)
        if hit is not None:
            return hit
        rank = self.order.rank
        out: list[BruhatPath] = []
        ranks: list[int] = []
        if self._reaches(w, len(gamma) + 1):
            rest = gamma[1:]
            ascent = gamma[:1] == "A"
            for t, x in self._adjacency[w]:
                r = rank(t)
                if not gamma:
                    kept = [BruhatPath((w, x), (t,))] if x == self.sink else []
                else:
                    lo, hi = self._word_span(x, rest)
                    if (hi <= r) if ascent else (lo > r):
                        continue
                    tails = self.t_set(x, rest)
                    k = bisect_right(self.first_ranks(x, rest), r)
                    if ascent:
                        kept = tails[k:]
                    else:
                        kept = tails[bisect_right(self._pair_ranks(x, rest)[1], r):k] if k else ()
                    kept = [BruhatPath((w,) + tau.vertices, (t,) + tau.labels) for tau in kept]
                out += kept
                ranks += [r] * len(kept)
        result = tuple(out)
        self._tsets[key] = result
        self._first_ranks[key] = tuple(ranks)
        return result

    def first_ranks(self, w: Perm, gamma: str) -> tuple[int, ...]:
        """The first-label ranks of T(w, gamma), in its order: nondecreasing."""
        hit = self._first_ranks.get((w, gamma))
        if hit is None:
            self.t_set(w, gamma)
            hit = self._first_ranks[(w, gamma)]
        return hit

    def _word_span(self, w: Perm, gamma: str) -> tuple[int, int]:
        """(lowest, highest) first-label rank of the paths w -> sink whose
        AD-word is gamma; (rank count + 1, 0) when there are none."""
        key = (w, gamma)
        hit = self._spans.get(key)
        if hit is None:
            lo, hi = len(self.order.sequence) + 1, 0
            if self._reaches(w, len(gamma) + 1):
                rank = self.order.rank
                for t, x in self._adjacency[w]:
                    r = rank(t)
                    if gamma:
                        x_lo, x_hi = self._word_span(x, gamma[1:])
                        if (x_hi <= r) if gamma[0] == "A" else (x_lo > r):
                            continue
                    elif x != self.sink:
                        continue
                    lo, hi = min(lo, r), max(hi, r)
            hit = self._spans[key] = (lo, hi)
        return hit

    def positions(self, w: Perm, gamma: str) -> dict[BruhatPath, int]:
        """Each path of T(w, gamma) mapped to its index, built on first use;
        only the witness replay of the flip checks reads it."""
        key = (w, gamma)
        got = self._positions.get(key)
        if got is None:
            got = self._positions[key] = {tau: i for i, tau in enumerate(self.t_set(w, gamma))}
        return got

    def t_bar_set(self, w: Perm, gamma: str) -> tuple[BruhatPath, ...]:
        """The same construction under the reversed order, sorted by its lex."""
        return self.reversed_table().t_set(w, gamma)

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
        tbar = self.reversed_table().t_set(w, gamma)
        if len(t) != len(tbar):
            raise FlipUndefinedError(w, gamma, self.sink, len(t), len(tbar))
        mapping = dict(zip(t, reversed(tbar)))
        self._flips[key] = mapping
        return mapping


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
    _, image_ranks = table._pair_ranks(x_m, gamma[m:])
    i = table.positions(x_m, gamma[m:]).get(path.tail_from(m))
    if i is None:
        raise FlipUndefinedError(
            x_m, gamma[m:], table.sink,
            reason="tail is outside the T-set the flip is defined on",
        )
    spliced_ascent = before < image_ranks[i]
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
    the monomial in the complete cd-index.  When `has_minus_one` rules out
    every -1 factor, every path in T contributes 1 and every other path 0,
    so the sum is |T|; otherwise the paths are walked in lex order, and a
    needed flip that is undefined raises FlipUndefinedError.
    """
    gamma = ad_form(monomial)
    if _no_minus_one(u, gamma, table):
        return len(table.t_set(u, gamma))
    paths = iter_paths(table._adjacency, u, table.sink, len(gamma))
    return sum(path_contribution(path, monomial, table) for path in paths)


def _no_minus_one(u: Perm, gamma: str, table: TSetTable) -> bool:
    """The DP's verdict that no path u -> sink has a -1 factor with its tail
    in its T-set; False also when a flip inside the DP is undefined, which
    leaves the verdict and its report to the path walk."""
    try:
        return not table.has_minus_one(u, gamma)
    except FlipUndefinedError:
        return False


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
    no D hold vacuously, and so does every monomial `has_minus_one` clears.
    Otherwise the paths are walked lazily in lex order, and the first
    violation, or the first undefined flip, is the witness; the walk stops
    there.
    """
    gamma = ad_form(monomial)
    n = len(gamma)
    d_positions = [m for m in range(1, n + 1) if gamma[m - 1] == "D"]
    if not d_positions or _no_minus_one(u, gamma, table):
        return None
    try:
        for path in iter_paths(table._adjacency, u, table.sink, n):
            for m in d_positions:
                if path.tail_from(m) not in table.positions(path.vertices[m], gamma[m:]):
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
