"""
T-sets, flip bijections, and the flip conditions.

For a cd-monomial M with AD-form gamma_1 ... gamma_n, the set T_M(w, v)
holds the length-n paths from w to v whose word matches gamma and which
additionally pass, at every position m carrying a D, a local test after
flipping the tail from x_m: the letter read across the splice must be an A.
The tails being flipped always lie in the T-set of the suffix monomial on
the shorter interval [x_m, v], so the whole construction is recursive in
(interval length, monomial degree), and its counts are memoized here per
sink vertex.

The flip on a sub-problem pairs T with its reverse-order counterpart T-bar
by lexicographic position under the primal order.  T-bar is the same
construction under the reversed order, so one table holds both sides: the
T-bar side walks each out-edge list backwards and reads each rank r as
N + 1 - r, for N reflections.  Lex order on equal-length rank sequences
runs backwards under the reversed order, so T-bar in primal lex order is
the T-bar side's own lex order reversed.  |T| = |T-bar| is conjectured; a
mismatch raises FlipUndefinedError and is surfaced, never patched.

Both sides list their tails with nondecreasing first-label ranks, so every
question about a flip pair depends only on how many members of each side
have a first label of rank <= r.  `counts(w, gamma, bar)` holds those
cumulative counts, r = 0..N, and is the one stored fact: the flip images
of one side are the other side's set, so `images_upto` reads their counts
off the other side's, q[r] = other[N] - other[N - r], after the
|T| = |T-bar| check.  A path (t, x) + tau lies in T(w, gamma) exactly
when tau lies in T(x, gamma[1:]) and its first factor is +1; with
r = rank(t), p the counts of T(x, gamma[1:]) and q those of its flip
images, the tails kept at the edge are the index range [p[r], p[N]) after
an A and [q[r], p[r]) after a D, and a -1 factor with its tail in the
T-set exists exactly when q[r] > p[r].  `_ranges` states these ranges
once: `counts` adds them up; `t_set` walks them depth first, down only the
index slice of each suffix T-set that a path needs, and builds each path
once, at the sink; and `index` ranks a path in its T-set by reading them
along the path, so the witness replay builds no T-set.  No memo holds a
path: only `tset` and the strong flip condition (`flip`, a dict built on
each call) ask for T-set paths, and the walk keeps only each sub-problem's
kept edges.  A suffix is read only where some path with word gamma
crosses the edge (`_word_span`), and the other side only where a D
candidate exists, so the sub-problems evaluated, and any
FlipUndefinedError raised, are those of filtering the paths with word
gamma by suffix membership and `position_factor`.

The scan reads no paths on a clean interval.  Its graded first-label sums
come from a DP over (vertex, length): `sums(w, n)` extends every bucket of
each upper neighbour by the letter read across the edge.  The flip
condition and the signed contribution sum come from a boolean DP over
(vertex, suffix word), `has_minus_one`, which reads the suffix counts.
When no path has a factor -1 whose tail lies in its T-set, the condition
holds and every path contributes 1 if it lies in T and 0 otherwise, so the
sum is |T|.  Only when the DP finds a -1, or meets an undefined flip, do
the checks walk the length-n paths, lazily and in lex order, with
`intervals.iter_paths` over the table's rank-sorted out-edges, to name the
witness or the undefined sum.

`position_factor` is the one definition of the per-position factor
(+1, 0 or -1): `path_contribution` (the product of the factors from right
to left, with an early exit on zero) and the walked flip condition (no
factor -1 where the tail lies in its suffix T-set) read it; the counts
restate its two rank comparisons on first labels.  Under the flip
condition no -1 survives to the final product, which is what makes |T_M|
the coefficient.

The checks take the source u and read the sink v from the table: every
path u -> v lies in the cone [e, v] it holds, so [u, v] is never built.
The cone is the down-closure of v in the process's one Bruhat graph
(`intervals.bruhat_graph`), so a table builds no interval of its own.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, NamedTuple, Optional

from .complete import GradedSums, degree_range
from .errors import FlipUndefinedError
from .intervals import BruhatPath, ad_word, bruhat_graph, iter_paths, label_string
from .ncpoly import _BAR, ADPolynomial, ad_form
from .orders import ReflectionOrder
from .perms import Perm, Reflection, format_perm


class TSetTable:
    """Memoized sums and counts, and the T-sets and flips walked from them,
    for one sink vertex and order.

    The table reads the lower cone {x <= v} off the group's Bruhat graph
    once, with each out-edge list sorted by rank, and hands out:

    - ``sums(w, n)``: the AD-word sum of the length-n paths w -> v, bucketed
      by first-label rank; ``graded_sums(w)`` holds every degree of [w, v];
    - ``has_minus_one(w, gamma)``: the flip-condition DP;
    - ``gaps[w]``: the length gap l(v) - l(w), for every w in the cone;
    - ``counts(w, gamma, bar)``: the cumulative first-label counts of
      T(w, gamma), or of T-bar(w, gamma) in the reversed order's ranks,
      every empty set sharing the table's one all-zero tuple;
      ``images_upto(w, gamma, r, bar)`` the number of its flip images
      of rank <= r, read off the other side's counts after the
      |T| = |T-bar| check;
    - ``t_set(w, gamma, bar)``: the T-set (or T-bar set) for the AD-word
      ``gamma``, sorted by its side's lex order, walked depth first along
      the same ranges as the counts and built anew on each call; only the
      kept edges of each sub-problem it walks are memoized;
    - ``index(path, m, gamma)``: the index of the path's tail from x_m in
      T(x_m, gamma), or None, read off the counts without building T;
    - ``flip(w, gamma)``: the pairing dict T -> T-bar, built on each call,
      for ``tset`` and the strong flip condition; no memo keeps it.

    The witness replay of the checks walks `iter_paths` over
    ``_adjacency``, lazily and in lex order.  Evaluation is demand-driven
    recursion over strictly smaller sub-problems, so preconditions on
    sub-interval flips hold by construction.  After a call completes, all
    entries it touched are cached, and no cached entry holds a path;
    instances are cheap to share but not thread-safe while growing.
    """

    # perfbench/tracer.py reads it for the hit ratio of `t_set`.  T-sets are
    # walked, not memoized, so it stays empty; it goes with the tracer
    # re-point of ROADMAP item 1.
    _tsets: dict[tuple[Perm, str], tuple[BruhatPath, ...]] = {}

    def __init__(self, sink: Perm, order: ReflectionOrder):
        if order.n != len(sink):
            raise ValueError("order and sink vertex live in different groups")
        self.sink = sink
        self.order = order
        graph = bruhat_graph(len(sink))
        cone = graph.cone(sink)
        up = graph.sorted_adjacency(order)
        self._adjacency = {x: tuple(ty for ty in up[x] if ty[1] in cone) for x in cone}
        top = graph.lengths[sink]
        self.gaps = {x: top - graph.lengths[x] for x in cone}
        self._sums: dict[tuple[Perm, int], dict[int, ADPolynomial]] = {}
        self._minus_one: dict[tuple[Perm, str], bool] = {}
        self._spans: dict[tuple[Perm, str], tuple[int, int]] = {}
        self._counts: dict[tuple[Perm, str, bool], tuple[int, ...]] = {}
        self._zero = (0,) * (len(order.sequence) + 1)
        self._kept: dict[tuple[Perm, str, bool], tuple[tuple[Reflection, Perm, int, int], ...]] = {}

    def sums(self, w: Perm, n: int) -> dict[int, ADPolynomial]:
        """Word sums of the length-n paths w -> sink, keyed by ascending
        first-label rank; read the result only.

        A length-n path is an edge (t, y) out of w followed by a
        length-(n-1) path from y, and the letter read across the splice is
        A exactly when rank(t) is below that path's first-label rank.  So
        bucket rank(t) of w is every bucket r' of y with that letter in
        front; the base case is the edge w -> sink, with the empty word.
        The out-edges run in rank order, so the buckets are filled in it.
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
            hit = self._sums[key] = buckets
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
        flip(tau), so for some tau exactly when more images than tails
        start at a rank <= rank(t): `images_upto` above `counts` at r.
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
                        hit = self.images_upto(x, rest, r) > self.counts(x, rest)[r]
                    if hit:
                        break
            self._minus_one[key] = hit
        return hit

    def counts(self, w: Perm, gamma: str, bar: bool = False) -> tuple[int, ...]:
        """Entry r, for r = 0..N, is the number of paths of T(w, gamma), or
        of T-bar(w, gamma) with `bar`, whose first label has rank <= r in
        that side's order: the table's, or the reversed one.  Each out-edge
        adds, at its rank r, the number of tails it leads (`_ranges`)."""
        key = (w, gamma, bar)
        hit = self._counts.get(key)
        if hit is None:
            buckets = [0] * (len(self.order.sequence) + 1)
            for _, _, r, lo, hi in self._ranges(w, gamma, bar):
                buckets[r] += hi - lo
            hit = self._counts[key] = tuple(accumulate(buckets)) if any(buckets) else self._zero
        return hit

    def _ranges(
        self, w: Perm, gamma: str, bar: bool = False
    ) -> Iterator[tuple[Reflection, Perm, int, int, int]]:
        """(t, x, r, lo, hi) for each out-edge (t, x) of w, in the side's
        rank order, that leads tails of T(w, gamma) (or of T-bar): r is the
        side's rank of t and [lo, hi) the index range of those tails in
        T(x, gamma[1:]).  With p the suffix's `counts` and q[r] its
        `images_upto` r, the range is [p[r], p[N]) after an A and
        [q[r], p[r]) after a D, and the other side is read only where
        p[r] > 0.  An edge is read only where some path with word gamma
        crosses it; under the reversed order that is the barred word in
        this table's ranks.
        """
        if not self._reaches(w, len(gamma) + 1):
            return
        top = len(self.order.sequence)
        rank = self.order.rank
        rest = gamma[1:]
        word = gamma.translate(_BAR) if bar else gamma
        edges = self._adjacency[w]
        for t, x in reversed(edges) if bar else edges:
            r = rank(t)
            if not self._crosses(r, x, word):
                continue
            if bar:
                r = top + 1 - r
            if not gamma:
                lo, hi = 0, 1
            else:
                p = self.counts(x, rest, bar)
                if gamma[0] == "A":
                    lo, hi = p[r], p[top]
                elif p[r]:
                    lo, hi = self.images_upto(x, rest, r, bar), p[r]
                else:
                    continue
            if lo < hi:
                yield t, x, r, lo, hi

    def images_upto(self, w: Perm, gamma: str, r: int, bar: bool = False) -> int:
        """The number of flip images of T(w, gamma), or of T-bar(w, gamma)
        with `bar`, whose first label has rank <= r in this side's ranks.
        The images are the other side's set, and a rank r of one side is
        N + 1 - r of the other, so they are the other side's paths of rank
        >= N + 1 - r.  Reads this side's counts before the other's, and
        raises FlipUndefinedError, as `flip` does, when |T| != |T-bar|."""
        own = self.counts(w, gamma, bar)
        other = self.counts(w, gamma, not bar)
        if own[-1] != other[-1]:
            raise FlipUndefinedError(w, gamma, self.sink, own[-1], other[-1])
        return other[-1] - other[-1 - r]

    def _reaches(self, w: Perm, edges: int) -> bool:
        """The dead-end test of `iter_paths`: `edges` edges from w, each
        raising the length by an odd amount, can end at the sink."""
        gap = self.gaps[w]
        return gap >= edges > 0 and (gap - edges) % 2 == 0

    def word(self, path: BruhatPath) -> str:
        """Ascent-descent word of a path under this table's order."""
        return ad_word(path, self.order)

    def t_set(self, w: Perm, gamma: str, bar: bool = False) -> tuple[BruhatPath, ...]:
        """T-set of the AD-word gamma on [w, sink], or with `bar` the T-bar
        set, lex-sorted by label ranks in its side's order.

        The counts of (w, gamma) come first, so they raise any
        FlipUndefinedError.  Then a depth-first walk follows each
        sub-problem's kept edges, in rank order, down only the index slice
        of the suffix T-set it needs, and builds each path once, at the
        sink.  No path is memoized.
        """
        out: list[BruhatPath] = []
        self._walk(w, gamma, bar, 0, self.counts(w, gamma, bar)[-1], (), (), out)
        return tuple(out)

    def _walk(
        self, w: Perm, gamma: str, bar: bool, lo: int, hi: int,
        vertices: tuple[Perm, ...], labels: tuple[Reflection, ...], out: list[BruhatPath],
    ) -> None:
        """Append to `out` the paths of index lo..hi - 1 in T(w, gamma), or
        in T-bar, each after the prefix `vertices` and `labels`.

        The kept edges of (w, gamma) lead consecutive index ranges of
        T(w, gamma), each the slice [a, b) of T(x, gamma[1:]) that
        `_ranges` gives; they are memoized per (w, gamma, bar) as edges,
        so a sub-problem reached by several prefixes reads its ranges once.
        """
        key = (w, gamma, bar)
        kept = self._kept.get(key)
        if kept is None:
            kept = self._kept[key] = tuple(
                (t, x, a, b) for t, x, _, a, b in self._ranges(w, gamma, bar)
            )
        vertices += (w,)
        at = 0
        for t, x, a, b in kept:
            end = at + b - a
            if end > lo:
                if gamma:
                    start, stop = a + max(lo, at) - at, a + min(hi, end) - at
                    self._walk(x, gamma[1:], bar, start, stop, vertices, labels + (t,), out)
                else:
                    out.append(BruhatPath(vertices + (x,), labels + (t,)))
            if end >= hi:
                break
            at = end

    def index(self, path: BruhatPath, m: int, gamma: str) -> Optional[int]:
        """The index in T(x_m, gamma) of the tail of `path` from x_m, or
        None when the tail lies outside that T-set.

        The tail's first edge (t, x), of rank r, leads the tails of
        T(x, gamma[1:]) in the range [lo, hi) of `_ranges`, after the
        counts[r - 1] paths of lower first-label rank, so a tail from x
        of index i there has index counts[r - 1] + i - lo.  After the counts
        of (x_m, gamma) it reads only memoized sub-problems, and it stops at
        the first edge that leads no tails.
        """
        w, t = path.vertices[m], path.labels[m]
        below = self.counts(w, gamma)
        for label, _, r, lo, hi in self._ranges(w, gamma):
            if label == t:
                i = self.index(path, m + 1, gamma[1:]) if gamma else 0
                return below[r - 1] + i - lo if i is not None and lo <= i < hi else None
        return None

    def _crosses(self, r: int, x: Perm, word: str) -> bool:
        """Whether some path with AD-word `word` starts with an edge of rank
        r into x."""
        if not word:
            return x == self.sink
        lo, hi = self._word_span(x, word[1:])
        return r < hi if word[0] == "A" else lo <= r

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
                    if self._crosses(r, x, gamma):
                        lo, hi = min(lo, r), max(hi, r)
            hit = self._spans[key] = (lo, hi)
        return hit

    def flip(self, w: Perm, gamma: str) -> dict[BruhatPath, BruhatPath]:
        """Lex-preserving pairing T -> T-bar on [w, sink] for gamma.

        T is sorted by label ranks under this table's order and T-bar under
        the reversed one, so T is matched positionally with T-bar reversed.
        Raises FlipUndefinedError on a size mismatch.  Built anew on each
        call, from one walk of each side: `tset` reads T off its keys and
        T-bar off its values reversed, and the strong flip condition asks
        once per (w, gamma).
        """
        t = self.t_set(w, gamma)
        tbar = self.t_set(w, gamma, bar=True)
        if len(t) != len(tbar):
            raise FlipUndefinedError(w, gamma, self.sink, len(t), len(tbar))
        return dict(zip(t, reversed(tbar)))


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
    images = table.images_upto(x_m, gamma[m:], before)
    i = table.index(path, m, gamma[m:])
    if i is None:
        raise FlipUndefinedError(
            x_m, gamma[m:], table.sink,
            reason="tail is outside the T-set the flip is defined on",
        )
    # the i-th tail's image starts above `before` exactly when at most i
    # images start at a rank <= before
    spliced_ascent = images <= i
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
        return table.counts(u, gamma)[-1]
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


class FlipWitness(NamedTuple):
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
                inside = table.index(path, m, gamma[m:]) is not None
                if inside and position_factor(path, m, gamma, table) == -1:
                    return FlipWitness(
                        kind="minus-one-at-m",
                        monomial=monomial,
                        path=path,
                        position=m,
                    )
    except FlipUndefinedError as exc:
        return FlipWitness(kind="size-mismatch", monomial=monomial, detail=str(exc))
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
