"""
T-sets, flip bijections, and the flip conditions.

For a cd-monomial M with AD-form gamma_1 ... gamma_n, the set T_M(w, v)
holds the length-n paths from w to v whose word matches gamma and which
additionally pass, at every position m carrying a D, a local test after
flipping the tail from x_m: the letter read across the splice must be an A.
The tails being flipped always lie in the T-set of the suffix monomial on
the shorter interval [x_m, v], so the whole construction is recursive in
(interval length, monomial degree) and is memoized here per sink vertex.

The flip on a sub-problem pairs T with its reverse-order counterpart T-bar
by lexicographic position under the primal order.  Lex order on the
equal-length rank sequences runs backwards under the reversed order, and
a path is fixed by its source and labels, so the reverse-order table reads
the primal's paths in reverse, and T-bar in primal lex order is its T-set
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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import FlipUndefinedError
from .intervals import BruhatPath, ad_word, build_interval, iter_paths, label_string
from .ncpoly import ad_form, cd_degree
from .orders import ReflectionOrder
from .perms import Perm, format_perm, identity


class TSetTable:
    """Memoized T-sets, memberships and flips for one sink vertex and order.

    The table materializes the lower cone {x <= v} once and hands out:

    - ``paths(w, n)``: all length-n paths w -> v, sorted lexicographically
      by label ranks under the table's order;
    - ``t_set(w, gamma)``: the T-set for the AD-word ``gamma``;
    - ``flip(w, gamma)``: the pairing dict T -> T-bar.

    ``reversed_table()`` returns the twin table under the reversed order;
    T-bar sets are the twin's T-sets.  The twin enumerates nothing: its
    ``paths(w, n)`` is this table's tuple reversed, same path objects.
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
            cone = build_interval(identity(len(sink)), sink)
            self._adjacency = {
                x: tuple(sorted(out, key=lambda ty: order.rank(ty[0])))
                for x, out in cone.adjacency.items()
            }
            self._twin = TSetTable(sink, order.reversed(), _twin=self)
        else:
            self._adjacency = None
            self._twin = _twin
        self._paths: dict[tuple[Perm, int], tuple[BruhatPath, ...]] = {}
        self._tsets: dict[tuple[Perm, str], tuple[BruhatPath, ...]] = {}
        self._members: dict[tuple[Perm, str], frozenset[BruhatPath]] = {}
        self._flips: dict[tuple[Perm, str], dict[BruhatPath, BruhatPath]] = {}

    def reversed_table(self) -> "TSetTable":
        return self._twin

    def paths(self, w: Perm, n: int) -> tuple[BruhatPath, ...]:
        """All length-n paths from w to the sink, lex-sorted by label ranks."""
        key = (w, n)
        hit = self._paths.get(key)
        if hit is None:
            if self._adjacency is None:
                hit = self._twin.paths(w, n)[::-1]
            else:
                hit = tuple(iter_paths(self._adjacency, w, self.sink, n))
            self._paths[key] = hit
        return hit

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
        for path in self.paths(w, n):
            if self.word(path) != gamma:
                continue
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
    n = len(gamma)
    if path.n != n:
        raise ValueError(f"path length {path.n} does not match degree {n}")
    sign = 1
    for m in range(n, 0, -1):
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
    n = cd_degree(monomial)
    return sum(
        path_contribution(path, monomial, table) for path in table.paths(u, n)
    )


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
