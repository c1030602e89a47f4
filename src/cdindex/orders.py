"""
Reflection orders on the transpositions of S_n.

A reflection order is a total order on the set of reflections whose
restriction to the reflections of every dihedral reflection subgroup is the
canonical alternating chain between the subgroup's two extreme reflections.
In S_n the dihedral subgroups are generated by pairs of transpositions, so
the condition amounts to: for every triple i < j < k, the transposition
(i k) sits strictly between (i j) and (j k).

The lexicographic order by (i, j) is a reflection order, the reverse of a
reflection order is one, and every reduced word for the longest element
yields one via prefix conjugation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .perms import (
    Perm,
    Reflection,
    all_reflections,
    as_reflection,
    compose,
    identity,
    inverse,
    length,
    longest_element,
    reflection_perm,
)


@dataclass(frozen=True)
class ReflectionOrder:
    """A validated total order on the reflections of S_n.

    `sequence[k]` is the reflection of 1-based rank k+1; `rank()` is the
    inverse lookup.  Instances are immutable and safe to share.
    """

    n: int
    sequence: tuple[Reflection, ...]
    _rank: dict[Reflection, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _reversed: Optional["ReflectionOrder"] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self):
        expected = set(all_reflections(self.n))
        if set(self.sequence) != expected or len(self.sequence) != len(expected):
            raise ValueError("sequence must list every reflection of S_n exactly once")
        self._rank.update({t: k + 1 for k, t in enumerate(self.sequence)})
        witness = dihedral_violation(self)
        if witness is not None:
            raise ValueError(f"not a reflection order; violating subgroup {witness}")

    def rank(self, t: Reflection) -> int:
        """1-based position of t in this order."""
        return self._rank[t]

    def reversed(self) -> "ReflectionOrder":
        """The reverse order, built and validated once; its reverse is self."""
        if self._reversed is None:
            rev = ReflectionOrder(self.n, tuple(reversed(self.sequence)))
            object.__setattr__(rev, "_reversed", self)
            object.__setattr__(self, "_reversed", rev)
        return self._reversed

    def __str__(self):
        return " < ".join(str(t) for t in self.sequence)


def lex_order(n: int) -> ReflectionOrder:
    """The order (12) < (13) < ... < (1n) < (23) < ... < (n-1 n).

    >>> str(lex_order(3))
    '(1 2) < (1 3) < (2 3)'
    """
    return ReflectionOrder(n, tuple(all_reflections(n)))


def order_from_reduced_word(n: int, word: Sequence[int]) -> ReflectionOrder:
    """Reflection order from a reduced word for the longest element of S_n.

    `word` lists 1-based adjacent-transposition indices i_1, ..., i_N with
    N = n(n-1)/2; the k-th reflection of the order is the prefix conjugate
    s_{i_1} ... s_{i_{k-1}} s_{i_k} s_{i_{k-1}} ... s_{i_1}.

    >>> [tuple(t) for t in order_from_reduced_word(3, [2, 1, 2]).sequence]
    [(2, 3), (1, 3), (1, 2)]
    """
    count = n * (n - 1) // 2
    if len(word) != count:
        raise ValueError(f"word must have length {count} for S_{n}")
    if not all(1 <= s <= n - 1 for s in word):
        raise ValueError("word letters must be adjacent-transposition indices 1..n-1")
    gens = [reflection_perm(Reflection(i, i + 1), n) for i in range(1, n)]
    prefix = identity(n)
    sequence = []
    for s in word:
        t_perm = compose(compose(prefix, gens[s - 1]), inverse(prefix))
        t = as_reflection(t_perm)
        if t is None or t in sequence:
            raise ValueError("word is not reduced")
        sequence.append(t)
        prefix = compose(prefix, gens[s - 1])
    if prefix != longest_element(n) or length(prefix) != count:
        raise ValueError("word does not evaluate to the longest element")
    return ReflectionOrder(n, tuple(sequence))


def dihedral_violation(order: ReflectionOrder) -> Optional[tuple[Reflection, ...]]:
    """First dihedral reflection subgroup on which `order` breaks, or None.

    For each pair of reflections the subgroup they generate is closed up by
    multiplication and its reflection set R' extracted.  The subgroup's two
    canonical generators a, b are the reflections no other element of R'
    shortens from the left; the restriction of the order to R' must be the
    alternating chain a, aba, ababa, ..., b or its reverse.  (In S_n every
    R' is a pair of disjoint transpositions, where the condition is empty,
    or the three transpositions of a triple i < j < k, where it pins
    (i k) to the middle.)  Returns R' sorted by the order for the first
    failing pair, scanning pairs lexicographically.
    """
    n = order.n
    perm_of = {t: reflection_perm(t, n) for t in order.sequence}
    refl_of_perm = {p: t for t, p in perm_of.items()}
    seen: set[frozenset[Reflection]] = set()
    for a, b in itertools.combinations(all_reflections(n), 2):
        subgroup = _close_subgroup(perm_of[a], perm_of[b])
        refls = frozenset(refl_of_perm[p] for p in subgroup if p in refl_of_perm)
        if refls in seen:
            continue
        seen.add(refls)
        canonical = [
            t
            for t in refls
            if not any(
                s != t
                and length(compose(perm_of[s], perm_of[t])) < length(perm_of[t])
                for s in refls
            )
        ]
        assert len(canonical) == 2, "dihedral subgroup must have two canonical generators"
        lo, hi = (perm_of[t] for t in sorted(canonical, key=order.rank))
        step = compose(lo, hi)
        expected = []
        acc = lo
        for _ in range(len(refls)):
            expected.append(refl_of_perm[acc])
            acc = compose(step, acc)
        # A valid restriction is the chain read from one canonical end; the
        # ascending sort then starts at the order-smaller canonical, which is
        # exactly how `expected` was built.
        restriction = sorted(refls, key=order.rank)
        if restriction != expected:
            return tuple(restriction)
    return None


def _close_subgroup(a: Perm, b: Perm) -> set[Perm]:
    """Elements of the subgroup generated by two permutations (BFS closure)."""
    elems = {a, b}
    frontier = [a, b]
    while frontier:
        nxt = []
        for x in frontier:
            for g in (a, b):
                y = compose(x, g)
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return elems
