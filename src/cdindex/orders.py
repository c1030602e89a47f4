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
from typing import Optional, Sequence

from .perms import Reflection, all_reflections


class Immutable:
    """Base of the package's slotted value classes.

    Each subclass lists its attributes in `__slots__` and sets them in
    `__init__` through `object.__setattr__`; after that, assigning or
    deleting an attribute raises AttributeError.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ReflectionOrder(Immutable):
    """A validated total order on the reflections of S_n.

    `sequence[k]` is the reflection of 1-based rank k+1; `rank()` is the
    inverse lookup.  Instances are immutable and safe to share; two are
    equal, and hash alike, when their (n, sequence) are.
    """

    __slots__ = ("n", "sequence", "_rank")
    n: int
    sequence: tuple[Reflection, ...]

    def __init__(self, n: int, sequence: tuple[Reflection, ...]):
        expected = set(all_reflections(n))
        if set(sequence) != expected or len(sequence) != len(expected):
            raise ValueError("sequence must list every reflection of S_n exactly once")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "sequence", sequence)
        object.__setattr__(self, "_rank", {t: k + 1 for k, t in enumerate(sequence)})
        witness = dihedral_violation(self)
        if witness is not None:
            raise ValueError(f"not a reflection order; violating subgroup {witness}")

    def __reduce__(self):
        return ReflectionOrder, (self.n, self.sequence)

    def __eq__(self, other):
        if type(other) is not ReflectionOrder:
            return NotImplemented
        return self.n == other.n and self.sequence == other.sequence

    def __hash__(self):
        return hash((self.n, self.sequence))

    def __repr__(self):
        return f"ReflectionOrder(n={self.n!r}, sequence={self.sequence!r})"

    def rank(self, t: Reflection) -> int:
        """1-based position of t in this order."""
        return self._rank[t]

    def reversed(self) -> "ReflectionOrder":
        """The reverse order, built and validated on each call."""
        return ReflectionOrder(self.n, tuple(reversed(self.sequence)))

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
    p s_{i_k} p^{-1}, with p = s_{i_1} ... s_{i_{k-1}}.  That is the
    transposition of the values of p at the positions i_k and i_k + 1.
    A word of length N whose N reflections are distinct is reduced
    (Bjorner-Brenti, Cor. 1.4.4), so it spells the longest element.

    >>> [tuple(t) for t in order_from_reduced_word(3, [2, 1, 2]).sequence]
    [(2, 3), (1, 3), (1, 2)]
    """
    count = n * (n - 1) // 2
    if len(word) != count:
        raise ValueError(f"word must have length {count} for S_{n}")
    if not all(1 <= s <= n - 1 for s in word):
        raise ValueError("word letters must be adjacent-transposition indices 1..n-1")
    prefix = list(range(1, n + 1))
    sequence = []
    for s in word:
        t = Reflection(*sorted(prefix[s - 1 : s + 1]))
        if t in sequence:
            raise ValueError("word is not reduced")
        sequence.append(t)
        prefix[s - 1], prefix[s] = prefix[s], prefix[s - 1]
    return ReflectionOrder(n, tuple(sequence))


def dihedral_violation(order: ReflectionOrder) -> Optional[tuple[Reflection, ...]]:
    """First dihedral reflection subgroup on which `order` breaks, or None.

    Two transpositions of S_n generate a dihedral reflection subgroup: two
    disjoint transpositions, where the condition is empty, or the three
    transpositions of a triple i < j < k, whose alternating chain pins
    (i k) to the middle.  Returns the first failing triple, in lex order of
    (i, j, k), sorted by the order.
    """
    for i, j, k in itertools.combinations(range(1, order.n + 1), 3):
        middle = Reflection(i, k)
        triple = sorted((Reflection(i, j), middle, Reflection(j, k)), key=order.rank)
        if triple[1] != middle:
            return tuple(triple)
    return None
