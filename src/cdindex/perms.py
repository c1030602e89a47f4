"""
Permutations of {1..n} in one-line notation, reflections (transpositions),
and the strong Bruhat order on the symmetric group.

A permutation is a plain tuple of values (p(1), ..., p(n)); the identity of
S_4 is (1, 2, 3, 4) and prints as "1234".  Multiplication is function
composition with the right factor applied first, (p*q)(k) = p(q(k)).  Under
this convention, multiplying on the right by the transposition (i j) swaps
the entries at *positions* i and j of the one-line notation:

>>> compose(parse_perm("2134"), reflection_perm(Reflection(3, 4), 4))
(2, 1, 4, 3)

Reflections of S_n are exactly the transpositions; an upward edge of the
Bruhat graph from x to y carries the label t = x^{-1} y.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple, Optional, Sequence

Perm = tuple[int, ...]


class Reflection(NamedTuple):
    """Transposition swapping i and j, with 1 <= i < j <= n.

    Tuple comparison gives the lexicographic order on pairs (i, j), which is
    the default total order used to number reflections.
    """

    i: int
    j: int

    def __str__(self):
        return f"({self.i} {self.j})"


def parse_perm(text: str) -> Perm:
    """Parse one-line notation like "2134" into a permutation tuple.

    Only single-digit values are accepted, which restricts parsing to n <= 9.

    >>> parse_perm("2134")
    (2, 1, 3, 4)
    """
    if not text.isdigit():
        raise ValueError(f"not a one-line permutation string: {text!r}")
    image = tuple(int(ch) for ch in text)
    check_perm(image)
    return image


def format_perm(p: Perm) -> str:
    """One-line string form, inverse of parse_perm for n <= 9."""
    if len(p) > 9:
        raise ValueError("one-line digit notation only supports n <= 9")
    return "".join(str(v) for v in p)


def check_perm(p: Sequence[int]) -> None:
    """Raise ValueError unless p is a bijection of {1..n}."""
    n = len(p)
    if n < 1 or sorted(p) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n}: {p!r}")


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    """The order-reversing permutation, the unique longest element of S_n."""
    return tuple(range(n, 0, -1))


def compose(p: Perm, q: Perm) -> Perm:
    """Product p*q, applying q first: (p*q)(k) = p(q(k)).

    >>> compose((2, 1, 3, 4), (2, 1, 3, 4))
    (1, 2, 3, 4)
    """
    if len(p) != len(q):
        raise ValueError(f"rank mismatch: {len(p)} vs {len(q)}")
    return tuple(p[v - 1] for v in q)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for k, v in enumerate(p):
        inv[v - 1] = k + 1
    return tuple(inv)


@functools.cache
def length(p: Perm) -> int:
    """Coxeter length = number of inversion pairs i < j with p(i) > p(j).

    >>> [length((1, 2, 3, 4)), length((2, 1, 3, 4)), length((4, 3, 2, 1))]
    [0, 1, 6]
    """
    n = len(p)
    return sum(1 for a in range(n) for b in range(a + 1, n) if p[a] > p[b])


def reflection_perm(t: Reflection, n: int) -> Perm:
    """The reflection t as an element of S_n."""
    if not 1 <= t.i < t.j <= n:
        raise ValueError(f"reflection {t} does not live in S_{n}")
    image = list(range(1, n + 1))
    image[t.i - 1], image[t.j - 1] = image[t.j - 1], image[t.i - 1]
    return tuple(image)


def as_reflection(p: Perm) -> Optional[Reflection]:
    """Return the Reflection equal to p, or None if p is not a transposition."""
    moved = [k for k, v in enumerate(p) if v != k + 1]
    if len(moved) != 2:
        return None
    a, b = moved
    if p[a] == b + 1 and p[b] == a + 1:
        return Reflection(a + 1, b + 1)
    return None


def all_reflections(n: int) -> list[Reflection]:
    """All n(n-1)/2 transpositions of S_n, in lexicographic (i, j) order.

    >>> all_reflections(3)
    [Reflection(i=1, j=2), Reflection(i=1, j=3), Reflection(i=2, j=3)]
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return [Reflection(i, j) for i, j in itertools.combinations(range(1, n + 1), 2)]


def bruhat_leq(u: Perm, v: Perm) -> bool:
    """Strong Bruhat order comparison u <= v.

    Uses the tableau criterion: for every k, the increasing rearrangement of
    the first k values of v must dominate that of u entrywise.  This is
    O(n^2 log n) per query; tests cross-validate it against the transitive
    closure of the edge relation.

    >>> bruhat_leq((2, 1, 3, 4), (4, 3, 2, 1))
    True
    >>> bruhat_leq((2, 1, 3, 4), (1, 3, 2, 4))
    False
    """
    if len(u) != len(v):
        raise ValueError(f"rank mismatch: {len(u)} vs {len(v)}")
    for k in range(1, len(u)):
        for a, b in zip(sorted(u[:k]), sorted(v[:k])):
            if a > b:
                return False
    return True


def edge_reflection(x: Perm, y: Perm) -> Optional[Reflection]:
    """Label of the Bruhat-graph edge from x to y, or None if there is none.

    There is an edge exactly when l(x) < l(y) and x^{-1} y is a reflection;
    the label is that reflection t, so that y = x*t.

    >>> edge_reflection((2, 1, 3, 4), (2, 1, 4, 3))
    Reflection(i=3, j=4)
    >>> edge_reflection((2, 1, 3, 4), (1, 2, 3, 4)) is None
    True
    """
    if len(x) != len(y):
        raise ValueError(f"rank mismatch: {len(x)} vs {len(y)}")
    if length(x) >= length(y):
        return None
    return as_reflection(compose(inverse(x), y))
