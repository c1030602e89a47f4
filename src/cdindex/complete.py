"""
The complete cd-index of a Bruhat interval and its restricted variants.

Summing the ascent-descent words of all paths from u to v gives one
AD-polynomial per path length; each is a polynomial in c and d, and the
graded family of those cd-polynomials is the complete cd-index of [u, v].
It is independent of the reflection order used to read the words, which
this package treats as a tested invariant rather than an assumption.

Restricting the sum to paths whose first reflection is at most t yields a
polynomial of the form f + A*g with f, g in c, d; the pair (f, g) per
degree is the shelling decomposition at t.

`flag_cd_index` is an independent oracle: it computes the classical
cd-index of [u, v] as a graded poset from chain counts (flag f-vector ->
flag h-vector -> ab-index -> cd-form), touching none of the path machinery.
The top-degree part of the complete cd-index must agree with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .intervals import BruhatInterval, ad_word, iter_paths
from .ncpoly import (
    ADPolynomial,
    CDPolynomial,
    ad_to_cd,
    cd_degree,
    decompose_left_a,
)
from .orders import ReflectionOrder, lex_order
from .perms import Perm, Reflection, bruhat_leq, format_perm, length


def degree_range(iv: BruhatInterval) -> list[int]:
    """Path lengths supporting nonzero terms: L-1, L-3, ..., down to >= 0.

    Every Bruhat-graph edge raises length by an odd amount, so a length-n
    path spends n+1 edges covering a length gap of L = l(v) - l(u) with
    n + 1 <= L and n + 1 = L (mod 2).
    """
    L = iv.length_diff
    return list(range(L - 1, -1, -2))


def ad_polynomials(
    iv: BruhatInterval, order: ReflectionOrder
) -> dict[int, ADPolynomial]:
    """Sum of ascent-descent words over all paths u -> v, graded by length."""
    out: dict[int, ADPolynomial] = {}
    for n in degree_range(iv):
        acc: dict[str, int] = {}
        for path in iter_paths(iv.adjacency, iv.u, iv.v, n):
            w = ad_word(path, order)
            acc[w] = acc.get(w, 0) + 1
        out[n] = ADPolynomial(acc)
    return out


@dataclass(frozen=True)
class CompleteCdIndex:
    """Graded cd-polynomial family of one interval."""

    u: Perm
    v: Perm
    by_degree: dict[int, CDPolynomial] = field(compare=False)

    def coefficient(self, monomial: str) -> int:
        part = self.by_degree.get(cd_degree(monomial))
        return part.coefficient(monomial) if part is not None else 0

    def top_degree_part(self) -> CDPolynomial:
        if not self.by_degree:
            return CDPolynomial()
        return self.by_degree[max(self.by_degree)]

    def to_json(self) -> dict:
        return {
            "u": format_perm(self.u),
            "v": format_perm(self.v),
            "cd_index": {
                str(n): part.to_json() for n, part in sorted(self.by_degree.items())
            },
        }


def complete_cd_index(
    iv: BruhatInterval, order: ReflectionOrder | None = None
) -> CompleteCdIndex:
    """Complete cd-index of [u, v], read under `order` (default: lex).

    Any valid reflection order gives the same result; tests and the CLI's
    --all-orders flag recompute under the reversed and a reduced-word order
    and insist on exact agreement.
    """
    if order is None:
        order = lex_order(len(iv.u))
    parts = {
        n: ad_to_cd(p) for n, p in ad_polynomials(iv, order).items() if p
    }
    return CompleteCdIndex(iv.u, iv.v, parts)


def restricted_ad_polynomial(
    iv: BruhatInterval, n: int, t: Reflection, order: ReflectionOrder
) -> ADPolynomial:
    """Sum of words over length-n paths whose first reflection is <= t."""
    bound = order.rank(t)
    acc: dict[str, int] = {}
    for path in iter_paths(iv.adjacency, iv.u, iv.v, n):
        if order.rank(path.labels[0]) <= bound:
            w = ad_word(path, order)
            acc[w] = acc.get(w, 0) + 1
    return ADPolynomial(acc)


@dataclass(frozen=True)
class ShellingDecomposition:
    """Per-degree split f + A*g of the first-reflection-restricted word sum."""

    t: Reflection
    by_degree: dict[int, tuple[CDPolynomial, CDPolynomial]] = field(compare=False)

    def is_nonnegative(self) -> bool:
        """Whether every g-part has only non-negative coefficients."""
        return all(
            c >= 0 for _, g in self.by_degree.values() for _, c in g.items()
        )


def shelling_decomposition(
    iv: BruhatInterval, t: Reflection, order: ReflectionOrder
) -> ShellingDecomposition:
    """Decompose the restricted word sum as f_n + A*g_{n-1} in every degree.

    Existence of the split is guaranteed for these restricted sums; failure
    raises NotDecomposableError and means a bug, not bad input.
    """
    parts = {}
    for n in degree_range(iv):
        p = restricted_ad_polynomial(iv, n, t, order)
        parts[n] = decompose_left_a(p, n)
    return ShellingDecomposition(t, parts)


def flag_cd_index(iv: BruhatInterval) -> CDPolynomial:
    """Classical cd-index of the interval poset, from chain counts.

    For every subset S of the proper ranks 1..L-1, f_S counts the chains
    u < z_1 < ... < z_k < v whose lengths-above-u hit exactly S; the flag
    h-vector is its inclusion-exclusion transform, and reading each h_S as
    an ab-word (b on S, a elsewhere, encoded here as D and A) gives the
    ab-index, which is a cd-polynomial precisely because Bruhat intervals
    are Eulerian.  Conversion failure would disprove Eulerian-ness, i.e.
    flag a bug.
    """
    L = iv.length_diff
    if L < 1:
        raise ValueError("flag cd-index needs a nontrivial interval")
    base = length(iv.u)
    by_rank: dict[int, list[Perm]] = {}
    for x in iv.elements:
        by_rank.setdefault(length(x) - base, []).append(x)
    for level in by_rank.values():
        level.sort()
    ranks = range(1, L)
    f_vec: dict[tuple[int, ...], int] = {}
    for size in range(L):
        for subset in itertools.combinations(ranks, size):
            f_vec[subset] = _chain_count(by_rank, subset)
    ab: dict[str, int] = {}
    for subset in f_vec:
        h = 0
        for size in range(len(subset) + 1):
            for inner in itertools.combinations(subset, size):
                h += (-1) ** (len(subset) - len(inner)) * f_vec[inner]
        if h:
            word = "".join("D" if r in subset else "A" for r in ranks)
            ab[word] = h
    return ad_to_cd(ADPolynomial(ab))


def _chain_count(by_rank: dict[int, list[Perm]], subset: tuple[int, ...]) -> int:
    """Number of chains through the given ranks, one element per rank."""
    acc: dict[Perm, int] | None = None
    for r in subset:
        nxt: dict[Perm, int] = {}
        for z in by_rank.get(r, []):
            if acc is None:
                nxt[z] = 1
            else:
                nxt[z] = sum(c for y, c in acc.items() if bruhat_leq(y, z))
        acc = nxt
    if acc is None:
        return 1
    return sum(acc.values())
