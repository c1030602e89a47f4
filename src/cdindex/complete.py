"""
The complete cd-index of a Bruhat interval and its restricted variants.

Summing the ascent-descent words of all paths from u to v gives one
AD-polynomial per path length; each is a polynomial in c and d, and the
graded family of those cd-polynomials is the complete cd-index of [u, v].
It is independent of the reflection order used to read the words, which
this package treats as a tested invariant rather than an assumption.

Restricting the sum to paths whose first reflection is at most t yields a
polynomial of the form f + A*g with f, g in c, d; the pair (f, g) per
degree is the shelling decomposition at t.  The restricted path set grows
only at a rank some path starts with, so `shelling_decomposition` keeps
one split per degree and populated rank, {n: [(r, (f, g)), ...]}: the
split at t is that of the last step at a rank <= rank(t), and (0, 0)
below the first.  From the top populated rank on the restricted sum is
the full sum, so the split there is the cd-index part and 0, read off the
index rather than decomposed again.

Every reader here takes the graded first-label sums {n: {r: word sum}},
which bucket the length-n paths u -> v by the rank r of their first label;
the full sum adds every bucket, the restricted sum at t those up to rank(t).
The sink's `TSetTable` fills them (`graded_sums(u)`) by a DP over the
upper neighbours of each vertex, with no path enumerated; `compute` and
`scan` both read them there.  `compute` runs both readers on its one
interval.  A scan runs them once per class of intervals with equal graded
sums, on the first interval of the class it meets: `scan_interval` keeps
the parts and splits in a bounded memo keyed by the sums' value.
"""

from __future__ import annotations

from typing import NamedTuple

from .ncpoly import (
    ADPolynomial,
    CDPolynomial,
    ad_to_cd,
    cd_degree,
    decompose_left_a,
)
from .perms import Perm, format_perm

# {path length n: {rank r: AD-word sum of the length-n paths whose first label has rank r}}
GradedSums = dict[int, dict[int, ADPolynomial]]
# (f, g) with f + A*g a restricted word sum, f of degree n and g of degree n - 1
Split = tuple[CDPolynomial, CDPolynomial]
# {path length n: [(populated first-label rank r, split of the sum over ranks <= r)]}
ShellingSplits = dict[int, list[tuple[int, Split]]]


def degree_range(length_diff: int) -> list[int]:
    """Path lengths supporting nonzero terms: L-1, L-3, ..., down to >= 0.

    Every Bruhat-graph edge raises length by an odd amount, so a length-n
    path spends n+1 edges covering a length gap of L = l(v) - l(u) with
    n + 1 <= L and n + 1 = L (mod 2).
    """
    return list(range(length_diff - 1, -1, -2))


def ad_polynomials(sums: GradedSums) -> dict[int, ADPolynomial]:
    """Sum of ascent-descent words over all paths u -> v, graded by length."""
    return {n: sum(buckets.values(), ADPolynomial()) for n, buckets in sums.items()}


class CompleteCdIndex(NamedTuple):
    """Graded cd-polynomial family of one interval.

    Equality compares the polynomials too; the hash reads (u, v) alone,
    since the dict of polynomials is not hashable.
    """

    u: Perm
    v: Perm
    by_degree: dict[int, CDPolynomial]

    def __hash__(self):
        return hash((self.u, self.v))

    def coefficient(self, monomial: str) -> int:
        part = self.by_degree.get(cd_degree(monomial))
        return part.coefficient(monomial) if part is not None else 0

    def parts_json(self) -> dict[str, dict[str, int]]:
        """The graded parts, keyed by the degree as a string."""
        return {str(n): part.to_json() for n, part in sorted(self.by_degree.items())}

    def to_json(self) -> dict:
        return {"u": format_perm(self.u), "v": format_perm(self.v), "cd_index": self.parts_json()}


def complete_cd_index(u: Perm, v: Perm, sums: GradedSums) -> CompleteCdIndex:
    """Complete cd-index of [u, v] from its graded first-label sums.

    Any valid reflection order gives the same result; tests and the CLI's
    --all-orders flag recompute under the reversed and a reduced-word order
    and insist on exact agreement.
    """
    parts = {n: ad_to_cd(p) for n, p in ad_polynomials(sums).items() if p}
    return CompleteCdIndex(u, v, parts)


def restricted_ad_polynomial(buckets: dict[int, ADPolynomial], bound: int) -> ADPolynomial:
    """Sum of one degree's first-label sums over the first-label ranks <= bound."""
    return sum((p for r, p in buckets.items() if r <= bound), ADPolynomial())


def shelling_decomposition(sums: GradedSums, index: CompleteCdIndex) -> ShellingSplits:
    """Split the restricted word sum as f_n + A*g_{n-1}, at every populated rank.

    `sums` are graded first-label sums and `index` the complete cd-index
    `complete_cd_index` made of them.  The result holds, per degree, one
    step (r, (f, g)) at each rank r some path starts with, in ascending r;
    each split holds up to the next step.  At a degree's top populated
    rank the restricted sum is the full sum, so the split is (index part,
    0): converting that sum already checked that it lies in the cd
    subring.  Below it, existence of the split is guaranteed for
    these restricted sums; failure raises NotDecomposableError and means a
    bug, not bad input.
    """
    splits: ShellingSplits = {}
    for n, buckets in sums.items():
        ranks = sorted(buckets)
        steps = [
            (r, decompose_left_a(restricted_ad_polynomial(buckets, r), n)) for r in ranks[:-1]
        ]
        if ranks:
            steps.append((ranks[-1], (index.by_degree[n], CDPolynomial())))
        splits[n] = steps
    return splits

