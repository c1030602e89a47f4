"""
Cross-checks between the path-counting and coefficient computations.

For every interval and monomial the four numbers |T_M|, |T-bar_M|, the
coefficient of M in the complete cd-index, and the signed contribution sum
must coincide whenever the flip condition holds; `verify_coefficient`
reports disagreement rather than raising, so sweeps can finish and surface
every inconsistency at once.  The first three are computed independently.
The fourth is not: where the flip DP finds no -1 factor, the contribution
sum is |T_M| by the DP's licence, and only where it finds one are the
signed products of the paths summed.

`check_restricted_counts` does the analogous comparison after restricting
to paths with first reflection <= t: |T-bar_M restricted| against the
coefficient of M in f_n, and |T_M restricted| against the coefficient in
f_n + c*g_{n-1}, with (f_n, g_{n-1}) from the shelling decomposition, at
every t in one call.  Both restricted sizes are read off the table's
cumulative first-label counts, so one walk over the ranks r = 1..N meets
each split step in turn.  A report is built only for the first t where a
count fails.

Every check takes the source u and reads the sink from its `TSetTable`.
`scan_interval` bundles everything into one JSON-ready record per interval.
Its graded first-label sums come from the sink table's sums DP and its
length gaps.  The cd-index and every shelling split are functions of
those sums alone, so they are computed once per class of intervals with
equal sums and kept in a bounded memo.  Where the flip DP finds no -1,
every verdict of a monomial is a function of that class and of u's
cumulative counts of T and T-bar, so a clean record's body is kept with
its class, by those counts, and every check runs once per cause: on the
first interval of each, and on every interval the memo does not admit
(a -1, an undefined flip, an unclean record, a large gap).  The
contribution sums and flip conditions come from the table's flip DP.  A
depth-first walk (`iter_paths` over the table's out-edges) runs only on a
violation or an undefined flip, lazily, to name the witness.  So a scan
builds no interval, and on clean intervals enumerates no paths; |T_M|,
|T-bar_M| and the restricted counts are read off the table's cumulative
first-label counts, and only the strong flip condition builds the T-sets
as paths, on the intervals that run every check.  A scan's sink job
fills those counts and the flip DP's -1 flags bottom up, one level pass
over the cone up to its largest gap (`TSetTable.fill_levels`), before
the first record.  The pass declines where a flip it reads is undefined
or shows a -1, and then every check reads the demand-driven route, so
witnesses and FlipUndefinedError messages keep their text; the checks
read the table the same way either way.
`iter_intervals` reads every pair off the down-closures in the group's one
Bruhat graph, which the tables share.  The CLI streams the records to
JSON-lines.
"""

from __future__ import annotations

import json
import time
from functools import lru_cache
from typing import Iterator, NamedTuple, Optional

from .complete import (
    CompleteCdIndex,
    GradedSums,
    ShellingSplits,
    complete_cd_index,
    shelling_decomposition,
)
from .errors import FlipUndefinedError
from .flips import (
    FlipWitness,
    TSetTable,
    check_flip_condition,
    check_strong_flip_condition,
    sum_contributions,
)
from .intervals import bruhat_graph
from .ncpoly import _MEMO_SIZE, CDPolynomial, ad_form, cd_degree, cd_monomials
from .perms import Perm, Reflection, format_perm


class CoefficientReport(NamedTuple):
    """The four values compared for one (interval, monomial)."""

    u: Perm
    v: Perm
    monomial: str
    t_size: Optional[int]
    tbar_size: Optional[int]
    coefficient: int
    contribution_sum: Optional[int]
    flip_undefined: bool = False
    detail: str = ""  # the undefined flip's message, with flip_undefined

    @property
    def consistent(self) -> bool:
        return (
            not self.flip_undefined
            and self.t_size == self.tbar_size == self.coefficient == self.contribution_sum
        )


def verify_coefficient(
    u: Perm,
    monomial: str,
    table: TSetTable,
    cd_index: CompleteCdIndex,
) -> CoefficientReport:
    """Compare |T_M|, |T-bar_M|, the cd-index coefficient and the signed sum,
    which is |T_M| itself wherever the flip DP finds no -1 factor.

    An undefined flip met on the way is reported, not raised: the values
    not read by then are None, `flip_undefined` is set and `detail` holds
    its message.  So the sizes are None when counting T or T-bar met one."""
    gamma = ad_form(monomial)
    t_size = tbar_size = contribution = None
    detail = ""
    try:
        t_size = table.counts(u, gamma)[-1]
        tbar_size = table.counts(u, gamma, bar=True)[-1]
        contribution = sum_contributions(u, monomial, table)
    except FlipUndefinedError as exc:
        detail = str(exc)
    return CoefficientReport(
        u,
        table.sink,
        monomial,
        t_size,
        tbar_size,
        cd_index.coefficient(monomial),
        contribution,
        bool(detail),
        detail,
    )


class RestrictedCountReport(NamedTuple):
    """Restricted T-set sizes against shelling-decomposition coefficients."""

    u: Perm
    v: Perm
    monomial: str
    t: Reflection
    t_restricted: int
    tbar_restricted: int
    coeff_f: int
    coeff_f_plus_cg: int


def check_restricted_counts(
    u: Perm,
    monomial: str,
    table: TSetTable,
    splits: ShellingSplits,
) -> Optional[RestrictedCountReport]:
    """Counts of first-reflection-restricted T-sets vs f and f + c*g, at every t.

    Returns the report of the first t, in the table's order, where a count
    disagrees, or None when all agree.  The bound is read in the primal
    order for both T and T-bar, matching the single definition of the
    restricted path set.

    At the bound r, T holds p[r] such paths, for p the table's counts of
    T.  T-bar's counts q are in the reversed order's ranks, where the
    bound reads N + 1 - r, so T-bar holds q[N] - q[N - r].  The split's
    coefficients change only at its steps, each read once, in turn, and
    each rank compares the two counts with them, building no tuple.
    """
    gamma = ad_form(monomial)
    p = table.counts(u, gamma)
    q = table.counts(u, gamma, bar=True)
    top = len(p) - 1
    steps = iter(splits.get(cd_degree(monomial), []))
    step = next(steps, None)
    coeff_f = coeff_f_plus_cg = 0
    for r in range(1, top + 1):
        if step is not None and step[0] == r:
            f, g = step[1]
            step = next(steps, None)
            coeff_f = f.coefficient(monomial)
            coeff_f_plus_cg = coeff_f
            if monomial.startswith("c"):
                coeff_f_plus_cg += g.coefficient(monomial[1:])
        t_restricted, tbar_restricted = p[r], q[top] - q[top - r]
        if t_restricted != coeff_f_plus_cg or tbar_restricted != coeff_f:
            return RestrictedCountReport(
                u, table.sink, monomial, table.order.sequence[r - 1],
                t_restricted, tbar_restricted, coeff_f, coeff_f_plus_cg,
            )
    return None


def iter_intervals(n: int, max_length: int | None = None) -> Iterator[tuple[Perm, Perm]]:
    """All proper Bruhat intervals of S_n, sorted by (length gap, u, v).

    Each sink's sources are its down-closure in the group's Bruhat graph,
    cut at `max_length`.
    """
    graph = bruhat_graph(n)
    lengths = graph.lengths
    pairs = [
        (lengths[v] - lengths[u], u, v)
        for v in graph.interval.elements
        for u in graph.cone(v, max_length)
        if u != v
    ]
    pairs.sort()
    for _, u, v in pairs:
        yield u, v


# What elapsed_ms, u and v, the fields of a record that vary with the
# interval, hold while its body is encoded: encoded "\u0000", which a
# body's text holds nowhere else.
_SLOT = "\0"

# The memos admit only intervals of length gap at most this.  Small
# intervals often share graded sums, and their classes are small; large
# ones seldom do, and each of their classes holds many monomials, splits
# and a long body: on scan --n 5, 1,916 of the 2,096 intervals of gap <= 3
# repeat an earlier interval's sums, and 12 of the 145 of gap >= 7; on the
# S_6 sink w0 a class takes about 14 KiB at gap 5, 49 KiB at gap 7 and
# 590 KiB at gap 10.
_MEMO_GAP = 5


class ScanRecord(dict):
    """A JSON-ready scan record, to be read only.  `pieces` holds the
    encoded text of its body, every field but elapsed_ms, u and v, split
    at a slot for each of those: encoded once per kept body."""

    pieces: tuple[str, ...] = ()

    def line(self) -> bytes:
        """`json.dumps(self, sort_keys=True)` as bytes, byte for byte: the
        body's text with the per-interval fields written into its slots,
        elapsed_ms a finite float, which json writes as its repr, and u and
        v strings of digits, which json writes quoted."""
        head, after_elapsed, after_u, tail = self.pieces
        return f'{head}{self["elapsed_ms"]!r}{after_elapsed}"{self["u"]}"{after_u}"{self["v"]}"{tail}'.encode()


class CdSide(NamedTuple):
    """What the graded first-label sums of an interval alone determine, and
    the clean record bodies of the class's intervals, by their cause."""

    parts: dict[int, CDPolynomial]  # the complete cd-index, by degree
    splits: ShellingSplits
    parts_json: dict[str, dict[str, int]]  # `CompleteCdIndex.parts_json` of the parts
    # (order id, length gap, count profile) -> (record body, its `ScanRecord.pieces`)
    records: dict[tuple, tuple[dict, tuple[str, ...]]]


# The cd side of an interval is a function of its graded sums, and a scan
# meets few distinct ones (scan-s5-gap3: 180 among 2,096 intervals;
# `scan --n 6 --max-length 3`: 590 among 27,915), so `scan_interval` keeps
# the recent ones, by the value of the sums, as ncpoly keeps its
# conversions, and with each the record bodies of its class.  A raised
# NotInSubringError or NotDecomposableError is not kept.  Every interval
# of a class shares the kept parts and JSON form.
@lru_cache(maxsize=_MEMO_SIZE)
def _cd_side(key: tuple) -> CdSide:
    """The cd side of the graded sums {n: dict(buckets) for n, buckets in
    key}, for key ((n, ((r, ADPolynomial), ...)), ...)."""
    sums: GradedSums = {n: dict(buckets) for n, buckets in key}
    index = complete_cd_index((), (), sums)  # the parts alone: each caller names its interval
    return CdSide(index.by_degree, shelling_decomposition(sums, index), index.parts_json(), {})


def _count_profile(u: Perm, sums: GradedSums, table: TSetTable) -> Optional[tuple]:
    """The counts of T and of T-bar at u of every monomial of the degrees
    of `sums`, in the order `scan_interval` checks them; None where the
    flip DP finds a -1 or meets an undefined flip."""
    profile = []
    try:
        for gamma in [ad_form(monomial) for n in sums for monomial in cd_monomials(n)]:
            if table.has_minus_one(u, gamma):
                return None
            profile += (table.counts(u, gamma), table.counts(u, gamma, bar=True))
    except FlipUndefinedError:
        return None
    return tuple(profile)


def scan_interval(u: Perm, order_id: str, table: TSetTable) -> ScanRecord:
    """One JSON-ready scan record for the interval [u, v], v the table's
    sink, under the table's order, which `order_id` names in the record.

    The table's sums DP gives the graded first-label sums and its gap map
    the length gap.  The cd-index, its shelling splits and their JSON form
    are computed once per class of intervals with equal graded sums (the
    `_cd_side` memo).  Where the flip DP finds no -1 and no undefined flip
    at u, every verdict below is a function of that class and of u's
    counts of T and T-bar, the count profile: the coefficient and the
    restricted counts read the class, the sizes, the contribution sum
    (|T|) and the strong condition (p[r] >= q[r] at every rank r) the
    counts.  So a clean record's body is kept with its class, by
    (order id, length gap, count profile), and an interval with a kept
    body takes it, with u, v and elapsed_ms its own.  Intervals of gap
    above `_MEMO_GAP` are kept by neither memo.  The record's body, its
    `cd_index` and `monomials`, may be shared: read them only.

    Every other interval runs every check: for every monomial of matching
    parity, the coefficient verification, the flip condition, the strong
    flip condition (monomials starting with c), and the restricted-count
    check at every reflection t.  Where counting T or T-bar meets an
    undefined flip, the monomial is inconsistent, its restricted counts
    too, and a size-mismatch witness names the flip.  All numeric fields
    are deterministic; elapsed_ms is informational only.
    """
    started = time.perf_counter()
    gap = table.gaps[u]
    sums = table.graded_sums(u)
    key = tuple((n, tuple(buckets.items())) for n, buckets in sums.items())
    memo = gap <= _MEMO_GAP
    side = (_cd_side if memo else _cd_side.__wrapped__)(key)
    profile = _count_profile(u, sums, table) if memo else None
    kept = side.records.get((order_id, gap, profile))
    if kept is None:
        body = _check_interval(u, order_id, table, side, sums)
        text = json.dumps(dict(body, elapsed_ms=_SLOT, u=_SLOT, v=_SLOT), sort_keys=True)
        kept = (body, tuple(text.split(json.dumps(_SLOT))))
        if profile is not None and body["clean"]:
            side.records[order_id, gap, profile] = kept
    record = ScanRecord(u=format_perm(u), v=format_perm(table.sink), **kept[0])
    record.pieces = kept[1]
    record["elapsed_ms"] = round((time.perf_counter() - started) * 1000, 3)
    return record


def _check_interval(
    u: Perm, order_id: str, table: TSetTable, side: CdSide, sums: GradedSums
) -> dict:
    """The record body of [u, table.sink]: every field of its scan record
    but u, v and elapsed_ms, from every check run on the interval."""
    v, order = table.sink, table.order
    cd_index = CompleteCdIndex(u, v, side.parts)
    monomial_results = {}
    witnesses: list[FlipWitness] = []
    consistent = True
    for n in sums:
        for monomial in cd_monomials(n):
            report = verify_coefficient(u, monomial, table, cd_index)
            flip_witness = check_flip_condition(u, monomial, table)
            if flip_witness is not None:
                witnesses.append(flip_witness)
            strong: Optional[FlipWitness] = None
            strong_status = "n/a"
            if monomial.startswith("c"):
                strong = check_strong_flip_condition(u, monomial, table)
                strong_status = "holds" if strong is None else "violated"
                if strong is not None:
                    witnesses.append(strong)
            if report.tbar_size is None:  # counting T or T-bar met an undefined flip
                restricted_ok = False
                undefined = FlipWitness(kind="size-mismatch", monomial=monomial, detail=report.detail)
                if undefined not in witnesses:  # the flip condition's walk may have met it
                    witnesses.append(undefined)
            else:
                restricted_ok = check_restricted_counts(u, monomial, table, side.splits) is None
            entry = {
                "degree": n,
                "coefficient": report.coefficient,
                "t_size": report.t_size,
                "tbar_size": report.tbar_size,
                "contribution_sum": report.contribution_sum,
                "consistent": report.consistent,
                "flip_condition": "holds" if flip_witness is None else "violated",
                "strong_flip_condition": strong_status,
                "restricted_counts_consistent": restricted_ok,
            }
            monomial_results[monomial or "1"] = entry
            consistent = consistent and report.consistent and restricted_ok
            consistent = consistent and flip_witness is None and strong is None
    interval = [format_perm(u), format_perm(v)]
    witness_json = [dict(w.to_json(order), interval=interval) for w in witnesses]
    return dict(
        length_diff=table.gaps[u], order=order_id, cd_index=side.parts_json,
        monomials=monomial_results, witnesses=witness_json, clean=consistent,
    )
