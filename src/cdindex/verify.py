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
Its graded first-label sums, and with them the cd-index and every shelling
split, come from the sink table's sums DP and its length gaps; the
contribution sums and flip conditions come from the table's flip DP.  A
depth-first walk (`iter_paths` over the table's out-edges) runs only on a
violation or an undefined flip, lazily, to name the witness.  So a scan
builds no interval, and on clean intervals enumerates no paths; |T_M|,
|T-bar_M| and the restricted counts are read off the table's cumulative
first-label counts, and only the strong flip condition builds the T-sets
as paths.
`iter_intervals` reads every pair off the down-closures in the group's one
Bruhat graph, which the tables share.  The CLI streams the records to
JSON-lines.
"""

from __future__ import annotations

import time
from typing import Iterator, NamedTuple, Optional

from .complete import (
    CompleteCdIndex,
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
from .ncpoly import ad_form, cd_degree, cd_monomials
from .perms import Perm, Reflection, format_perm


class CoefficientReport(NamedTuple):
    """The four values compared for one (interval, monomial)."""

    u: Perm
    v: Perm
    monomial: str
    t_size: int
    tbar_size: int
    coefficient: int
    contribution_sum: Optional[int]
    flip_undefined: bool = False

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
    which is |T_M| itself wherever the flip DP finds no -1 factor."""
    gamma = ad_form(monomial)
    t_size = table.counts(u, gamma)[-1]
    tbar_size = table.counts(u, gamma, bar=True)[-1]
    try:
        contribution = sum_contributions(u, monomial, table)
        undefined = False
    except FlipUndefinedError:
        contribution = None
        undefined = True
    return CoefficientReport(
        u,
        table.sink,
        monomial,
        t_size,
        tbar_size,
        cd_index.coefficient(monomial),
        contribution,
        undefined,
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
    coefficients change only at its steps, each read once, in turn.
    """
    gamma = ad_form(monomial)
    order = table.order
    p = table.counts(u, gamma)
    q = table.counts(u, gamma, bar=True)
    top = len(p) - 1
    steps = splits.get(cd_degree(monomial), [])
    k = 0
    coeffs = (0, 0)
    for r in range(1, top + 1):
        if k < len(steps) and steps[k][0] == r:
            f, g = steps[k][1]
            k += 1
            coeff_f = f.coefficient(monomial)
            coeff_cg = g.coefficient(monomial[1:]) if monomial.startswith("c") else 0
            coeffs = (coeff_f, coeff_f + coeff_cg)
        t_restricted = p[r]
        tbar_restricted = q[top] - q[top - r]
        if (tbar_restricted, t_restricted) != coeffs:
            t = order.sequence[r - 1]
            return RestrictedCountReport(
                u, table.sink, monomial, t, t_restricted, tbar_restricted, *coeffs
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


def scan_interval(u: Perm, order_id: str, table: TSetTable) -> dict:
    """One JSON-ready scan record for the interval [u, v], v the table's
    sink, under the table's order, which `order_id` names in the record.

    The table's sums DP gives the graded first-label sums and its gap map
    the length gap.  Runs, for every monomial of matching parity: the
    coefficient verification, the flip condition, the strong flip
    condition (monomials starting with c), and the restricted-count check
    at every reflection t.  All numeric fields are deterministic;
    elapsed_ms is informational only.
    """
    started = time.perf_counter()
    v, order = table.sink, table.order
    length_diff = table.gaps[u]
    sums = table.graded_sums(u)
    cd_index = complete_cd_index(u, v, sums)
    splits = shelling_decomposition(sums, cd_index)
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
            restricted_ok = check_restricted_counts(u, monomial, table, splits) is None
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
    witness_json = []
    for w in witnesses:
        entry = w.to_json(order)
        entry["interval"] = [format_perm(u), format_perm(v)]
        witness_json.append(entry)
    record = {
        "u": format_perm(u),
        "v": format_perm(v),
        "length_diff": length_diff,
        "order": order_id,
        "cd_index": cd_index.parts_json(),
        "monomials": monomial_results,
        "witnesses": witness_json,
        "clean": consistent,
        "elapsed_ms": round((time.perf_counter() - started) * 1000, 3),
    }
    return record
