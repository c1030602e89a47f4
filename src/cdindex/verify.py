"""
Cross-checks between the path-counting and coefficient computations.

For every interval and monomial the four numbers |T_M|, |T-bar_M|, the
coefficient of M in the complete cd-index, and the signed contribution sum
must coincide whenever the flip condition holds; `verify_coefficient`
computes all four independently and reports disagreement rather than
raising, so sweeps can finish and surface every inconsistency at once.

`check_restricted_counts` does the analogous comparison after restricting
to paths with first reflection <= t: |T-bar_M restricted| against the
coefficient of M in f_n, and |T_M restricted| against the coefficient in
f_n + c*g_{n-1}, with (f_n, g_{n-1}) from the shelling decomposition, at
every t in one call: each restricted count bisects the sorted first-label
ranks of T_M or T-bar_M, read once.

Every check takes the source u and reads the sink from its `TSetTable`.
`scan_interval` bundles everything into one JSON-ready record per interval;
its path sums, and with them the cd-index and every shelling split, come
from the sink table's paths, so a scan builds no interval and enumerates
nothing outside `TSetTable.paths`.  The CLI streams the records to JSON-lines.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Optional

from .complete import (
    CompleteCdIndex,
    ShellingDecomposition,
    complete_cd_index,
    degree_range,
    first_label_sums,
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
from .ncpoly import CDPolynomial, ad_form, cd_degree, cd_monomials
from .orders import ReflectionOrder
from .perms import Perm, Reflection, bruhat_leq, format_perm, length


@dataclass(frozen=True)
class CoefficientReport:
    """The four independently computed values for one (interval, monomial)."""

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

    def to_json(self) -> dict:
        return {
            "u": format_perm(self.u),
            "v": format_perm(self.v),
            "monomial": self.monomial or "1",
            "t_size": self.t_size,
            "tbar_size": self.tbar_size,
            "coefficient": self.coefficient,
            "contribution_sum": self.contribution_sum,
            "consistent": self.consistent,
        }


def verify_coefficient(
    u: Perm,
    monomial: str,
    table: TSetTable,
    cd_index: CompleteCdIndex,
) -> CoefficientReport:
    """Compare |T_M|, |T-bar_M|, the cd-index coefficient and the signed sum."""
    gamma = ad_form(monomial)
    t_size = len(table.t_set(u, gamma))
    tbar_size = len(table.t_bar_set(u, gamma))
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


@dataclass(frozen=True)
class RestrictedCountReport:
    """Restricted T-set sizes against shelling-decomposition coefficients."""

    u: Perm
    v: Perm
    monomial: str
    t: Reflection
    t_restricted: int
    tbar_restricted: int
    coeff_f: int
    coeff_f_plus_cg: int

    @property
    def consistent(self) -> bool:
        return (
            self.tbar_restricted == self.coeff_f
            and self.t_restricted == self.coeff_f_plus_cg
        )

    def to_json(self) -> dict:
        return {
            "u": format_perm(self.u),
            "v": format_perm(self.v),
            "monomial": self.monomial or "1",
            "t": list(self.t),
            "t_restricted": self.t_restricted,
            "tbar_restricted": self.tbar_restricted,
            "coeff_f": self.coeff_f,
            "coeff_f_plus_cg": self.coeff_f_plus_cg,
            "consistent": self.consistent,
        }


def check_restricted_counts(
    u: Perm,
    monomial: str,
    table: TSetTable,
    decompositions: dict[Reflection, ShellingDecomposition],
) -> list[RestrictedCountReport]:
    """Counts of first-reflection-restricted T-sets vs f and f + c*g, per t.

    One report per entry of `decompositions`, in its order.  The bound is
    read in the primal order for both T and T-bar, matching the single
    definition of the restricted path set.
    """
    gamma = ad_form(monomial)
    order = table.order
    n = cd_degree(monomial)
    t_ranks = sorted(order.rank(p.labels[0]) for p in table.t_set(u, gamma))
    tbar_ranks = sorted(order.rank(p.labels[0]) for p in table.t_bar_set(u, gamma))
    reports = []
    for t, decomposition in decompositions.items():
        bound = order.rank(t)
        f, g = decomposition.by_degree.get(n, (CDPolynomial(), CDPolynomial()))
        coeff_f = f.coefficient(monomial)
        coeff_cg = g.coefficient(monomial[1:]) if monomial.startswith("c") else 0
        reports.append(RestrictedCountReport(
            u, table.sink, monomial, t, bisect_right(t_ranks, bound),
            bisect_right(tbar_ranks, bound), coeff_f, coeff_f + coeff_cg,
        ))
    return reports


def iter_intervals(n: int, max_length: int | None = None) -> Iterator[tuple[Perm, Perm]]:
    """All proper Bruhat intervals of S_n, sorted by (length gap, u, v)."""
    elements = [tuple(p) for p in itertools.permutations(range(1, n + 1))]
    pairs = []
    for u in elements:
        for v in elements:
            if u == v:
                continue
            gap = length(v) - length(u)
            if gap <= 0 or (max_length is not None and gap > max_length):
                continue
            if bruhat_leq(u, v):
                pairs.append((gap, u, v))
    pairs.sort()
    for _, u, v in pairs:
        yield u, v


def scan_interval(
    u: Perm,
    v: Perm,
    order: ReflectionOrder,
    order_id: str,
    table: TSetTable,
) -> dict:
    """One JSON-ready scan record for the interval [u, v].

    `table` is the TSetTable of the sink v under `order`; its `paths(u, n)`
    feed the graded first-label sums.  Runs, for every monomial of matching
    parity: the coefficient verification, the flip condition, the strong
    flip condition (monomials starting with c), and the restricted-count
    check at every reflection t.  All numeric fields are deterministic;
    elapsed_ms is informational only.
    """
    started = time.perf_counter()
    length_diff = length(v) - length(u)
    sums = {
        n: first_label_sums(table.paths(u, n), order) for n in degree_range(length_diff)
    }
    cd_index = complete_cd_index(u, v, sums)
    decompositions = shelling_decomposition(sums, order)
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
            restricted_ok = all(
                rep.consistent
                for rep in check_restricted_counts(u, monomial, table, decompositions)
            )
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
        "cd_index": cd_index.to_json()["cd_index"],
        "monomials": monomial_results,
        "witnesses": witness_json,
        "clean": consistent,
        "elapsed_ms": round((time.perf_counter() - started) * 1000, 3),
    }
    return record
