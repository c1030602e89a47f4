import json

import pytest

from cdindex import intervals, verify
from cdindex.complete import complete_cd_index, degree_range
from cdindex.errors import NotDecomposableError, NotInSubringError
from cdindex.flips import TSetTable, check_strong_flip_condition
from cdindex.intervals import build_interval
from cdindex.ncpoly import CDPolynomial, cd_monomials
from cdindex.orders import lex_order
from cdindex.perms import (
    Reflection,
    all_reflections,
    compose,
    length,
    parse_perm,
    reflection_perm,
)
from cdindex.verify import (
    check_restricted_counts,
    iter_intervals,
    scan_interval,
    verify_coefficient,
)

from .oracles import (
    first_inconsistent,
    interval_pairs,
    path_sums,
    restricted_count_reports,
    restricted_consistent,
    split_at,
)
from .test_complete import shelling_of, splits_by_t
from .test_flips import count_calls


def edge_reflections_below(u):
    """Reflections t with u*t shorter than u, i.e. t = z^{-1} u for some z -> u."""
    n = len(u)
    return [
        t
        for t in all_reflections(n)
        if length(compose(u, reflection_perm(t, n))) < length(u)
    ]


def test_verify_coefficient_on_paper_values(example_interval, example_table):
    iv = example_interval
    idx = complete_cd_index(iv.u, iv.v, path_sums(iv, example_table.order))
    for monomial, value in [("cccc", 1), ("cc", 2), ("d", 1), ("dd", 1), ("ccd", 1)]:
        report = verify_coefficient(iv.u, monomial, example_table, idx)
        assert report.consistent, report
        assert report.coefficient == value
        assert report.t_size == report.tbar_size == report.contribution_sum == value


def test_verify_coefficient_reuses_a_precomputed_index(example_interval, example_table):
    iv = example_interval
    idx = complete_cd_index(iv.u, iv.v, path_sums(iv, example_table.order))
    report = verify_coefficient(iv.u, "cdc", example_table, idx)
    assert report.consistent and report.coefficient == 2


def restricted_reports(iv, monomial, table):
    """The reference report at every t of the table's order, keyed by t;
    check_restricted_counts must return the first inconsistent one."""
    splits = shelling_of(iv, table.order)
    reports = restricted_count_reports(iv.u, monomial, table, splits)
    got = check_restricted_counts(iv.u, monomial, table, splits)
    assert got == first_inconsistent(reports)
    return {rep.t: rep for rep in reports}


def test_restricted_counts_at_maximal_t_reduce_to_verify(example_interval, example_table):
    rep = restricted_reports(example_interval, "cc", example_table)[Reflection(3, 4)]
    assert restricted_consistent(rep)
    assert rep.t_restricted == 2 and rep.tbar_restricted == 2


def test_restricted_counts_at_minimal_t(example_interval, example_table):
    rep = restricted_reports(example_interval, "cc", example_table)[Reflection(1, 2)]
    assert restricted_consistent(rep)
    # no degree-2 path leaves 2134 with label rank 1
    assert rep.t_restricted == 0 and rep.tbar_restricted == 0


def test_restricted_counts_for_d_at_every_t(example_interval, example_table):
    order = example_table.order
    reports = restricted_reports(example_interval, "d", example_table)
    assert list(reports) == list(order.sequence)
    for rep in reports.values():
        assert restricted_consistent(rep), rep


def test_restricted_counts_read_c_times_g_off_g(example_interval, example_table):
    """coeff_f_plus_cg matches f + c*g multiplied out as polynomials."""
    order = example_table.order
    splits = shelling_of(example_interval, order)
    for n in degree_range(example_interval.length_diff):
        for monomial in cd_monomials(n):
            reports = restricted_count_reports(
                example_interval.u, monomial, example_table, splits
            )
            assert [rep.t for rep in reports] == list(order.sequence)
            for rep in reports:
                f, g = split_at(splits.get(n, []), order.rank(rep.t))
                product = f + CDPolynomial({"c": 1}) * g
                assert rep.coeff_f_plus_cg == product.coefficient(monomial)


def test_restricted_counts_read_each_split_once_and_build_no_polynomial(
    example_interval, example_table, monkeypatch
):
    order = example_table.order
    splits = shelling_of(example_interval, order)
    built, read = [], []
    real_init, real_coefficient = CDPolynomial.__init__, CDPolynomial.coefficient
    monkeypatch.setattr(
        CDPolynomial, "__init__", lambda self, *a: built.append(a) or real_init(self, *a)
    )
    monkeypatch.setattr(
        CDPolynomial, "coefficient",
        lambda self, m: read.append(self) or real_coefficient(self, m),
    )
    for n in degree_range(example_interval.length_diff):
        for monomial in cd_monomials(n):
            read.clear()
            got = check_restricted_counts(example_interval.u, monomial, example_table, splits)
            assert got is None
            assert len(read) == len(splits[n]) * (2 if monomial.startswith("c") else 1)
    assert built == []


def test_edge_reflections_below():
    u = parse_perm("2134")
    assert edge_reflections_below(u) == [Reflection(1, 2)]
    w0 = parse_perm("4321")
    assert len(edge_reflections_below(w0)) == 6
    assert edge_reflections_below(parse_perm("1234")) == []


def test_iter_intervals_is_sorted_and_complete():
    pairs = list(iter_intervals(3))
    assert len(pairs) == 13  # proper Bruhat-comparable pairs of S_3
    gaps = [length(v) - length(u) for u, v in pairs]
    assert gaps == sorted(gaps)
    capped = list(iter_intervals(3, max_length=1))
    assert all(length(v) - length(u) == 1 for u, v in capped)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_iter_intervals_matches_the_pairwise_bruhat_test(n):
    for max_length in (None, 1, 3):
        assert list(iter_intervals(n, max_length)) == interval_pairs(n, max_length)


def test_iter_intervals_counts_every_interval_of_s6():
    assert sum(1 for _ in iter_intervals(6)) == 97687


def corrupt(splits, n, bound, part, monomial):
    """A copy of `splits` whose degree-n split from rank `bound` up to the
    next step has `monomial` added to f, or its tail added to g."""
    steps = [step for step in splits[n] if step[0] != bound]
    f, g = split_at(splits[n], bound)
    if part == "f":
        f = f + CDPolynomial({monomial: 1})
    else:
        g = g + CDPolynomial({monomial[1:]: 1})
    steps.append((bound, (f, g)))
    steps.sort(key=lambda step: step[0])
    return {**splits, n: steps}


@pytest.mark.parametrize("part", ["f", "g"])
def test_restricted_counts_report_a_corrupted_split(example_interval, example_table, part):
    """Adding cc to f (c to g) at the rank of one reflection breaks the
    T-bar (T) count of cc from there up to the next step: the report names
    that t."""
    order = example_table.order
    splits = shelling_of(example_interval, order)
    t = Reflection(1, 4)
    splits = corrupt(splits, 2, order.rank(t), part, "cc")
    reports = restricted_count_reports(example_interval.u, "cc", example_table, splits)
    got = check_restricted_counts(example_interval.u, "cc", example_table, splits)
    assert got is not None and not restricted_consistent(got)
    assert got == first_inconsistent(reports)
    assert got.t == t
    if part == "f":
        assert got.coeff_f == got.tbar_restricted + 1
    else:
        assert got.coeff_f == got.tbar_restricted
        assert got.coeff_f_plus_cg == got.t_restricted + 1
    assert check_restricted_counts(example_interval.u, "dd", example_table, splits) is None


def test_restricted_counts_report_every_corrupted_split_on_s4():
    """On every S_4 interval, corrupting any step of any degree for any
    monomial, or dropping the step: the check returns the oracle's first
    inconsistent report for every monomial of that degree, and for the
    corrupted monomial that report names the step's reflection."""
    order = lex_order(4)
    tables = {}
    corrupted = 0
    for u, v in iter_intervals(4):
        if v not in tables:
            tables[v] = TSetTable(v, order)
        table = tables[v]
        splits = shelling_of(build_interval(u, v), order)
        for n, steps in splits.items():
            monomials = cd_monomials(n)
            for bound, _ in steps:
                variants = [(None, {**splits, n: [s for s in steps if s[0] != bound]})]
                for monomial in monomials:
                    for part in ("f", "g") if monomial.startswith("c") else ("f",):
                        variants.append((monomial, corrupt(splits, n, bound, part, monomial)))
                for monomial, bad in variants:
                    for other in monomials:
                        reports = restricted_count_reports(u, other, table, bad)
                        got = check_restricted_counts(u, other, table, bad)
                        assert got == first_inconsistent(reports), (u, v, other)
                        if other == monomial:
                            assert got.t == order.sequence[bound - 1], (u, v, other)
                    corrupted += 1
    assert corrupted > 1000


def test_strong_flip_condition_matches_g_nonnegativity_at_all_t_on_s4():
    """Exhaustive S4 sweep: the strong condition holds for every monomial
    starting with c, and every g-part is non-negative at every reflection t
    (the two statements are equivalent forms of the same positivity)."""
    order = lex_order(4)
    tables = {}
    strong_violations = []
    negative_g = []
    for u, v in iter_intervals(4):
        iv = build_interval(u, v)
        if v not in tables:
            tables[v] = TSetTable(v, order)
        table = tables[v]
        for n in degree_range(iv.length_diff):
            for monomial in cd_monomials(n):
                if not monomial.startswith("c"):
                    continue
                witness = check_strong_flip_condition(u, monomial, table)
                if witness is not None:
                    strong_violations.append((u, v, monomial, witness))
        for t, dec in splits_by_t(shelling_of(iv, order), order).items():
            for _, g in dec.values():
                if any(c < 0 for _, c in g.items()):
                    negative_g.append((u, v, t))
    assert bool(strong_violations) == bool(negative_g)
    assert strong_violations == [] and negative_g == []


def test_scan_interval_record_is_deterministic(example_table):
    u = parse_perm("2134")
    a = scan_interval(u, "lex", example_table)
    b = scan_interval(u, "lex", example_table)
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["clean"]
    assert a["cd_index"]["2"] == {"cc": 2, "d": 1}
    assert a["monomials"]["dd"]["t_size"] == 1
    assert a["monomials"]["cc"]["strong_flip_condition"] == "holds"
    assert a["monomials"]["dd"]["strong_flip_condition"] == "n/a"
    assert a["witnesses"] == []


def test_scan_interval_builds_no_interval_and_enumerates_only_in_the_table(monkeypatch):
    """With every sink's table built, scanning each S_4 interval calls
    build_interval and iter_paths never: a clean scan runs no witness
    replay, the one place that walks paths."""
    order = lex_order(4)
    pairs = list(iter_intervals(4))
    tables = {v: TSetTable(v, order) for _, v in pairs}
    builds = count_calls(monkeypatch, intervals.build_interval)
    enumerations = count_calls(monkeypatch, intervals.iter_paths)
    for u, v in pairs:
        assert scan_interval(u, "lex", tables[v])["clean"], (u, v)
    assert builds == [] and enumerations == []


@pytest.mark.parametrize(
    "name, error",
    [("complete_cd_index", NotInSubringError), ("shelling_decomposition", NotDecomposableError)],
)
def test_a_split_error_is_raised_again_on_the_next_call(monkeypatch, cold_memos, name, error):
    """The cd-side memo keeps no raised NotInSubringError or
    NotDecomposableError: the next interval with the same graded sums
    computes its cd side again, and raises again."""
    calls = []

    def failing(*args):
        calls.append(args)
        raise error("injected")

    monkeypatch.setattr(verify, name, failing)
    table = TSetTable(parse_perm("4321"), lex_order(4))
    for _ in range(2):
        with pytest.raises(error, match="injected"):
            scan_interval(parse_perm("2134"), "lex", table)
    assert len(calls) == 2
