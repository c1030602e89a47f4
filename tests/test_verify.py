import json

import pytest

from cdindex import cli, intervals, verify
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
    format_perm,
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


def scan_sinks(n, spec, sinks=None):
    """{sink: its sources} of S_n, for every sink or those in `sinks`, with
    the order `spec` names."""
    jobs = {}
    for u, v in iter_intervals(n):
        if sinks is None or v in sinks:
            jobs.setdefault(v, []).append(u)
    return jobs, cli.resolve_order(spec, n)


def without_elapsed(record):
    return {field: value for field, value in record.items() if field != "elapsed_ms"}


def count_full_checks(monkeypatch):
    """Wrap `verify._check_interval`, which runs every check of an interval
    that takes no kept record body; returns the list of its (u, sink)."""
    calls = []
    inner = verify._check_interval

    def counted(u, order_id, table, *args):
        calls.append((u, table.sink))
        return inner(u, order_id, table, *args)

    monkeypatch.setattr(verify, "_check_interval", counted)
    return calls


@pytest.mark.parametrize(
    "n, spec, sinks",
    [
        pytest.param(4, "lex", None, id="s4-lex"),
        pytest.param(4, "rev", None, id="s4-rev"),
        pytest.param(4, "word:1,2,1,3,2,1", None, id="s4-word"),
        pytest.param(5, "word:2,1,3,4,3,2,3,1,4,2", {(5, 4, 3, 2, 1)}, id="s5-w0-seed1"),
    ],
)
def test_kept_record_bodies_equal_the_full_route(monkeypatch, cold_memos, n, spec, sinks):
    """Every line of a memoized scan, as the CLI's sink jobs write it,
    holds the record `scan_interval` writes with every memo cleared
    before the interval, apart from elapsed_ms, and is that record dumped
    with sorted keys.  The scan runs twice, so that every interval the
    memos admit, the S_5 sink's too, takes a kept body at least once: the
    second pass runs every check only above the memos' gap bound."""
    jobs, order = scan_sinks(n, spec, sinks)
    full_checks = count_full_checks(monkeypatch)
    lines = []
    for _ in range(2):
        full_checks.clear()
        for v, sources in jobs.items():
            lines += [line for line, _ in cli._scan_sink((v, sources, order, spec))]
    gaps = [json.loads(line)["length_diff"] for line in lines]
    assert len(full_checks) == sum(gap > verify._MEMO_GAP for gap in gaps) // 2
    cold = []
    for v, sources in jobs.items():
        table = TSetTable(v, order)
        table.fill_levels(max(table.gaps[u] for u in sources))
        for u in sources:
            cold_memos()
            cold.append(without_elapsed(scan_interval(u, spec, table)))
    warm = [json.loads(line) for line in lines]
    cold *= 2
    assert [line.decode() for line in lines] == [json.dumps(r, sort_keys=True) for r in warm]
    assert [without_elapsed(r) for r in warm] == cold


def test_kept_record_bodies_equal_the_full_route_under_collapsed_flips(monkeypatch, cold_memos):
    """Under the collapsed flip some flips are undefined and some records
    unclean; those run every check on every scan, and a memoized scan of
    S_4 and of the S_5 sink 45231 (lex), where counting T(12435, ddd)
    meets an undefined flip, still writes the full route's records."""
    from .test_flips import collapse_flips

    collapse_flips(monkeypatch)
    jobs, order = scan_sinks(4, "lex")
    s5_jobs, s5_order = scan_sinks(5, "lex", {parse_perm("45231")})
    jobs = [(v, sources, order) for v, sources in jobs.items()]
    jobs += [(v, sources, s5_order) for v, sources in s5_jobs.items()]
    full_checks = count_full_checks(monkeypatch)
    warm = []
    for v, sources, order in jobs:
        table = TSetTable(v, order)
        warm += [scan_interval(u, "lex", table) for u in sources]
    assert 0 < len(full_checks) < len(warm)
    unclean = {(r["u"], r["v"]) for r in warm if not r["clean"]}
    assert unclean
    rescanned = []
    for v, sources, order in jobs:
        table = TSetTable(v, order)
        for u in sources:
            full_checks.clear()
            record = warm.pop(0)
            again = scan_interval(u, "lex", table)
            rescanned += full_checks
            cold_memos()
            assert without_elapsed(scan_interval(u, "lex", table)) == without_elapsed(record)
            assert without_elapsed(again) == without_elapsed(record)
            assert record.line() == json.dumps(record, sort_keys=True).encode()
    assert unclean <= {(format_perm(u), format_perm(v)) for u, v in rescanned}


def kept_pair(monkeypatch, cold_memos):
    """Two intervals (u1, v1), (u2, v2) of S_4 (lex) of gap >= 3 with equal
    graded sums and count profile, and the record of the first, kept: so
    the second would take the kept body.  Returns the two, the record and
    the list `count_full_checks` fills, emptied."""
    jobs, order = scan_sinks(4, "lex")
    first = {}
    for v, sources in jobs.items():
        table = TSetTable(v, order)
        for u in sources:
            if table.gaps[u] >= 3:
                first.setdefault(repr(table.graded_sums(u)), []).append((u, v))
    (u1, v1), (u2, v2) = next(pair for pair in first.values() if len(pair) > 1)[:2]
    full_checks = count_full_checks(monkeypatch)
    scan_interval(u1, "lex", TSetTable(v1, order))
    assert scan_interval(u2, "lex", TSetTable(v2, order))["clean"]
    assert full_checks == [(u1, v1)]
    cold_memos()
    kept = scan_interval(u1, "lex", TSetTable(v1, order))
    assert kept["clean"]
    full_checks.clear()
    return (u1, v1), (u2, v2), kept, full_checks


def test_a_changed_count_profile_misses_the_kept_body(monkeypatch, cold_memos):
    """With one T count of the second interval of a kept pair changed
    after the first's body is kept, the second runs every check and comes
    out unclean, with the report the full route writes, not the kept body;
    its unclean body is not kept, so it runs every check again."""
    _, (u2, v2), kept, full_checks = kept_pair(monkeypatch, cold_memos)
    monomial = next(iter(kept["monomials"]))
    gamma = "" if monomial == "1" else verify.ad_form(monomial)
    real = TSetTable.counts

    def changed(self, w, word, bar=False):
        p = real(self, w, word, bar)
        if (self.sink, w, word, bar) == (v2, u2, gamma, False):
            return p[:-1] + (p[-1] + 1,)
        return p

    monkeypatch.setattr(TSetTable, "counts", changed)
    table = TSetTable(v2, lex_order(4))
    record = scan_interval(u2, "lex", table)
    assert full_checks == [(u2, v2)] and not record["clean"]
    assert record["monomials"][monomial]["t_size"] == kept["monomials"][monomial]["t_size"] + 1
    assert without_elapsed(scan_interval(u2, "lex", table)) == without_elapsed(record)
    assert full_checks == [(u2, v2)] * 2
    cold_memos()
    assert without_elapsed(scan_interval(u2, "lex", TSetTable(v2, lex_order(4)))) == without_elapsed(record)
    assert record.line() == json.dumps(record, sort_keys=True).encode()


def test_a_minus_one_misses_the_kept_body(monkeypatch, cold_memos):
    """Where the flip DP reports a -1 at the second interval of a kept
    pair, the contribution sum is walked, not read off the counts, so the
    interval runs every check, and its record, clean, is not kept."""
    _, (u2, v2), kept, full_checks = kept_pair(monkeypatch, cold_memos)
    monomial = next(m for m in kept["monomials"] if "d" in m)
    real = TSetTable.has_minus_one

    def reported(self, w, gamma):
        return (self.sink, w, gamma) == (v2, u2, verify.ad_form(monomial)) or real(self, w, gamma)

    monkeypatch.setattr(TSetTable, "has_minus_one", reported)
    table = TSetTable(v2, lex_order(4))
    for _ in range(2):
        record = scan_interval(u2, "lex", table)
        assert record["clean"] and record["monomials"] == kept["monomials"]
    assert full_checks == [(u2, v2)] * 2
