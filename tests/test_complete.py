import pytest

from cdindex import complete, intervals
from cdindex.complete import (
    CompleteCdIndex,
    ad_polynomials,
    complete_cd_index,
    degree_range,
    restricted_ad_polynomial,
    shelling_decomposition,
)
from cdindex.flips import TSetTable, sum_contributions
from cdindex.intervals import ad_word, build_interval
from cdindex.ncpoly import (
    ADPolynomial,
    CDPolynomial,
    ad_form,
    ad_to_cd,
    bar,
    cd_degree,
    cd_monomials,
    decompose_left_a,
)
from cdindex.orders import lex_order, order_from_reduced_word
from cdindex.perms import Reflection, identity, parse_perm
from cdindex.verify import RestrictedCountReport, check_restricted_counts, iter_intervals

from . import oracles
from .oracles import (
    enumerate_paths,
    expand_cd,
    first_inconsistent,
    first_label_sums,
    flag_cd_index,
    path_sums,
    restricted_count_reports,
    split_at,
    table_paths,
    top_degree_part,
)
from .test_flips import count_calls

# cd-index of [2134, 4321], frozen from two independent computations
# (path sum + exact solve, and the flag-vector chain-count oracle)
EXAMPLE_DEGREE_2 = {"cc": 2, "d": 1}
EXAMPLE_DEGREE_4 = {"cccc": 1, "ccd": 1, "cdc": 2, "dcc": 1, "dd": 1}


def shelling_of(iv, order):
    """The per-rank shelling splits of [u, v] under `order`, from one set of path sums."""
    sums = path_sums(iv, order)
    return shelling_decomposition(sums, complete_cd_index(iv.u, iv.v, sums))


def splits_by_t(splits, order):
    """The split at every t of `order`, per degree: {t: {n: (f, g)}}."""
    return {
        t: {n: split_at(steps, order.rank(t)) for n, steps in splits.items()}
        for t in order.sequence
    }


def restricted_by_filter(iv, n, t, order):
    """The per-t reference: enumerate, keep first-label rank <= rank(t)."""
    bound = order.rank(t)
    acc = {}
    for path in enumerate_paths(iv, n):
        if order.rank(path.labels[0]) <= bound:
            w = ad_word(path, order)
            acc[w] = acc.get(w, 0) + 1
    return ADPolynomial(acc)


def per_t_decomposition(iv, t, order):
    """The per-t reference split: one enumeration and one split per degree."""
    return {
        n: decompose_left_a(restricted_by_filter(iv, n, t, order), n)
        for n in degree_range(iv.length_diff)
    }


def per_t_restricted_counts(iv, monomial, t, table, by_degree):
    """The per-t reference count check: filter T and T-bar at rank(t)."""
    order = table.order
    bound = order.rank(t)
    gamma = ad_form(monomial)
    f, g = by_degree.get(cd_degree(monomial), (CDPolynomial(), CDPolynomial()))
    t_restricted = sum(
        1 for p in table.t_set(iv.u, gamma) if order.rank(p.labels[0]) <= bound
    )
    tbar_restricted = sum(
        1 for p in table.t_set(iv.u, gamma, bar=True) if order.rank(p.labels[0]) <= bound
    )
    f_plus_cg = f + CDPolynomial({"c": 1}) * g
    return RestrictedCountReport(
        iv.u, iv.v, monomial, t, t_restricted, tbar_restricted,
        f.coefficient(monomial), f_plus_cg.coefficient(monomial),
    )


def check_decomposition(iv, t, by_degree, order):
    """Recombine f + A*g per degree and compare with the sum restricted at t."""
    a = ADPolynomial({"A": 1})
    for n, (f, g) in by_degree.items():
        p = restricted_by_filter(iv, n, t, order)
        if expand_cd(f) + a * expand_cd(g) != p:
            return False
    return True


def test_cover_interval_index_is_one():
    iv = build_interval(parse_perm("1234"), parse_perm("2134"))
    idx = complete_cd_index(iv.u, iv.v, path_sums(iv, lex_order(4)))
    assert {n: dict(p.items()) for n, p in idx.by_degree.items()} == {0: {"": 1}}
    assert idx.coefficient("") == 1


def test_example_ad_polynomial_degree_two(example_interval, s4_lex):
    parts = ad_polynomials(path_sums(example_interval, s4_lex))
    assert set(parts) == {0, 2, 4}
    assert not parts[0]  # no single-edge path from 2134 to 4321
    assert ad_to_cd(parts[2]) == CDPolynomial(EXAMPLE_DEGREE_2)
    assert dict(parts[2].items()) == {"AA": 2, "AD": 3, "DA": 3, "DD": 2}


def test_example_complete_cd_index(example_interval):
    iv = example_interval
    idx = complete_cd_index(iv.u, iv.v, path_sums(iv, lex_order(4)))
    assert dict(idx.by_degree[2].items()) == EXAMPLE_DEGREE_2
    assert dict(idx.by_degree[4].items()) == EXAMPLE_DEGREE_4
    assert idx.coefficient("cccc") == 1 and idx.coefficient("dd") == 1
    assert idx.coefficient("ccd") >= 0
    assert idx.coefficient("cdc") >= 0
    assert idx.coefficient("dcc") >= 0


def test_phi_parts_are_bar_invariant(example_interval, s4_lex):
    for part in ad_polynomials(path_sums(example_interval, s4_lex)).values():
        assert bar(part) == part


def test_coefficient_of_c_power_counts_ascending_paths(example_interval, s4_lex):
    iv = example_interval
    idx = complete_cd_index(iv.u, iv.v, path_sums(iv, s4_lex))
    for n in (2, 4):
        ascending = [
            p
            for p in enumerate_paths(example_interval, n)
            if all(
                s4_lex.rank(p.labels[i]) < s4_lex.rank(p.labels[i + 1])
                for i in range(n)
            )
        ]
        assert idx.coefficient("c" * n) == len(ascending)


def test_order_independence_spot_check(example_interval):
    u, v = example_interval.u, example_interval.v
    lex = complete_cd_index(u, v, path_sums(example_interval, lex_order(4)))
    rev = complete_cd_index(u, v, path_sums(example_interval, lex_order(4).reversed()))
    word = complete_cd_index(
        u, v, path_sums(example_interval, order_from_reduced_word(4, [1, 2, 1, 3, 2, 1]))
    )
    assert lex.by_degree == rev.by_degree == word.by_degree


def test_restricted_ad_polynomial(example_interval, s4_lex):
    full = ad_polynomials(path_sums(example_interval, s4_lex))[2]
    sums = path_sums(example_interval, s4_lex)[2]
    assert restricted_ad_polynomial(sums, s4_lex.rank(Reflection(3, 4))) == full
    # no degree-2 path starts with label 1, so the bound (1 2) kills everything
    assert not restricted_ad_polynomial(sums, s4_lex.rank(Reflection(1, 2)))
    # filter oracle at t = (14), rank 3
    expected = {}
    for p in enumerate_paths(example_interval, 2):
        if s4_lex.rank(p.labels[0]) <= 3:
            w = "".join(
                "A" if s4_lex.rank(p.labels[i]) < s4_lex.rank(p.labels[i + 1]) else "D"
                for i in range(2)
            )
            expected[w] = expected.get(w, 0) + 1
    got = restricted_ad_polynomial(sums, s4_lex.rank(Reflection(1, 4)))
    assert dict(got.items()) == expected


def test_first_label_sums_bucket_the_full_sum(example_interval, s4_lex):
    for n in degree_range(example_interval.length_diff):
        sums = first_label_sums(enumerate_paths(example_interval, n), s4_lex)
        assert list(sums.items()) == list(path_sums(example_interval, s4_lex)[n].items())
        assert list(sums) == sorted(sums)
        assert all(sums.values())
        for r, p in sums.items():
            expected = {}
            for path in enumerate_paths(example_interval, n):
                if s4_lex.rank(path.labels[0]) == r:
                    w = ad_word(path, s4_lex)
                    expected[w] = expected.get(w, 0) + 1
            assert dict(p.items()) == expected
        total = sum(sums.values(), ADPolynomial())
        assert total == ad_polynomials(path_sums(example_interval, s4_lex))[n]


def test_shelling_decomposition_at_maximal_reflection(example_interval, s4_lex):
    sums = path_sums(example_interval, s4_lex)
    dec = splits_by_t(shelling_of(example_interval, s4_lex), s4_lex)[Reflection(3, 4)]
    for n, (f, g) in dec.items():
        assert not g, "no restriction means the sum is already bar-invariant"
        assert expand_cd(f) == ad_polynomials(sums)[n]


def test_shelling_decomposition_every_t_nonnegative(example_interval, s4_lex):
    splits = shelling_of(example_interval, s4_lex)
    sums = path_sums(example_interval, s4_lex)
    assert {n: [r for r, _ in steps] for n, steps in splits.items()} == {
        n: sorted(buckets) for n, buckets in sums.items()
    }
    for t, dec in splits_by_t(splits, s4_lex).items():
        assert check_decomposition(example_interval, t, dec, s4_lex)
        assert all(c >= 0 for _, g in dec.values() for _, c in g.items())


@pytest.mark.parametrize("word", [None, [1, 2, 1, 3, 2, 1]], ids=["lex", "word"])
def test_every_t_at_once_matches_the_per_t_route_on_s4(word):
    """shelling_decomposition and check_restricted_counts agree with one
    enumeration, one split and one T-set filter per t, on all of S_4."""
    order = lex_order(4) if word is None else order_from_reduced_word(4, word)
    tables = {}
    for u, v in iter_intervals(4):
        iv = build_interval(u, v)
        if v not in tables:
            tables[v] = TSetTable(v, order)
        table = tables[v]
        splits = shelling_of(iv, order)
        by_t = splits_by_t(splits, order)
        assert list(by_t) == list(order.sequence)
        reference = {t: per_t_decomposition(iv, t, order) for t in order.sequence}
        for t, dec in by_t.items():
            assert list(dec.items()) == list(reference[t].items()), (u, v, t)
        for n in degree_range(iv.length_diff):
            for monomial in cd_monomials(n):
                reports = restricted_count_reports(u, monomial, table, splits)
                assert reports == [
                    per_t_restricted_counts(iv, monomial, t, table, reference[t])
                    for t in order.sequence
                ], (u, v, monomial)
                got = check_restricted_counts(u, monomial, table, splits)
                assert got == first_inconsistent(reports), (u, v, monomial)


def test_shelling_enumerates_nothing_and_splits_exactly_at_first_label_ranks(monkeypatch):
    """The reference path_sums makes one iter_paths call per degree and
    shelling_decomposition none; decompose_left_a runs only at the ranks
    some path starts with, on the sum restricted to that rank, and never at
    a degree's top rank, whose split is read off the cd-index."""
    order = order_from_reduced_word(4, [1, 2, 1, 3, 2, 1])
    enumerations = count_calls(monkeypatch, intervals.iter_paths)
    oracle_enumerations = []
    splits = []
    iter_paths, split = oracles.iter_paths, complete.decompose_left_a

    def counting_iter_paths(adjacency, u, v, n):
        oracle_enumerations.append(n)
        return iter_paths(adjacency, u, v, n)

    def recording_split(p, n):
        splits.append((n, p))
        return split(p, n)

    monkeypatch.setattr(oracles, "iter_paths", counting_iter_paths)
    monkeypatch.setattr(complete, "decompose_left_a", recording_split)
    for u, v in iter_intervals(4):
        iv = build_interval(u, v)
        expected = []
        for n in degree_range(iv.length_diff):
            ranks = sorted({order.rank(p.labels[0]) for p in enumerate_paths(iv, n)})
            expected += [
                (n, restricted_by_filter(iv, n, order.sequence[r - 1], order))
                for r in ranks[:-1]
            ]
        oracle_enumerations.clear()
        sums = path_sums(iv, order)
        assert oracle_enumerations == degree_range(iv.length_diff), (u, v)
        index = complete_cd_index(u, v, sums)
        enumerations.clear()
        splits.clear()
        shelling_decomposition(sums, index)
        assert enumerations == [], (u, v)
        assert splits == expected, (u, v)


@pytest.mark.parametrize("word", [None, [1, 2, 1, 3, 2, 1]], ids=["lex", "word"])
def test_top_split_is_the_index_part_and_zero_on_s4(word, monkeypatch):
    """The last step of each degree sits at its top populated rank, and from
    there on every split is (cd-index part, 0); decompose_left_a never sees
    the full sum."""
    order = lex_order(4) if word is None else order_from_reduced_word(4, word)
    split = complete.decompose_left_a
    full_sums_split = []

    def recording_split(p, n):
        if p == full[n]:
            full_sums_split.append(n)
        return split(p, n)

    monkeypatch.setattr(complete, "decompose_left_a", recording_split)
    for u, v in iter_intervals(4):
        iv = build_interval(u, v)
        sums = path_sums(iv, order)
        full = ad_polynomials(sums)
        index = complete_cd_index(u, v, sums)
        splits = shelling_decomposition(sums, index)
        for n, buckets in sums.items():
            if not buckets:
                assert splits[n] == [], (u, v)
                continue
            top = max(buckets)
            assert splits[n][-1] == (top, (index.by_degree[n], CDPolynomial())), (u, v)
            for t in order.sequence:
                if order.rank(t) >= top:
                    got = split_at(splits[n], order.rank(t))
                    assert got == (index.by_degree[n], CDPolynomial()), (u, v, t)
    assert full_sums_split == []


@pytest.mark.parametrize("word", [None, [1, 2, 1, 3, 2, 1]], ids=["lex", "word"])
def test_table_paths_give_the_interval_path_sums_on_s4(word):
    """The paths over a sink table's out-edges, which the witness replay
    walks, against the enumeration of the built interval, bucket for
    bucket."""
    order = lex_order(4) if word is None else order_from_reduced_word(4, word)
    tables = {}
    for u, v in iter_intervals(4):
        if v not in tables:
            tables[v] = TSetTable(v, order)
        iv = build_interval(u, v)
        expected = path_sums(iv, order)
        got = {
            n: first_label_sums(table_paths(tables[v], u, n), order)
            for n in degree_range(iv.length_diff)
        }
        assert list(got) == list(expected), (u, v)
        for n, buckets in got.items():
            assert list(buckets.items()) == list(expected[n].items()), (u, v, n)


def test_equality_compares_the_polynomials(example_interval, s4_lex):
    iv = example_interval
    sums = path_sums(iv, s4_lex)
    idx = complete_cd_index(iv.u, iv.v, sums)
    empty = CompleteCdIndex(iv.u, iv.v, {})
    assert idx != empty and hash(idx) == hash(empty)
    assert idx == complete_cd_index(iv.u, iv.v, path_sums(iv, s4_lex.reversed()))
    splits = shelling_decomposition(sums, idx)
    other = {n: [(r, (f, f)) for r, (f, _) in steps] for n, steps in splits.items()}
    assert splits != other
    assert splits == shelling_of(iv, s4_lex)


def test_degree_range():
    cover = build_interval(parse_perm("1234"), parse_perm("2134"))
    assert degree_range(cover.length_diff) == degree_range(1) == [0]
    iv = build_interval(parse_perm("2134"), parse_perm("4321"))
    assert degree_range(iv.length_diff) == degree_range(5) == [4, 2, 0]
    assert degree_range(0) == []


def test_sum_contributions_examples(example_interval, example_table):
    assert sum_contributions(example_interval.u, "cc", example_table) == 2
    assert sum_contributions(example_interval.u, "d", example_table) == 1
    assert sum_contributions(example_interval.u, "dd", example_table) == 1
    assert sum_contributions(example_interval.u, "cdc", example_table) == 2
    # wrong-parity degree has no paths at all
    assert sum_contributions(example_interval.u, "c", example_table) == 0


def test_flag_cd_index_trivia():
    cover = build_interval(parse_perm("1234"), parse_perm("2134"))
    assert dict(flag_cd_index(cover).items()) == {"": 1}
    diamond = build_interval(identity(4), parse_perm("2314"))
    assert dict(flag_cd_index(diamond).items()) == {"c": 1}


def test_flag_cd_index_matches_top_degree_of_example(example_interval):
    iv = example_interval
    idx = complete_cd_index(iv.u, iv.v, path_sums(iv, lex_order(4)))
    assert flag_cd_index(example_interval) == top_degree_part(idx)
    assert dict(flag_cd_index(example_interval).items()) == EXAMPLE_DEGREE_4


def test_flag_cd_index_rejects_trivial_interval():
    u = parse_perm("2134")
    with pytest.raises(ValueError):
        flag_cd_index(build_interval(u, u))
