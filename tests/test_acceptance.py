"""Acceptance suite: exact reproduction of the worked example plus the
exhaustive S4 / sampled S5 property sweeps.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every comparison is exact integer equality; the only stated
tolerances are wall-clock budgets, asserted where given.
"""

import itertools
import random
import time

import pytest

from cdindex.complete import complete_cd_index, degree_range
from cdindex.flips import TSetTable, check_flip_condition
from cdindex.intervals import (
    BruhatPath,
    ad_word,
    build_interval,
    iter_paths,
    label_string,
)
from cdindex.ncpoly import cd_monomials
from cdindex.orders import lex_order, order_from_reduced_word
from cdindex.perms import bruhat_leq, length, parse_perm
from cdindex.verify import (
    check_restricted_counts,
    iter_intervals,
    verify_coefficient,
)

from .oracles import (
    flag_cd_index,
    path_sums,
    restricted_count_reports,
    restricted_consistent,
    table_paths,
    tail_from,
    top_degree_part,
)
from .test_complete import check_decomposition, shelling_of, splits_by_t
from .test_verify import edge_reflections_below

S4_WORD_ORDER = [1, 2, 1, 3, 2, 1]


def _report(num, message, elapsed=None):
    stamp = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"\n[criterion {num}] PASS: {message}{stamp}")


@pytest.fixture(scope="module")
def s4_tables():
    """One T-set table per sink of S_4 under the lex order, built on demand."""
    order = lex_order(4)
    cache = {}

    def get(v):
        if v not in cache:
            cache[v] = TSetTable(v, order)
        return cache[v]

    return get


@pytest.fixture(scope="module")
def s4_intervals():
    return [(u, v, build_interval(u, v)) for u, v in iter_intervals(4)]


def s5_comparable_pairs():
    elements = [tuple(p) for p in itertools.permutations(range(1, 6))]
    return [
        (u, v)
        for u in elements
        for v in elements
        if u != v and length(u) < length(v) and bruhat_leq(u, v)
    ]


def monotone_paths(iv, n, order, ascending):
    word = ("A" if ascending else "D") * n
    return [
        p for p in iter_paths(iv.adjacency, iv.u, iv.v, n) if ad_word(p, order) == word
    ]


def matching_monomials(iv, max_degree):
    """cd-monomials with degree of the interval's parity, up to max_degree."""
    parity = (iv.length_diff - 1) % 2
    return [
        m for n in range(max_degree + 1) if n % 2 == parity for m in cd_monomials(n)
    ]


def test_criterion_1_worked_example_exact(s4_tables):
    started = time.perf_counter()
    u, v = parse_perm("2134"), parse_perm("4321")
    table = s4_tables(v)
    order = table.order

    def named(paths):
        return sorted(label_string(p, order) for p in paths)

    assert named(table.t_set(u, "AA")) == ["235", "346"]
    assert named(table.t_set(u, "AAAA")) == ["23456"]
    assert named(table.t_set(u, "DA")) == ["436"]
    assert named(table.t_set(u, "DADA")) == ["41516"]

    # the three DA-candidates and their spliced flips: 462 accepted, 521
    # and 652 rejected
    candidates = [p for p in table_paths(table, u, 2) if table.word(p) == "DA"]
    assert named(candidates) == ["436", "514", "625"]
    spliced = {}
    for p in candidates:
        image = table.flip(p.vertices[1], "A")[tail_from(p, 1)]
        whole = BruhatPath(
            (p.vertices[0],) + image.vertices, (p.labels[0],) + image.labels
        )
        spliced[label_string(p, order)] = (label_string(whole, order), table.word(whole))
    assert spliced == {
        "436": ("462", "AD"),
        "514": ("521", "DD"),
        "625": ("652", "DD"),
    }

    # intermediate sets driving the dd computation
    assert named(table.t_set(parse_perm("2143"), "ADA")) == ["3416"]
    assert named(table.t_set(parse_perm("2143"), "ADA", bar=True)) == ["4361"]
    assert named(table.t_set(parse_perm("2314"), "ADA")) == ["1516"]
    assert named(table.t_set(parse_perm("2314"), "ADA", bar=True)) == ["5361"]

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, "worked example [2134,4321]: all quoted T-sets and flips exact", elapsed)


def test_criterion_2_example_cd_index_goldens():
    started = time.perf_counter()
    iv = build_interval(parse_perm("2134"), parse_perm("4321"))
    idx = complete_cd_index(iv.u, iv.v, path_sums(iv, lex_order(4)))
    assert dict(idx.by_degree[2].items()) == {"cc": 2, "d": 1}
    assert idx.coefficient("cccc") == 1
    assert idx.coefficient("dd") == 1
    x, y, z = idx.coefficient("ccd"), idx.coefficient("cdc"), idx.coefficient("dcc")
    assert x >= 0 and y >= 0 and z >= 0
    # goldens frozen after independent computation (exact solver + flag oracle)
    assert (x, y, z) == (1, 2, 1)
    assert set(idx.by_degree) == {2, 4}
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(2, "cd-index = 2cc+d and cccc+ccd+2cdc+dcc+dd, goldens x,y,z = 1,2,1", elapsed)


def test_criterion_3_order_independence(s4_intervals):
    started = time.perf_counter()
    orders = [
        lex_order(4),
        lex_order(4).reversed(),
        order_from_reduced_word(4, S4_WORD_ORDER),
    ]
    for u, v, iv in s4_intervals:
        first = complete_cd_index(u, v, path_sums(iv, orders[0])).by_degree
        for other in orders[1:]:
            assert complete_cd_index(u, v, path_sums(iv, other)).by_degree == first, (u, v)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(
        3,
        f"cd-index identical under lex/reversed/reduced-word orders on "
        f"{len(s4_intervals)} intervals",
        elapsed,
    )


def test_criterion_4_coefficient_identity_exhaustive(s4_intervals, s4_tables):
    started = time.perf_counter()
    checks = 0
    for u, v, iv in s4_intervals:
        table = s4_tables(v)
        idx = complete_cd_index(u, v, path_sums(iv, table.order))
        for monomial in matching_monomials(iv, 5):
            report = verify_coefficient(u, monomial, table, idx)
            assert report.consistent, report
            checks += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    _report(
        4,
        f"sum of contributions = coefficient = |T| = |T-bar| on {checks} "
        f"(interval, monomial) pairs",
        elapsed,
    )


def test_criterion_5_first_label_separation():
    started = time.perf_counter()
    order4 = lex_order(4)
    checked = 0
    for u, v in iter_intervals(4):
        iv = build_interval(u, v)
        for n in degree_range(iv.length_diff):
            asc = monotone_paths(iv, n, order4, ascending=True)
            desc = monotone_paths(iv, n, order4, ascending=False)
            if asc and desc:
                hi = max(order4.rank(p.labels[0]) for p in asc)
                lo = min(order4.rank(p.labels[0]) for p in desc)
                assert hi <= lo, (u, v, n)
                checked += 1
    order5 = lex_order(5)
    rng = random.Random(52034)
    pairs = rng.sample(s5_comparable_pairs(), 200)
    for u, v in pairs:
        iv = build_interval(u, v)
        for n in degree_range(iv.length_diff):
            asc = monotone_paths(iv, n, order5, ascending=True)
            desc = monotone_paths(iv, n, order5, ascending=False)
            if asc and desc:
                hi = max(order5.rank(p.labels[0]) for p in asc)
                lo = min(order5.rank(p.labels[0]) for p in desc)
                assert hi <= lo, (u, v, n)
                checked += 1
    _report(
        5,
        f"ascending first labels precede descending ones in {checked} "
        f"(interval, length) classes (all S4 + 200 random S5)",
        time.perf_counter() - started,
    )


def test_criterion_6_at_most_one_d_nonnegative(s4_intervals):
    started = time.perf_counter()
    def assert_nonneg(idx, u, v):
        for part in idx.by_degree.values():
            for monomial, coeff in part.items():
                if monomial.count("d") <= 1:
                    assert coeff >= 0, (u, v, monomial, coeff)

    for u, v, iv in s4_intervals:
        assert_nonneg(complete_cd_index(u, v, path_sums(iv, lex_order(4))), u, v)
    rng = random.Random(61803)
    pairs = s5_comparable_pairs()
    by_gap = {}
    for u, v in pairs:
        by_gap.setdefault(length(v) - length(u), []).append((u, v))
    sample = []
    for gap in range(1, 9):
        sample.extend(rng.sample(by_gap[gap], min(6, len(by_gap[gap]))))
    sample.extend(rng.sample(by_gap[9], 1))
    for u, v in sample:
        iv = build_interval(u, v)
        assert_nonneg(complete_cd_index(u, v, path_sums(iv, lex_order(5))), u, v)
    _report(
        6,
        f"coefficients of monomials with at most one d are >= 0 "
        f"({len(s4_intervals)} S4 intervals + {len(sample)} sampled S5 intervals)",
        time.perf_counter() - started,
    )


def test_criterion_7_restricted_decomposition_exhaustive(s4_intervals, s4_tables):
    started = time.perf_counter()
    order = lex_order(4)
    decompositions = 0
    count_checks = 0
    for u, v, iv in s4_intervals:
        table = s4_tables(v)
        splits = shelling_of(iv, order)
        for t, dec in splits_by_t(splits, order).items():
            assert check_decomposition(iv, t, dec, order), (u, v, t)
            decompositions += len(dec)
        for n in degree_range(iv.length_diff):
            for monomial in cd_monomials(n):
                for rep in restricted_count_reports(u, monomial, table, splits):
                    assert restricted_consistent(rep), rep
                    count_checks += 1
                assert check_restricted_counts(u, monomial, table, splits) is None
    elapsed = time.perf_counter() - started
    assert elapsed < 900.0
    _report(
        7,
        f"f + A*g decomposition exact and restricted counts match on "
        f"{decompositions} (interval, t, degree) triples / {count_checks} count checks",
        elapsed,
    )


def test_criterion_8_flip_condition_equals_g_nonnegativity(s4_intervals, s4_tables):
    started = time.perf_counter()
    order = lex_order(4)
    flip_violations = []
    for u, v, iv in s4_intervals:
        table = s4_tables(v)
        for monomial in matching_monomials(iv, 5):
            witness = check_flip_condition(u, monomial, table)
            if witness is not None:
                flip_violations.append((u, v, monomial, witness))
    negative_g = []
    for u, v, iv in s4_intervals:
        by_t = splits_by_t(shelling_of(iv, order), order)
        for t in edge_reflections_below(u):
            for n, (_, g) in by_t[t].items():
                bad = {m: c for m, c in g.items() if c < 0}
                if bad:
                    negative_g.append((u, v, t, n, bad))
    # the two verdict tables must agree; at desk scale both are clean
    assert bool(flip_violations) == bool(negative_g)
    assert flip_violations == [] and negative_g == []
    _report(
        8,
        "flip-condition verdicts and g-nonnegativity at every t = z^-1 u "
        "agree (both clean across S4)",
        time.perf_counter() - started,
    )


def test_criterion_9_flag_vector_oracle_cross_check(s4_intervals):
    started = time.perf_counter()
    rng = random.Random(90125)
    chosen = rng.sample([(u, v) for u, v, _ in s4_intervals], 25)
    pairs5 = [(u, v) for u, v in s5_comparable_pairs() if length(v) - length(u) <= 6]
    chosen += rng.sample(pairs5, 25)
    for u, v in chosen:
        iv = build_interval(u, v)
        idx = complete_cd_index(u, v, path_sums(iv, lex_order(len(u))))
        assert flag_cd_index(iv) == top_degree_part(idx), (u, v)
    _report(
        9,
        f"top-degree part equals the flag-vector cd-index on {len(chosen)} "
        f"intervals of S4/S5",
        time.perf_counter() - started,
    )
