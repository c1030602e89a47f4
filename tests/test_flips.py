import itertools

import pytest

import cdindex.flips
from cdindex.errors import FlipUndefinedError
from cdindex.flips import (
    TSetTable,
    check_flip_condition,
    check_strong_flip_condition,
    compute_t_bar_set,
    compute_t_set,
    flip_pairing,
    path_contribution,
    position_factor,
)
from cdindex.intervals import BruhatPath, build_interval, label_string, rank_sequence
from cdindex.ncpoly import ad_form, cd_monomials
from cdindex.orders import lex_order, order_from_reduced_word
from cdindex.perms import identity, length, parse_perm


def names(paths, order):
    return sorted(label_string(p, order) for p in paths)


def sorted_pairing(t, tbar, order):
    """The pairing by sorting T-bar lexicographically under the primal order."""
    return dict(zip(t, sorted(tbar, key=lambda p: rank_sequence(p, order))))


S4_ORDERS = [lex_order(4), order_from_reduced_word(4, [1, 2, 1, 3, 2, 1])]


def s4_sinks():
    return [tuple(p) for p in itertools.permutations((1, 2, 3, 4))]


def cone_problems(sink):
    """Every (w, n) with w <= sink and a path length n that can reach it."""
    cone = build_interval(identity(len(sink)), sink)
    return [
        (w, n)
        for w in sorted(cone.elements)
        for n in range(length(sink) - length(w))
    ]


def test_t_sets_of_the_running_example(example_table, s4_lex):
    u = parse_perm("2134")
    assert names(compute_t_set(example_table, u, "cc"), s4_lex) == ["235", "346"]
    assert names(compute_t_set(example_table, u, "cccc"), s4_lex) == ["23456"]
    assert names(compute_t_set(example_table, u, "d"), s4_lex) == ["436"]
    assert names(compute_t_set(example_table, u, "dd"), s4_lex) == ["41516"]


def test_t_bar_sets_of_the_running_example(example_table, s4_lex):
    u = parse_perm("2134")
    assert names(compute_t_bar_set(example_table, u, "cc"), s4_lex) == ["521", "652"]
    assert names(compute_t_bar_set(example_table, u, "d"), s4_lex) == ["462"]
    assert names(compute_t_bar_set(example_table, u, "dd"), s4_lex) == ["45361"]


def test_intermediate_t_sets_with_ad_word_ada(example_table, s4_lex):
    assert names(example_table.t_set(parse_perm("2143"), "ADA"), s4_lex) == ["3416"]
    assert names(example_table.t_bar_set(parse_perm("2143"), "ADA"), s4_lex) == ["4361"]
    assert names(example_table.t_set(parse_perm("2314"), "ADA"), s4_lex) == ["1516"]
    assert names(example_table.t_bar_set(parse_perm("2314"), "ADA"), s4_lex) == ["5361"]


def test_candidates_for_d_and_their_flips(example_table, s4_lex):
    """The degree-2 paths with word DA are 436, 514, 625; splicing each tail
    through the flip gives 462, 521, 652, and only the first reads AD."""
    u = parse_perm("2134")
    candidates = [
        p for p in example_table.paths(u, 2) if example_table.word(p) == "DA"
    ]
    assert names(candidates, s4_lex) == ["436", "514", "625"]
    flipped = {}
    for p in candidates:
        image = example_table.flip(p.vertices[1], "A")[p.tail()]
        whole = BruhatPath((p.vertices[0],) + image.vertices, (p.labels[0],) + image.labels)
        flipped[label_string(p, s4_lex)] = (
            label_string(whole, s4_lex),
            example_table.word(whole),
        )
    assert flipped == {
        "436": ("462", "AD"),
        "514": ("521", "DD"),
        "625": ("652", "DD"),
    }


def test_flip_images_from_the_dd_computation(example_table, s4_lex):
    pair_2143 = example_table.flip(parse_perm("2143"), "ADA")
    assert {
        label_string(k, s4_lex): label_string(v, s4_lex) for k, v in pair_2143.items()
    } == {"3416": "4361"}
    pair_2314 = example_table.flip(parse_perm("2314"), "ADA")
    assert {
        label_string(k, s4_lex): label_string(v, s4_lex) for k, v in pair_2314.items()
    } == {"1516": "5361"}


def test_flip_pairing_is_lex_monotone(example_table, s4_lex):
    u = parse_perm("2134")
    pairing = flip_pairing(example_table, u, "cc")
    named = {label_string(k, s4_lex): label_string(v, s4_lex) for k, v in pairing.items()}
    assert named == {"235": "521", "346": "652"}


def test_t_bar_equals_t_under_reversed_order(example_table):
    u = parse_perm("2134")
    rev_table = example_table.reversed_table()
    for monomial in ("cc", "d", "dd", "cccc", "cdc"):
        gamma = ad_form(monomial)
        assert example_table.t_bar_set(u, gamma) == rev_table.t_set(u, gamma)
        assert rev_table.t_bar_set(u, gamma) == example_table.t_set(u, gamma)


def test_t_bar_matches_a_freshly_built_reverse_table(example_table, s4_lex):
    fresh = TSetTable(parse_perm("4321"), s4_lex.reversed())
    u = parse_perm("2134")
    for monomial in ("cc", "d", "dd", "ccd", "cdc", "dcc", "cccc"):
        gamma = ad_form(monomial)
        assert example_table.t_bar_set(u, gamma) == fresh.t_set(u, gamma)


@pytest.mark.parametrize("order", S4_ORDERS, ids=["lex", "word121321"])
def test_twin_paths_match_a_fresh_reverse_order_enumeration(order):
    rev = order.reversed()
    for sink in s4_sinks():
        table = TSetTable(sink, order)
        twin = table.reversed_table()
        fresh = TSetTable(sink, rev)
        for w, n in cone_problems(sink):
            shared = twin.paths(w, n)
            assert shared == fresh.paths(w, n), (sink, w, n)
            primal = table.paths(w, n)
            assert len(shared) == len(primal)
            assert all(a is b for a, b in zip(shared, reversed(primal)))


def test_twin_enumerates_no_paths(monkeypatch, s4_lex):
    sink = parse_perm("4321")
    table = TSetTable(sink, s4_lex)
    problems = cone_problems(sink)
    for w, n in problems:
        table.paths(w, n)
    calls = []
    real = cdindex.flips.iter_paths
    monkeypatch.setattr(
        cdindex.flips, "iter_paths", lambda *a: calls.append(a) or real(*a)
    )
    twin = table.reversed_table()
    for w, n in problems:
        twin.paths(w, n)
        for monomial in cd_monomials(n):
            twin.t_set(w, ad_form(monomial))
            twin.flip(w, ad_form(monomial))
    assert calls == []


@pytest.mark.parametrize("order", S4_ORDERS, ids=["lex", "word121321"])
def test_flip_equals_the_sorted_pairing(order):
    """flip pairs T with T-bar reversed; the oracle sorts an independently
    enumerated T-bar by the primal label ranks instead."""
    rev = order.reversed()
    checked = 0
    for sink in s4_sinks():
        table = TSetTable(sink, order)
        fresh = TSetTable(sink, rev)
        for w, n in cone_problems(sink):
            if n > 4:
                continue
            for monomial in cd_monomials(n):
                gamma = ad_form(monomial)
                expected = sorted_pairing(
                    table.t_set(w, gamma), fresh.t_set(w, gamma), order
                )
                assert table.flip(w, gamma) == expected, (sink, w, monomial)
                checked += bool(expected)
    assert checked > 100


def test_t_sets_are_sorted_lexicographically(example_table):
    u = parse_perm("2134")
    for monomial in ("cc", "dd", "cdc", "ccd"):
        paths = compute_t_set(example_table, u, monomial)
        keys = [rank_sequence(p, example_table.order) for p in paths]
        assert keys == sorted(keys)


def test_path_contribution_values(example_table, s4_lex):
    u = parse_perm("2134")
    by_name = {
        label_string(p, s4_lex): p for p in example_table.paths(u, 4)
    }
    assert path_contribution(by_name["41516"], "dd", example_table) == 1
    # flipping 62646 at the inner d-position gives 62654, whose word fails
    assert path_contribution(by_name["62646"], "dd", example_table) == 0
    # a word mismatch at an A-position exits with 0
    assert path_contribution(by_name["23456"], "dd", example_table) == 0
    for p in compute_t_set(example_table, u, "dd"):
        assert path_contribution(p, "dd", example_table) == 1


def test_position_factor_basics(example_table, s4_lex):
    u = parse_perm("2134")
    by_name = {label_string(p, s4_lex): p for p in example_table.paths(u, 4)}
    # ascending path at an A-letter
    assert position_factor(by_name["23456"], 1, "AAAA", example_table) == 1
    # a descent at an A-letter
    assert position_factor(by_name["63416"], 1, "AAAA", example_table) == 0
    # 63416: flipping the tail at position 3 keeps the +1 factor
    assert position_factor(by_name["63416"], 3, "DADA", example_table) == 1
    # 62646: the spliced letter fails, factor 0
    assert position_factor(by_name["62646"], 3, "DADA", example_table) == 0
    # 23464: the tail 64 from position 3 reads D, outside T_A, so no flip
    with pytest.raises(FlipUndefinedError):
        position_factor(by_name["23464"], 3, "DADA", example_table)


def test_path_length_mismatch_is_rejected(example_table):
    u = parse_perm("2134")
    (path,) = compute_t_set(example_table, u, "d")
    with pytest.raises(ValueError):
        path_contribution(path, "dd", example_table)


def test_check_flip_condition_on_the_example(example_interval, example_table):
    for n in (0, 2, 4):
        for monomial in cd_monomials(n):
            assert check_flip_condition(example_interval.u, monomial, example_table) is None


def test_check_flip_condition_vacuous_for_c_powers(example_interval, example_table):
    assert check_flip_condition(example_interval.u, "cccc", example_table) is None


def test_strong_flip_condition_on_the_example(example_interval, example_table):
    for monomial in ("cc", "cccc", "ccd", "cdc"):
        assert (
            check_strong_flip_condition(example_interval.u, monomial, example_table)
            is None
        )


def test_strong_flip_condition_requires_leading_c(example_interval, example_table):
    with pytest.raises(ValueError):
        check_strong_flip_condition(example_interval.u, "d", example_table)


def test_flip_undefined_is_raised_on_size_mismatch(example_table, monkeypatch):
    u = parse_perm("2134")
    gamma = "AA"
    t = example_table.t_set(u, gamma)
    # doctor the twin's memo to drop one element, then ask for the pairing
    twin = example_table.reversed_table()
    shrunk = twin.t_set(u, gamma)[1:]
    monkeypatch.setitem(twin._tsets, (u, gamma), shrunk)
    monkeypatch.delitem(example_table._flips, (u, gamma), raising=False)
    with pytest.raises(FlipUndefinedError) as info:
        example_table.flip(u, gamma)
    assert info.value.t_size == len(t)
    assert info.value.tbar_size == len(t) - 1


def test_empty_word_t_set_is_the_single_edge_path(example_table):
    u = parse_perm("2134")
    assert example_table.t_set(u, "") == ()  # 2134 -> 4321 is not an edge
    w = parse_perm("4312")
    paths = example_table.t_set(w, "")
    assert len(paths) == 1 and paths[0].n == 0
