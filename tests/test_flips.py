import gc
import itertools
import json
import sys
import types
import weakref

import pytest

from cdindex import cli, flips, verify
from cdindex.complete import degree_range
from cdindex.errors import FlipUndefinedError
from cdindex.flips import (
    TSetTable,
    check_flip_condition,
    check_strong_flip_condition,
    path_contribution,
    position_factor,
    sum_contributions,
)
from cdindex.intervals import (
    BruhatPath,
    ad_word,
    build_interval,
    iter_paths,
    label_string,
    rank_sequence,
)
from cdindex.ncpoly import ad_form, cd_monomials
from cdindex.orders import lex_order, order_from_reduced_word
from cdindex.perms import format_perm, identity, length, parse_perm
from cdindex.verify import iter_intervals, scan_interval

from . import oracles
from .oracles import (
    flip_dict_counts,
    t_set_members,
    table_path_words,
    table_paths,
    tail_from,
    walked_contribution_sum,
    walked_flip_condition,
    word_buckets,
    word_path_t_set,
    word_paths,
)


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


@pytest.mark.parametrize("n, word", [
    (4, None), (4, [1, 2, 1, 3, 2, 1]), (5, None), (5, [2, 1, 3, 4, 3, 2, 3, 1, 4, 2]),
], ids=["s4-lex", "s4-word", "s5-lex", "s5-word"])
def test_table_cone_equals_the_built_cone(n, word):
    """For every sink: the cone a table reads off the group graph has the
    elements, gaps and rank-sorted out-edges of build_interval(e, sink)."""
    order = lex_order(n) if word is None else order_from_reduced_word(n, word)
    for sink in itertools.permutations(range(1, n + 1)):
        cone = build_interval(identity(n), sink)
        table = TSetTable(sink, order)
        assert table.gaps == {x: length(sink) - length(x) for x in cone.elements}
        assert table._adjacency == {
            x: tuple(sorted(out, key=lambda ty: order.rank(ty[0])))
            for x, out in cone.adjacency.items()
        }


def test_t_sets_of_the_running_example(example_table, s4_lex):
    u = parse_perm("2134")
    t_set = example_table.t_set
    assert names(t_set(u, ad_form("cc")), s4_lex) == ["235", "346"]
    assert names(t_set(u, ad_form("cccc")), s4_lex) == ["23456"]
    assert names(t_set(u, ad_form("d")), s4_lex) == ["436"]
    assert names(t_set(u, ad_form("dd")), s4_lex) == ["41516"]


def test_t_bar_sets_of_the_running_example(example_table, s4_lex):
    u = parse_perm("2134")
    t_set = example_table.t_set
    assert names(t_set(u, ad_form("cc"), bar=True), s4_lex) == ["521", "652"]
    assert names(t_set(u, ad_form("d"), bar=True), s4_lex) == ["462"]
    assert names(t_set(u, ad_form("dd"), bar=True), s4_lex) == ["45361"]


def test_intermediate_t_sets_with_ad_word_ada(example_table, s4_lex):
    assert names(example_table.t_set(parse_perm("2143"), "ADA"), s4_lex) == ["3416"]
    assert names(example_table.t_set(parse_perm("2143"), "ADA", bar=True), s4_lex) == ["4361"]
    assert names(example_table.t_set(parse_perm("2314"), "ADA"), s4_lex) == ["1516"]
    assert names(example_table.t_set(parse_perm("2314"), "ADA", bar=True), s4_lex) == ["5361"]


def test_candidates_for_d_and_their_flips(example_table, s4_lex):
    """The degree-2 paths with word DA are 436, 514, 625; splicing each tail
    through the flip gives 462, 521, 652, and only the first reads AD."""
    u = parse_perm("2134")
    candidates = [
        p for p in table_paths(example_table, u, 2) if example_table.word(p) == "DA"
    ]
    assert names(candidates, s4_lex) == ["436", "514", "625"]
    flipped = {}
    for p in candidates:
        image = example_table.flip(p.vertices[1], "A")[tail_from(p, 1)]
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
    pairing = example_table.flip(u, ad_form("cc"))
    named = {label_string(k, s4_lex): label_string(v, s4_lex) for k, v in pairing.items()}
    assert named == {"235": "521", "346": "652"}


def test_t_bar_equals_t_under_reversed_order(example_table, s4_lex):
    u = parse_perm("2134")
    rev_table = TSetTable(parse_perm("4321"), s4_lex.reversed())
    for monomial in ("cc", "d", "dd", "cccc", "cdc"):
        gamma = ad_form(monomial)
        assert example_table.t_set(u, gamma, bar=True) == rev_table.t_set(u, gamma)
        assert rev_table.t_set(u, gamma, bar=True) == example_table.t_set(u, gamma)


def test_t_bar_matches_a_freshly_built_reverse_table(example_table, s4_lex):
    fresh = TSetTable(parse_perm("4321"), s4_lex.reversed())
    u = parse_perm("2134")
    for monomial in ("cc", "d", "dd", "ccd", "cdc", "dcc", "cccc"):
        gamma = ad_form(monomial)
        assert example_table.t_set(u, gamma, bar=True) == fresh.t_set(u, gamma)


@pytest.mark.parametrize("order", S4_ORDERS, ids=["lex", "word121321"])
def test_twin_paths_match_a_fresh_reverse_order_enumeration(order):
    """The T-bar side walks each out-edge list backwards, which is a fresh
    reverse-order table's rank-sorted list, so the paths a replay walks in
    that table come in its own lex order: this table's, reversed."""
    rev = order.reversed()
    for sink in s4_sinks():
        table = TSetTable(sink, order)
        fresh = TSetTable(sink, rev)
        assert fresh._adjacency == {x: out[::-1] for x, out in table._adjacency.items()}, sink
        assert fresh.gaps == table.gaps
        for w, n in cone_problems(sink):
            walked = tuple(iter_paths(fresh._adjacency, w, sink, n))
            assert walked == table_paths(table, w, n)[::-1], (sink, w, n)
            assert table_paths(fresh, w, n) == walked, (sink, w, n)


def count_calls(monkeypatch, original):
    """Replace `original` in every cdindex module by a wrapper that records
    its calls; returns the list of recorded argument tuples."""
    calls = []
    modules = [m for k, m in sys.modules.items() if k == "cdindex" or k.startswith("cdindex.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, lambda *a: calls.append(a) or original(*a))
    return calls


def bar(gamma):
    return gamma.translate(str.maketrans("AD", "DA"))


def word_problems(sink):
    """Every (w, gamma) with w <= sink and gamma an AD-word of a length in
    cone_problems, parity-dead lengths included."""
    return [
        (w, "".join(letters))
        for w, n in cone_problems(sink)
        for letters in itertools.product("AD", repeat=n)
    ]


@pytest.mark.parametrize("order", S4_ORDERS, ids=["lex", "word121321"])
def test_word_paths_are_the_paths_filtered_by_word_on_s4(order):
    """The oracle's suffix-shared word-path store against the plain route:
    all length-n paths, in rank-lex order, filtered by their recomputed word."""
    for sink in s4_sinks():
        primal = TSetTable(sink, order)
        for table in (primal, TSetTable(sink, order.reversed())):
            for w, gamma in word_problems(sink):
                expected = tuple(
                    p for p in table_paths(table, w, len(gamma))
                    if ad_word(p, table.order) == gamma
                )
                assert word_paths(table, w, gamma) == expected, (sink, w, gamma)


@pytest.mark.parametrize("order", S4_ORDERS, ids=["lex", "word121321"])
def test_twin_word_paths_are_the_primal_barred_tuples_reversed(order, monkeypatch):
    """The oracle's reverse-order word paths share the table's tuples for
    the barred words, reversed, extending nothing of their own, and equal
    the word paths of a fresh reverse-order table."""
    extended, extensions = [], 0
    real = oracles._extend
    monkeypatch.setattr(
        oracles, "_extend", lambda table, *a: extended.append(table) or real(table, *a)
    )
    for sink in s4_sinks():
        table = TSetTable(sink, order)
        shared = {(w, g): word_paths(table, w, g, bar=True) for w, g in word_problems(sink)}
        assert all(t is table for t in extended), sink
        extensions += len(extended)
        fresh = TSetTable(sink, order.reversed())
        for (w, gamma), paths in shared.items():
            primal = word_paths(table, w, bar(gamma))
            assert len(paths) == len(primal)
            assert all(a is b for a, b in zip(paths, reversed(primal))), (sink, w, gamma)
            assert paths == word_paths(fresh, w, gamma), (sink, w, gamma)
        extended.clear()
    assert extensions > 100


def test_t_sets_build_each_path_once_from_the_suffix_t_sets(monkeypatch, s4_lex):
    """Over every (w, gamma) of the S_4 w0 table, on both sides, each
    `t_set` call constructs one BruhatPath per path it returns, and each
    `flip` call one per path of T and of T-bar, though every call walks its
    T-set anew; neither calls `iter_paths` nor `position_factor`."""
    built = []
    monkeypatch.setattr(
        flips, "BruhatPath", lambda *a: built.append(a) or BruhatPath(*a)
    )
    enumerations = count_calls(monkeypatch, iter_paths)
    factors = count_calls(monkeypatch, position_factor)
    sink = parse_perm("4321")
    table = TSetTable(sink, s4_lex)
    sizes = 0
    for w, gamma in word_problems(sink):
        for bar in (False, True):
            built.clear()
            paths = table.t_set(w, gamma, bar)
            assert [BruhatPath(*a) for a in built] == list(paths), (w, gamma, bar)
            sizes += len(paths)
        built.clear()
        pairing = table.flip(w, gamma)
        assert len(built) == 2 * len(pairing), (w, gamma)
    assert sizes > 0
    assert enumerations == [] and factors == []


def test_a_table_keeps_no_path(s4_lex):
    """After `t_set` on both sides and `flip` on every (w, gamma) of the S_4
    w0 table, no BruhatPath is reachable from the table: its memos hold
    counts, spans and kept edges, never paths."""
    sink = parse_perm("4321")
    table = TSetTable(sink, s4_lex)
    sizes = 0
    for w, gamma in word_problems(sink):
        sizes += len(table.t_set(w, gamma)) + len(table.t_set(w, gamma, bar=True))
        table.flip(w, gamma)
    assert sizes > 0
    # classes, modules and functions lead to globals, not to the table's state
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack = set(), [table]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        assert type(obj) is not BruhatPath, obj
        stack.extend(gc.get_referents(obj))
    assert id(table._counts) in seen


def test_a_dropped_table_is_freed_without_the_collector(s4_lex):
    """A table holds both sides itself and no reference to itself, so
    dropping its last reference frees it at once, with the collector off,
    after the checks have filled the memos of both sides."""
    sink, u = parse_perm("4321"), parse_perm("2134")
    enabled = gc.isenabled()
    gc.disable()
    try:
        table = TSetTable(sink, s4_lex)
        for monomial in cd_monomials(4):
            check_flip_condition(u, monomial, table)
            sum_contributions(u, monomial, table)
            table.flip(u, ad_form(monomial))
        assert any(bar for _, _, bar in table._counts) and table._kept
        ref = weakref.ref(table)
        del table
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_t_sets_enumerate_no_paths_and_recompute_no_words(monkeypatch, s4_lex):
    """T-sets and flips walk only the counts' tail ranges: no enumeration
    and no word recomputed."""
    enumerations = count_calls(monkeypatch, iter_paths)
    words = []
    real_word = TSetTable.word
    monkeypatch.setattr(
        TSetTable, "word", lambda self, p: words.append(p) or real_word(self, p)
    )
    sink = parse_perm("4321")
    table = TSetTable(sink, s4_lex)
    sizes = 0
    for w, n in cone_problems(sink):
        for monomial in cd_monomials(n):
            gamma = ad_form(monomial)
            sizes += len(table.t_set(w, gamma)) + len(table.t_set(w, gamma, bar=True))
            table.flip(w, gamma)
    assert sizes > 0
    assert enumerations == [] and words == []


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
        paths = example_table.t_set(u, ad_form(monomial))
        keys = [rank_sequence(p, example_table.order) for p in paths]
        assert keys == sorted(keys)


def test_path_contribution_values(example_table, s4_lex):
    u = parse_perm("2134")
    by_name = {
        label_string(p, s4_lex): p for p in table_paths(example_table, u, 4)
    }
    assert path_contribution(by_name["41516"], "dd", example_table) == 1
    # flipping 62646 at the inner d-position gives 62654, whose word fails
    assert path_contribution(by_name["62646"], "dd", example_table) == 0
    # a word mismatch at an A-position exits with 0
    assert path_contribution(by_name["23456"], "dd", example_table) == 0
    for p in example_table.t_set(u, ad_form("dd")):
        assert path_contribution(p, "dd", example_table) == 1


def test_position_factor_basics(example_table, s4_lex):
    u = parse_perm("2134")
    by_name = {label_string(p, s4_lex): p for p in table_paths(example_table, u, 4)}
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
    (path,) = example_table.t_set(u, ad_form("d"))
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


def test_flip_undefined_is_raised_on_size_mismatch(s4_lex, monkeypatch):
    """On a table of its own, so that no memo another test filled hides
    the doctored counts."""
    example_table = TSetTable(parse_perm("4321"), s4_lex)
    u = parse_perm("2134")
    gamma = "AA"
    t = example_table.t_set(u, gamma)
    # make `t_set` return T-bar one path short, then ask for the pairing
    real = TSetTable.t_set

    def short(self, w, gamma, bar=False):
        paths = real(self, w, gamma, bar)
        return paths[1:] if bar else paths

    monkeypatch.setattr(TSetTable, "t_set", short)
    with pytest.raises(FlipUndefinedError) as info:
        example_table.flip(u, gamma)
    assert (info.value.t_size, info.value.tbar_size) == (len(t), len(t) - 1)
    monkeypatch.setattr(TSetTable, "t_set", real)
    fewer = tuple(max(0, c - 1) for c in example_table.counts(u, gamma, bar=True))
    monkeypatch.setitem(example_table._counts, (u, gamma, True), fewer)
    with pytest.raises(FlipUndefinedError) as info:
        example_table.images_upto(u, gamma, 1)
    assert (info.value.t_size, info.value.tbar_size) == (len(t), len(t) - 1)
    with pytest.raises(FlipUndefinedError) as info:
        example_table.images_upto(u, gamma, 1, bar=True)
    assert (info.value.t_size, info.value.tbar_size) == (len(t) - 1, len(t))


def test_empty_word_t_set_is_the_single_edge_path(example_table):
    u = parse_perm("2134")
    assert example_table.t_set(u, "") == ()  # 2134 -> 4321 is not an edge
    w = parse_perm("4312")
    paths = example_table.t_set(w, "")
    assert len(paths) == 1 and paths[0].n == 0


DP_ORDERS = [
    pytest.param(4, "lex", id="s4-lex"),
    pytest.param(4, "rev", id="s4-rev"),
    pytest.param(4, [1, 2, 1, 3, 2, 1], id="s4-word"),
    pytest.param(5, [2, 1, 3, 4, 3, 2, 3, 1, 4, 2], id="s5-word"),
]


def order_of(n, spec):
    if spec == "lex":
        return lex_order(n)
    if spec == "rev":
        return lex_order(n).reversed()
    return order_from_reduced_word(n, spec)


@pytest.mark.parametrize("n, spec", DP_ORDERS)
def test_sums_dp_equals_the_sums_of_the_table_paths(n, spec, paused_gc):
    """For every sink, cone vertex and path length: the sums DP holds the
    first-label sums of the table's paths, bucket for bucket and in the
    same rank order, and `graded_sums` collects the degrees of [w, sink].
    The paths are counted one by one, each by its first-label rank and
    word (`table_path_words`); on S_4 those are checked against the paths
    themselves."""
    order = order_of(n, spec)
    for sink in itertools.permutations(range(1, n + 1)):
        table = TSetTable(sink, order)
        for w, gap in table.gaps.items():
            for k in range(-1, gap + 1):
                words = table_path_words(table, w, k)
                if n == 4:
                    assert words == tuple(
                        (order.rank(p.labels[0]), ad_word(p, order))
                        for p in table_paths(table, w, k)
                    )
                expected = word_buckets(words)
                assert list(table.sums(w, k).items()) == list(expected.items()), (sink, w, k)
            assert table.graded_sums(w) == {k: table.sums(w, k) for k in degree_range(gap)}


def outcome(fn, *args):
    """The value of fn(*args), or the message of the FlipUndefinedError it raises."""
    try:
        return "value", fn(*args)
    except FlipUndefinedError as exc:
        return "raise", str(exc)


def assert_checks_match_the_walks(u, monomial, table):
    got = outcome(sum_contributions, u, monomial, table)
    assert got == outcome(walked_contribution_sum, u, monomial, table), (u, monomial)
    walked = walked_flip_condition(u, monomial, table)
    assert check_flip_condition(u, monomial, table) == walked, (u, monomial)
    return got, walked


@pytest.mark.parametrize("n, spec", DP_ORDERS)
def test_dp_checks_equal_the_path_walks(n, spec, paused_gc):
    """`sum_contributions` and `check_flip_condition`, read off the flip DP,
    against the walks over every path: on every interval of S_4 (also on a
    table under the reversed order), and on the S_5 intervals of gap <= 5.
    These orders have no violation, so the DP finds no -1 anywhere and
    answers every check without a walk."""
    order = order_of(n, spec)
    sinks = {}
    for u, v in iter_intervals(n, 5 if n == 5 else None):
        sinks.setdefault(v, []).append(u)
    for v, sources in sinks.items():
        table = TSetTable(v, order)
        checked = [table] if n == 5 else [table, TSetTable(v, order.reversed())]
        for u in sources:
            for each in checked:
                for k in degree_range(each.gaps[u]):
                    for monomial in cd_monomials(k):
                        assert not each.has_minus_one(u, ad_form(monomial)), (u, v, monomial)
                        assert_checks_match_the_walks(u, monomial, each)


def collapse_flips(monkeypatch):
    """Mutate every flip to send each T path to the first T-bar path in
    primal lex order, both the path dict and the counts of its images,
    after the real size check: `images_upto` becomes a step of height |T|
    at the first image's rank, on both sides.  The real images are
    nondecreasing in r, so r is at or above that rank exactly when some
    real image has rank <= r.  T-sets then change too, because they read
    those counts."""
    real = TSetTable.flip
    real_images = TSetTable.images_upto

    def collapsed(self, w, gamma):
        mapping = real(self, w, gamma)
        first = next(iter(mapping.values()), None)
        return {x: first for x in mapping}

    def collapsed_images(self, w, gamma, r, bar=False):
        if real_images(self, w, gamma, r, bar):
            return self.counts(w, gamma, bar)[-1]
        return 0

    monkeypatch.setattr(TSetTable, "flip", collapsed)
    monkeypatch.setattr(TSetTable, "images_upto", collapsed_images)


def record_t_set_calls(monkeypatch):
    """Wrap `TSetTable.t_set`, as patched so far, to record the
    (w, gamma, bar) of each call; returns the list of records."""
    calls = []
    inner = TSetTable.t_set

    def recorded(self, w, gamma, bar=False):
        calls.append((w, gamma, bar))
        return inner(self, w, gamma, bar)

    monkeypatch.setattr(TSetTable, "t_set", recorded)
    return calls


def record_flip_calls(monkeypatch):
    """Wrap `TSetTable.flip`, as patched so far, to record the
    (sink, w, gamma) of each call; returns the list of records."""
    calls = []
    inner = TSetTable.flip

    def recorded(self, w, gamma):
        calls.append((self.sink, w, gamma))
        return inner(self, w, gamma)

    monkeypatch.setattr(TSetTable, "flip", recorded)
    return calls


# Intervals of S_5 on which the collapsed flip breaks the flip condition
# (V) or leaves a contribution sum undefined (U) under lex, found by a
# sweep of the S_5 gaps <= 7; the last one stays clean.
COLLAPSED_CASES = [
    ("12435", "45231"),  # V cddc, U ddd
    ("13425", "45231"),  # V ddc
    ("13425", "45321"),  # V ddcc, U ddd
    ("31245", "54312"),  # U ddd
    ("12345", "23451"),
]


def test_collapsed_flip_checks_equal_the_path_walks(monkeypatch):
    """Under a wrong flip the DP still agrees with the walks on every
    (u, monomial): each -1 it finds, or undefined flip it meets, hands the
    check to the walk, which names the same witness or raises the same
    error; where it finds no -1 the walk finds none either."""
    collapse_flips(monkeypatch)
    order = lex_order(5)
    for u, v in COLLAPSED_CASES:
        u, v = parse_perm(u), parse_perm(v)
        table = TSetTable(v, order)
        for k in degree_range(table.gaps[u]):
            for monomial in cd_monomials(k):
                _, walked = assert_checks_match_the_walks(u, monomial, table)
                dp = outcome(table.has_minus_one, u, ad_form(monomial))
                if walked is not None and walked.kind == "minus-one-at-m":
                    assert dp != ("value", False), (u, monomial)
    u, v = parse_perm("12435"), parse_perm("45231")
    table = TSetTable(v, order)
    witness = check_flip_condition(u, "cddc", table)
    assert witness.kind == "minus-one-at-m"
    assert table.has_minus_one(u, ad_form("cddc"))
    with pytest.raises(FlipUndefinedError):
        sum_contributions(u, "ddd", table)


def replay_collapsed_cases():
    """`sum_contributions` and `check_flip_condition` on every monomial of
    every collapsed case under lex; returns the outcome kinds seen."""
    kinds = set()
    for u, v in COLLAPSED_CASES:
        u, v = parse_perm(u), parse_perm(v)
        table = TSetTable(v, lex_order(5))
        for k in degree_range(table.gaps[u]):
            for monomial in cd_monomials(k):
                kinds.add(outcome(sum_contributions, u, monomial, table)[0])
                witness = check_flip_condition(u, monomial, table)
                kinds.add(witness and witness.kind)
    return kinds


def test_collapsed_replays_build_no_flip_dicts(monkeypatch):
    """The witness replay reads each flip image's first-label rank off the
    image counts by the tail's position in T, which `index` ranks from the
    counts, so replaying every check of the collapsed cases, violations
    and undefined flips included, builds no path flip dict and no T-set."""
    collapse_flips(monkeypatch)
    flip_calls = record_flip_calls(monkeypatch)
    t_set_calls = record_t_set_calls(monkeypatch)
    assert {"raise", "minus-one-at-m", "size-mismatch"} <= replay_collapsed_cases()
    assert flip_calls == [] and t_set_calls == []


def record_ranges_calls(monkeypatch):
    """Wrap `TSetTable._ranges` to record, for each call, its table, its
    (w, gamma, bar) key and the name of the calling function; returns the
    list of records."""
    calls = []
    inner = TSetTable._ranges

    def recorded(self, w, gamma, bar=False):
        calls.append((self, (w, gamma, bar), sys._getframe(1).f_code.co_name))
        return inner(self, w, gamma, bar)

    monkeypatch.setattr(TSetTable, "_ranges", recorded)
    return calls


def test_each_sub_problem_runs_its_ranges_once(monkeypatch):
    """`counts` is the one caller of `_ranges`, and no (w, gamma, bar) runs
    it twice on one table: not in a clean scan of every interval under the
    S_4 sink w0, under lex and rev; not in the flip that `tset` builds on
    the S_5 sink w0; and not in the replays of the collapsed cases, whose
    `index` calls rank tails along the kept edges the counts stored."""
    calls = record_ranges_calls(monkeypatch)
    v = parse_perm("4321")
    for order_id, order in (("lex", lex_order(4)), ("rev", lex_order(4).reversed())):
        table = TSetTable(v, order)
        for u in table.gaps:
            if u != v:
                assert scan_interval(u, order_id, table)["clean"], (order_id, u)
    seed1 = order_from_reduced_word(5, [2, 1, 3, 4, 3, 2, 3, 1, 4, 2])
    assert TSetTable(parse_perm("54321"), seed1).flip(identity(5), ad_form("ddddc"))
    collapse_flips(monkeypatch)
    assert {"raise", "minus-one-at-m", "size-mismatch"} <= replay_collapsed_cases()
    assert calls and {caller for _, _, caller in calls} == {"counts"}
    keys = [(id(table), key) for table, key, _ in calls]
    assert len(set(keys)) == len(keys)


def test_a_violating_replay_walks_the_paths_lazily_up_to_its_witness(monkeypatch):
    """Under the collapsed flip, the replay of a violating flip condition
    pulls the paths from `iter_paths` in lex order and stops at its witness,
    short of the interval's last path."""
    collapse_flips(monkeypatch)
    pulled = []

    def counting(*args):
        for path in iter_paths(*args):
            pulled.append(path)
            yield path

    monkeypatch.setattr(flips, "iter_paths", counting)
    u, v = parse_perm("12435"), parse_perm("45231")
    table = TSetTable(v, lex_order(5))
    witness = check_flip_condition(u, "cddc", table)
    assert witness.kind == "minus-one-at-m"
    every = table_paths(table, u, len(ad_form("cddc")))
    assert pulled == list(every[: every.index(witness.path) + 1])
    assert 0 < len(pulled) < len(every)


def assert_t_sets_equal_the_word_path_route(sink, order):
    """`t_set` against `word_path_t_set` on every (w, gamma) of the sink's
    table and of a fresh table under the reversed order, in value or in the
    FlipUndefinedError message, and the fresh table's T-sets against the
    T-bar sets of the first; returns the outcome kinds, one per case."""
    table = TSetTable(sink, order)
    fresh = TSetTable(sink, order.reversed())
    lookups = {each: t_set_members(each) for each in (table, fresh)}
    kinds = []
    for w, gamma in word_problems(sink):
        for each in (table, fresh):
            expected = outcome(word_path_t_set, each, w, gamma, lookups[each])
            assert outcome(each.t_set, w, gamma) == expected, (sink, w, gamma)
            kinds.append(expected[0])
        assert outcome(table.t_set, w, gamma, True) == outcome(fresh.t_set, w, gamma)
    return kinds


# Every S_4 sink under three orders, or the S_5 sink w0 under one.
SINK_CASES = [
    pytest.param(4, "lex", id="s4-lex"),
    pytest.param(4, "rev", id="s4-rev"),
    pytest.param(4, [1, 2, 1, 3, 2, 1], id="s4-word"),
    pytest.param(5, [2, 1, 3, 4, 3, 2, 3, 1, 4, 2], id="s5-w0-word"),
]


def case_sinks(n):
    return s4_sinks() if n == 4 else [tuple(range(n, 0, -1))]


@pytest.mark.parametrize("n, spec", SINK_CASES)
def test_t_sets_equal_the_word_path_route(n, spec, paused_gc):
    """Every S_4 sink, or the S_5 sink w0: T-sets walked along the counts
    are the word paths filtered by membership and `position_factor`."""
    order = order_of(n, spec)
    for v in case_sinks(n):
        assert "raise" not in assert_t_sets_equal_the_word_path_route(v, order)


def lazy_table(sink, order):
    """A table asked, by the lazy route, for the counts of both sides and
    the -1 flag of every (w, gamma) that a scan of every interval under
    `sink` asks for."""
    table = TSetTable(sink, order)
    for w, gap in table.gaps.items():
        for k in degree_range(gap):
            for monomial in cd_monomials(k):
                gamma = ad_form(monomial)
                table.counts(w, gamma)
                table.counts(w, gamma, True)
                table.has_minus_one(w, gamma)
    return table


@pytest.mark.parametrize("n, spec", SINK_CASES)
def test_the_level_pass_stores_what_the_lazy_route_stores(n, spec, paused_gc):
    """Every S_4 sink, or the S_5 sink w0: the level pass over the whole
    cone fills, declining nowhere.  On every (w, gamma, side) that both
    routes hold, its counts, kept edges and -1 flags are the lazy route's,
    and it holds every entry of the lazy route at a vertex from which a
    path with that word leaves.  On S_4 a pass with a smaller window
    fills the entries of the vertices within it, and no other."""
    order = order_of(n, spec)
    for v in case_sinks(n):
        filled = TSetTable(v, order)
        top = max(filled.gaps.values())
        assert filled.fill_levels(top), v
        lazy = lazy_table(v, order)
        for memo in ("_counts", "_kept", "_minus_one"):
            got, expected = getattr(filled, memo), getattr(lazy, memo)
            assert {key for key in expected if lazy._reaches(key[0], len(key[1]) + 1)} <= got.keys()
            for key in got.keys() & expected.keys():
                assert got[key] == expected[key], (v, memo, key)
        for window in range(top) if n == 4 else ():
            part = TSetTable(v, order)
            assert part.fill_levels(window), (v, window)
            within = {key: c for key, c in filled._counts.items() if filled.gaps[key[0]] <= window}
            assert part._counts == within, (v, window)


def scan_sink_outcome(v, sources, order):
    """`_scan_sink`'s records, each with elapsed_ms removed, or the message
    of the FlipUndefinedError it raises."""
    try:
        lines = cli._scan_sink((v, sources, order, "lex"))
    except FlipUndefinedError as exc:
        return "raise", str(exc)
    records = [json.loads(line) for line, _ in lines]
    for record in records:
        del record["elapsed_ms"]
    return "value", records


def test_collapsed_sink_jobs_equal_the_lazy_route(monkeypatch):
    """Under the collapsed flip, `_scan_sink` on each collapsed case's sink,
    with every source of its cone and with the case's source alone, returns
    the same records, or raises the same FlipUndefinedError message, as
    with the level pass switched off.  The pass fills only on the sink
    23451, where no -1 and no undefined flip shows; on the others it
    declines, removes what it wrote, and the lazy route runs alone.  No
    job raises: an undefined flip met while counting a T-set is a
    size-mismatch witness of an unclean record."""
    collapse_flips(monkeypatch)
    order = lex_order(5)
    jobs = [(parse_perm(v), [parse_perm(u)]) for u, v in COLLAPSED_CASES]
    for v in sorted({parse_perm(v) for _, v in COLLAPSED_CASES}):
        jobs.append((v, sorted(u for u in TSetTable(v, order).gaps if u != v)))
    real = TSetTable.fill_levels
    filled = {}

    def recorded(self, window):
        done = real(self, window)
        filled.setdefault(format_perm(self.sink), set()).add(done)
        # a declined pass leaves the fresh table as it found it
        assert done or not (self._counts or self._kept or self._minus_one)
        return done

    monkeypatch.setattr(TSetTable, "fill_levels", recorded)
    with_pass = [scan_sink_outcome(v, sources, order) for v, sources in jobs]
    monkeypatch.setattr(TSetTable, "fill_levels", lambda self, window: False)
    assert [scan_sink_outcome(v, sources, order) for v, sources in jobs] == with_pass
    assert filled == {"23451": {True}, "45231": {False}, "45321": {False}, "54312": {False}}
    kinds = {kind for kind, _ in with_pass}
    unclean = [r for kind, records in with_pass if kind == "value" for r in records if not r["clean"]]
    assert kinds == {"value"} and unclean
    assert any(
        w["kind"] == "size-mismatch" and r["monomials"][w["monomial"]]["t_size"] is None
        for r in unclean
        for w in r["witnesses"]
    )


@pytest.mark.parametrize("n, spec", SINK_CASES)
def test_index_is_the_position_in_the_t_set(n, spec):
    """Every S_4 sink, or the S_5 sink w0, on every (w, gamma) with gamma
    an AD-form: `index` gives each T-set path its position in
    `t_set(w, gamma)` and every other path None.  On S_4 the other paths
    are every length-|gamma| path w -> sink from `iter_paths`; on S_5 they
    are the paths whose AD-word is gamma, as every path under every word
    would take 14.4 million calls."""
    order = order_of(n, spec)
    for v in case_sinks(n):
        table = TSetTable(v, order)
        for w, k in cone_problems(v):
            every = list(iter_paths(table._adjacency, w, v, k)) if n == 4 else None
            for gamma in map(ad_form, cd_monomials(k)):
                where = {p: i for i, p in enumerate(table.t_set(w, gamma))}
                for p in every if n == 4 else word_paths(table, w, gamma):
                    assert table.index(p, 0, gamma) == where.get(p), (v, w, gamma, p)


def images(table, w, gamma, bar=False):
    """`images_upto` at every rank r = 0..N."""
    top = len(table.order.sequence)
    return tuple(table.images_upto(w, gamma, r, bar) for r in range(top + 1))


@pytest.mark.parametrize("n, spec", SINK_CASES)
def test_pair_ranks_equal_the_flip_dict_ranks(n, spec):
    """Every S_4 sink, or the S_5 sink w0, on the table and on a table
    under the reversed order: the counts that T-sets and the flip DP read,
    `counts` and `images_upto` at every r, are the cumulative first-label
    counts of T and of the images in the path flip dict, in value or in
    the FlipUndefinedError message."""
    order = order_of(n, spec)
    for v in case_sinks(n):
        for each in (TSetTable(v, order), TSetTable(v, order.reversed())):
            for w, gamma in word_problems(v):
                got = outcome(lambda: (each.counts(w, gamma), images(each, w, gamma)))
                assert got == outcome(flip_dict_counts, each, w, gamma), (v, w, gamma)



@pytest.mark.parametrize("n, spec", SINK_CASES)
def test_a_reverse_order_table_is_the_t_bar_side(n, spec):
    """Every S_4 sink, or the S_5 sink w0: a fresh table under the reversed
    order has, on each side, the counts, the image counts at every r and
    the T-sets of this table's other side, in value or in the
    FlipUndefinedError message."""
    order = order_of(n, spec)
    for v in case_sinks(n):
        table = TSetTable(v, order)
        fresh = TSetTable(v, order.reversed())
        for w, gamma in word_problems(v):
            for bar in (False, True):
                for read in (TSetTable.counts, images, TSetTable.t_set):
                    got = outcome(read, table, w, gamma, bar)
                    assert got == outcome(read, fresh, w, gamma, not bar), (
                        v, w, gamma, bar, read.__name__
                    )
            assert table.t_set(w, gamma, bar=True) == fresh.t_set(w, gamma)


def test_a_clean_scan_builds_flip_dicts_only_for_the_strong_check(
    s4_lex, monkeypatch, cold_memos
):
    """T-sets and the flip DP read counts, and a clean record's body is
    kept by its cause, so a clean scan of every interval of S_4 builds
    only the strong flip condition's flip dicts, and only for the
    intervals that run every check (`verify_coefficient` runs only
    there): the first of each class of equal graded sums and count
    profile.  One call per (u, M) of those, with M starting with c."""
    flip_calls = record_flip_calls(monkeypatch)
    coefficient_calls = count_calls(monkeypatch, verify.verify_coefficient)
    tables, causes = {}, {}
    pairs = list(iter_intervals(4))
    for u, v in pairs:
        table = tables.setdefault(v, TSetTable(v, s4_lex))
        record = scan_interval(u, "lex", table)
        assert record["clean"], (u, v)
        profile = tuple(
            table.counts(u, ad_form(m), bar) for m in record["monomials"] for bar in (False, True)
        )
        causes.setdefault((repr(table.graded_sums(u)), profile), (v, u))
    misses = [(table.sink, u, m) for u, m, table, _ in coefficient_calls]
    assert {(v, u) for v, u, _ in misses} == set(causes.values())
    assert 0 < len(causes) < len(pairs)
    strong = {(v, u, ad_form(m)) for v, u, m in misses if m.startswith("c")}
    assert strong and set(flip_calls) == strong and len(flip_calls) == len(strong)


def test_every_empty_count_is_one_shared_tuple(s4_lex):
    """After a clean scan of every interval under the S_4 sink w0, the
    counts of every empty T-set and T-bar set are the table's one all-zero
    tuple."""
    v = parse_perm("4321")
    table = TSetTable(v, s4_lex)
    for u in table.gaps:
        if u != v:
            assert scan_interval(u, "lex", table)["clean"], u
    zeros = [c for c in table._counts.values() if not any(c)]
    assert len(zeros) > 1 and len({id(c) for c in zeros}) == 1


def test_the_flip_dp_keeps_no_word_without_a_d(s4_lex):
    """A -1 factor sits only at a D, so `has_minus_one` answers a word
    with no D at once: after a scan of every interval of S_4, every word
    of the flip DP's memo holds a D."""
    sinks = {}
    for u, v in iter_intervals(4):
        sinks.setdefault(v, []).append(u)
    words = set()
    for v, sources in sinks.items():
        table = TSetTable(v, s4_lex)
        for u in sources:
            assert scan_interval(u, "lex", table)["clean"], (u, v)
        words |= {gamma for _, gamma in table._minus_one}
    assert words and all("D" in gamma for gamma in words), sorted(words)


def test_a_clean_scan_builds_t_sets_only_for_the_strong_check(
    s4_lex, monkeypatch, cold_memos
):
    """|T|, |T-bar|, the flip DP and the restricted counts read counts, so
    scanning [2134, 4321] builds the T-set and T-bar set at its source only
    for the strong flip condition: one call on each side for each M
    starting with c, and none elsewhere.  Scanned again, it takes its kept
    record body and builds none."""
    t_set_calls = record_t_set_calls(monkeypatch)
    u, v = parse_perm("2134"), parse_perm("4321")
    table = TSetTable(v, s4_lex)
    record = scan_interval(u, "lex", table)
    assert record["clean"]
    strong = [ad_form(m) for m in record["monomials"] if m.startswith("c")]
    expected = [(u, gamma, bar) for gamma in strong for bar in (False, True)]
    assert strong and t_set_calls == expected
    assert scan_interval(u, "lex", table)["monomials"] == record["monomials"]
    assert t_set_calls == expected


def test_collapsed_t_sets_equal_the_word_path_route(monkeypatch, paused_gc):
    """Under the collapsed flip the T-sets change and some flips are
    undefined; `t_set` still reads exactly the sub-problems the word-path
    route reads, so it returns the same set or raises the same error."""
    collapse_flips(monkeypatch)
    kinds = []
    for v in s4_sinks():
        kinds += assert_t_sets_equal_the_word_path_route(v, lex_order(4))
    for v in sorted({parse_perm(v) for _, v in COLLAPSED_CASES}):
        kinds += assert_t_sets_equal_the_word_path_route(v, lex_order(5))
    assert len(kinds) == 25318 and kinds.count("raise") == 842
