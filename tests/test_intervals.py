import pytest

from cdindex.intervals import (
    ad_word,
    build_interval,
    export_dot,
    label_string,
    path_json,
    rank_sequence,
)
from cdindex.orders import lex_order
from cdindex.perms import (
    Reflection,
    bruhat_leq,
    edge_reflection,
    identity,
    length,
    parse_perm,
)

from .oracles import (
    bruhat_leq_closure,
    count_maximal_chains,
    count_paths_dp,
    enumerate_paths,
    up_neighbors,
)


def labels_of(paths, order):
    return sorted(label_string(p, order) for p in paths)


def test_single_point_interval():
    u = parse_perm("2134")
    iv = build_interval(u, u)
    assert iv.elements == frozenset({u})
    assert iv.edges == ()
    assert enumerate_paths(iv, 0) == []


def test_covering_pair_interval():
    iv = build_interval(parse_perm("1234"), parse_perm("2134"))
    assert len(iv.elements) == 2
    assert len(iv.edges) == 1
    x, y, t = iv.edges[0]
    assert (x, y, t) == (parse_perm("1234"), parse_perm("2134"), Reflection(1, 2))


def test_build_interval_rejects_incomparable():
    with pytest.raises(ValueError):
        build_interval(parse_perm("2134"), parse_perm("1234"))


def test_example_interval_shape(example_interval):
    # frozen after exhaustive recomputation over S4
    assert len(example_interval.elements) == 18
    assert len(example_interval.edges) == 45
    for x, y, t in example_interval.edges:
        assert edge_reflection(x, y) == t
        assert bruhat_leq(example_interval.u, x) and bruhat_leq(y, example_interval.v)


def test_enumerate_paths_wrong_parity_is_empty(example_interval):
    assert enumerate_paths(example_interval, 1) == []
    assert enumerate_paths(example_interval, 3) == []
    assert enumerate_paths(example_interval, 5) == []


def test_enumerate_paths_quoted_label_sequences(example_interval, s4_lex):
    two = labels_of(enumerate_paths(example_interval, 2), s4_lex)
    for quoted in ["346", "235", "436", "514", "625", "251", "462", "521", "652"]:
        assert quoted in two
    assert len(two) == 10
    four = labels_of(enumerate_paths(example_interval, 4), s4_lex)
    assert "23456" in four
    assert "62646" in four
    assert len(four) == 52


def test_enumerate_paths_output_is_lexicographic(example_interval, s4_lex):
    for n in (2, 4):
        paths = enumerate_paths(example_interval, n)
        keys = [rank_sequence(p, s4_lex) for p in paths]
        assert keys == sorted(keys)


def test_every_enumerated_edge_revalidates(example_interval):
    for n in (2, 4):
        for p in enumerate_paths(example_interval, n):
            for i, t in enumerate(p.labels):
                assert edge_reflection(p.vertices[i], p.vertices[i + 1]) == t


def test_path_counts_match_dp_on_all_s4_intervals(s4_elements):
    for u in s4_elements:
        for v in s4_elements:
            if u == v or not bruhat_leq(u, v):
                continue
            iv = build_interval(u, v)
            for n in range(6):
                enumerated = len(enumerate_paths(iv, n))
                assert enumerated == count_paths_dp(iv.adjacency, u, v, n + 1)


def test_build_interval_matches_the_edge_relation_oracles_on_s4(s4_elements):
    """Every interval and cone of S_4 (u = identity), the single points
    included: elements, edge tuple and adjacency equal those read off the
    transitive closure of the edge relation and its up-neighbours."""
    below = {
        (a, b) for a in s4_elements for b in s4_elements if bruhat_leq_closure(a, b)
    }
    for u, v in sorted(below):
        iv = build_interval(u, v)
        elements = {x for x in s4_elements if (u, x) in below and (x, v) in below}
        assert iv.elements == elements, (u, v)
        out = {
            x: sorted((Reflection(*ij), y) for y, ij in up_neighbors(x) if y in elements)
            for x in elements
        }
        assert iv.adjacency == {x: tuple(edges) for x, edges in out.items()}, (u, v)
        edges = [
            (x, y, t)
            for x in sorted(elements, key=lambda p: (length(p), p))
            for t, y in out[x]
        ]
        assert iv.edges == tuple(edges), (u, v)


def test_max_length_paths_are_the_maximal_chains(s4_elements):
    for u, v in [
        (parse_perm("2134"), parse_perm("4321")),
        (identity(4), parse_perm("4231")),
        (parse_perm("1324"), parse_perm("4231")),
    ]:
        iv = build_interval(u, v)
        n = iv.length_diff - 1
        paths = enumerate_paths(iv, n)
        assert all(
            length(p.vertices[i + 1]) == length(p.vertices[i]) + 1
            for p in paths
            for i in range(len(p.labels))
        )
        assert len(paths) == count_maximal_chains(u, v)


def test_ad_word_paper_paths(example_interval, s4_lex):
    by_labels = {
        label_string(p, s4_lex): p
        for n in (2, 4)
        for p in enumerate_paths(example_interval, n)
    }
    assert ad_word(by_labels["62646"], s4_lex) == "DADA"
    assert ad_word(by_labels["251"], s4_lex) == "AD"


def test_ad_word_single_edge_is_empty():
    iv = build_interval(parse_perm("1234"), parse_perm("2134"))
    (path,) = enumerate_paths(iv, 0)
    assert ad_word(path, lex_order(4)) == ""


def test_ad_word_complement_under_reversed_order(example_interval, s4_lex):
    rev = s4_lex.reversed()
    swap = str.maketrans("AD", "DA")
    for n in (2, 4):
        for p in enumerate_paths(example_interval, n):
            assert ad_word(p, rev) == ad_word(p, s4_lex).translate(swap)


def test_lex_compare(example_interval, s4_lex):
    by_labels = {
        label_string(p, s4_lex): p for p in enumerate_paths(example_interval, 2)
    }

    def key(name):
        return rank_sequence(by_labels[name], s4_lex)

    assert key("235") == key("235")
    assert key("235") < key("346")
    assert key("436") < key("462")


def test_export_dot_trivia(s4_lex):
    u = parse_perm("2134")
    solo = export_dot(build_interval(u, u), s4_lex)
    assert solo.count("->") == 0 and '"2134"' in solo
    pair = export_dot(build_interval(parse_perm("1234"), u), s4_lex)
    assert '"1234" -> "2134" [label="1"];' in pair


def test_export_dot_matches_edge_list_and_is_deterministic(example_interval, s4_lex):
    text = export_dot(example_interval, s4_lex)
    assert text == export_dot(example_interval, s4_lex)
    assert text.count("->") == len(example_interval.edges)
    for x, y, t in example_interval.edges:
        needle = f'-> "{"".join(map(str, y))}" [label="{s4_lex.rank(t)}"];'
        assert needle in text


def test_path_json_shape(example_interval, s4_lex):
    path = enumerate_paths(example_interval, 2)[0]
    data = path_json(path, s4_lex)
    assert data["vertices"][0] == "2134" and data["vertices"][-1] == "4321"
    assert len(data["labels"]) == 3
