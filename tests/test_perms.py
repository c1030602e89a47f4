import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdindex.perms import (
    Reflection,
    all_reflections,
    bruhat_leq,
    compose,
    format_perm,
    identity,
    length,
    longest_element,
    parse_perm,
    reflection_perm,
)
from .oracles import (
    as_reflection,
    bruhat_leq_closure,
    edge_reflection,
    inverse,
    inversions,
    moved_points,
)

perms = lambda n: st.permutations(list(range(1, n + 1))).map(tuple)


def test_parse_and_format_round_trip():
    assert parse_perm("2134") == (2, 1, 3, 4)
    assert format_perm((2, 1, 3, 4)) == "2134"
    with pytest.raises(ValueError):
        parse_perm("2135")
    with pytest.raises(ValueError):
        parse_perm("21a4")


def test_compose_identity_and_involution():
    assert compose(identity(4), parse_perm("2134")) == parse_perm("2134")
    assert compose(parse_perm("2134"), parse_perm("2134")) == identity(4)


def test_compose_matches_edge_labels_of_known_path():
    # 2134 * (13) = 3124, the first step of the path with labels 2, 5, 1
    t = reflection_perm(Reflection(1, 3), 4)
    assert compose(parse_perm("2134"), t) == parse_perm("3124")


def test_compose_rank_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_length_basics():
    assert length(identity(4)) == 0
    assert length(longest_element(4)) == 6
    assert length(parse_perm("2134")) == 1


@given(perms(5))
def test_length_matches_brute_force_and_inverse(p):
    assert length(p) == inversions(p)
    assert length(p) == length(inverse(p))


@given(perms(5))
def test_multiplying_by_a_reflection_changes_length(p):
    for t in all_reflections(5):
        q = compose(p, reflection_perm(t, 5))
        assert length(q) != length(p)


def test_bruhat_reflexive_and_example():
    u = parse_perm("2134")
    assert bruhat_leq(u, u)
    assert bruhat_leq(u, parse_perm("4321"))
    assert not bruhat_leq(parse_perm("4321"), u)


def test_bruhat_rank_mismatch():
    with pytest.raises(ValueError):
        bruhat_leq(identity(3), identity(4))


def test_bruhat_agrees_with_closure_on_all_of_s4(s4_elements):
    for u in s4_elements:
        for v in s4_elements:
            assert bruhat_leq(u, v) == bruhat_leq_closure(u, v), (u, v)


def test_bruhat_agrees_with_closure_on_random_s5_pairs():
    rng = random.Random(20240511)
    elements = list(itertools.permutations(range(1, 6)))
    for _ in range(1000):
        u = rng.choice(elements)
        v = rng.choice(elements)
        assert bruhat_leq(u, v) == bruhat_leq_closure(u, v), (u, v)


def test_edge_reflection_examples():
    assert edge_reflection(parse_perm("2134"), parse_perm("2143")) == Reflection(3, 4)
    assert edge_reflection(parse_perm("2134"), parse_perm("1234")) is None
    # 2134^{-1} 4321 moves all four points, so no edge
    x, y = parse_perm("2134"), parse_perm("4321")
    assert len(moved_points(compose(inverse(x), y))) == 4
    assert edge_reflection(x, y) is None


@given(perms(5), perms(5))
@settings(max_examples=200)
def test_edge_implies_odd_length_jump(x, y):
    t = edge_reflection(x, y)
    if t is not None:
        assert (length(y) - length(x)) % 2 == 1
        assert compose(x, reflection_perm(t, 5)) == y


def test_all_reflections_counts():
    assert all_reflections(2) == [Reflection(1, 2)]
    assert len(all_reflections(4)) == 6
    assert len(all_reflections(5)) == 10


def test_as_reflection_rejects_non_transpositions():
    assert as_reflection(parse_perm("2314")) is None
    assert as_reflection(identity(4)) is None
    assert as_reflection(parse_perm("2134")) == Reflection(1, 2)
