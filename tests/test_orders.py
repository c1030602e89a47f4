import random

import pytest

from cdindex.orders import (
    ReflectionOrder,
    dihedral_violation,
    lex_order,
    order_from_reduced_word,
)
from cdindex.perms import Reflection, all_reflections

from .oracles import reflection_order_triple_violations


def test_lex_order_matches_the_standard_numbering():
    o = lex_order(4)
    assert [tuple(t) for t in o.sequence] == [
        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
    ]
    assert o.rank(Reflection(1, 2)) == 1
    assert o.rank(Reflection(3, 4)) == 6


def test_lex_order_small_cases():
    assert [tuple(t) for t in lex_order(3).sequence] == [(1, 2), (1, 3), (2, 3)]
    assert [tuple(t) for t in lex_order(2).sequence] == [(1, 2)]


def test_reversed_is_an_involution_and_valid():
    o = lex_order(4)
    r = o.reversed()
    assert r.sequence[0] == Reflection(3, 4)
    assert r.reversed() == o
    assert dihedral_violation(r) is None


def test_reversed_is_built_and_validated_once(monkeypatch):
    import cdindex.orders

    o = lex_order(4)
    calls = []
    real = cdindex.orders.dihedral_violation
    monkeypatch.setattr(
        cdindex.orders, "dihedral_violation", lambda order: calls.append(1) or real(order)
    )
    r = o.reversed()
    assert o.reversed() is r
    assert r.reversed() is o
    assert len(calls) == 1


def test_reduced_word_constructions():
    assert [tuple(t) for t in order_from_reduced_word(2, [1]).sequence] == [(1, 2)]
    assert [tuple(t) for t in order_from_reduced_word(3, [1, 2, 1]).sequence] == [
        (1, 2), (1, 3), (2, 3),
    ]
    assert [tuple(t) for t in order_from_reduced_word(3, [2, 1, 2]).sequence] == [
        (2, 3), (1, 3), (1, 2),
    ]


def test_reduced_word_rejects_bad_words():
    with pytest.raises(ValueError):
        order_from_reduced_word(3, [1, 2])  # wrong length
    with pytest.raises(ValueError):
        order_from_reduced_word(3, [1, 1, 2])  # not reduced
    with pytest.raises(ValueError):
        order_from_reduced_word(3, [1, 2, 3])  # letter out of range


def test_constructor_rejects_non_reflection_orders():
    seq = list(all_reflections(4))
    i, j = seq.index(Reflection(1, 3)), seq.index(Reflection(1, 4))
    seq[i], seq[j] = seq[j], seq[i]
    with pytest.raises(ValueError):
        ReflectionOrder(4, tuple(seq))


def test_dihedral_violation_witness_is_the_broken_subgroup():
    # Bypass the validating constructor to probe the checker directly.
    seq = list(all_reflections(4))
    i, j = seq.index(Reflection(1, 3)), seq.index(Reflection(1, 4))
    seq[i], seq[j] = seq[j], seq[i]
    order = object.__new__(ReflectionOrder)
    object.__setattr__(order, "n", 4)
    object.__setattr__(order, "sequence", tuple(seq))
    object.__setattr__(order, "_rank", {t: k + 1 for k, t in enumerate(seq)})
    witness = dihedral_violation(order)
    assert witness is not None
    assert set(witness) == {Reflection(1, 3), Reflection(1, 4), Reflection(3, 4)}
    # the independent triple-based oracle finds the same unique bad subgroup
    bad = reflection_order_triple_violations(tuple(seq))
    assert bad == [((1, 3), (1, 4), (3, 4))]


def test_validator_agrees_with_triple_oracle_on_random_sequences():
    rng = random.Random(7)
    for _ in range(40):
        seq = list(all_reflections(4))
        rng.shuffle(seq)
        order = object.__new__(ReflectionOrder)
        object.__setattr__(order, "n", 4)
        object.__setattr__(order, "sequence", tuple(seq))
        object.__setattr__(order, "_rank", {t: k + 1 for k, t in enumerate(seq)})
        generic = dihedral_violation(order)
        triples = reflection_order_triple_violations(tuple(seq))
        assert (generic is None) == (not triples)


def test_random_reduced_words_give_valid_orders():
    # random reduced words for w0, generated as bubble-sort schedules
    rng = random.Random(11)
    for _ in range(20):
        perm = list(range(1, 5))
        word = []
        while True:
            descents = [i for i in range(3) if perm[i] < perm[i + 1]]
            if not descents:
                break
            i = rng.choice(descents)
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            word.append(i + 1)
        order = order_from_reduced_word(4, word)
        assert dihedral_violation(order) is None
        assert len(set(order.sequence)) == 6
