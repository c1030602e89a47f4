import random

import pytest

from cdindex.orders import (
    ReflectionOrder,
    dihedral_violation,
    lex_order,
    order_from_reduced_word,
)
from cdindex.perms import Reflection, all_reflections

from .oracles import closure_dihedral_violation


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
    assert witness == (Reflection(1, 4), Reflection(1, 3), Reflection(3, 4))
    # the independent subgroup-closure oracle names the same subgroup
    assert closure_dihedral_violation(tuple(seq)) == witness


def test_validator_agrees_with_triple_oracle_on_random_sequences():
    """The triple rule against the subgroup-closure oracle, witness for
    witness, on shuffled sequences of S_2 to S_6 and on reflection orders."""
    rng = random.Random(7)
    violated = 0
    for trial in range(200):
        n = 2 + trial % 5
        seq = list(all_reflections(n))
        if trial % 4:
            rng.shuffle(seq)
        order = object.__new__(ReflectionOrder)
        object.__setattr__(order, "n", n)
        object.__setattr__(order, "sequence", tuple(seq))
        object.__setattr__(order, "_rank", {t: k + 1 for k, t in enumerate(seq)})
        witness = dihedral_violation(order)
        assert witness == closure_dihedral_violation(tuple(seq)), seq
        violated += witness is not None
    assert 50 < violated < 200


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
