import pytest

from cdindex.complete import (
    ad_polynomials,
    complete_cd_index,
    degree_range,
    flag_cd_index,
    restricted_ad_polynomial,
    shelling_decomposition,
)
from cdindex.flips import sum_contributions
from cdindex.intervals import build_interval, enumerate_paths
from cdindex.ncpoly import ADPolynomial, CDPolynomial, ad_to_cd, bar, expand_cd
from cdindex.orders import lex_order, order_from_reduced_word
from cdindex.perms import Reflection, identity, parse_perm

# cd-index of [2134, 4321], frozen from two independent computations
# (path sum + exact solve, and the flag-vector chain-count oracle)
EXAMPLE_DEGREE_2 = {"cc": 2, "d": 1}
EXAMPLE_DEGREE_4 = {"cccc": 1, "ccd": 1, "cdc": 2, "dcc": 1, "dd": 1}


def check_decomposition(iv, decomposition, order):
    """Recombine f + A*g per degree and compare with the restricted sum."""
    a = ADPolynomial({"A": 1})
    for n, (f, g) in decomposition.by_degree.items():
        p = restricted_ad_polynomial(iv, n, decomposition.t, order)
        if expand_cd(f) + a * expand_cd(g) != p:
            return False
    return True


def test_cover_interval_index_is_one():
    iv = build_interval(parse_perm("1234"), parse_perm("2134"))
    idx = complete_cd_index(iv)
    assert {n: dict(p.items()) for n, p in idx.by_degree.items()} == {0: {"": 1}}
    assert idx.coefficient("") == 1


def test_example_ad_polynomial_degree_two(example_interval, s4_lex):
    parts = ad_polynomials(example_interval, s4_lex)
    assert set(parts) == {0, 2, 4}
    assert not parts[0]  # no single-edge path from 2134 to 4321
    assert ad_to_cd(parts[2]) == CDPolynomial(EXAMPLE_DEGREE_2)
    assert dict(parts[2].items()) == {"AA": 2, "AD": 3, "DA": 3, "DD": 2}


def test_example_complete_cd_index(example_interval):
    idx = complete_cd_index(example_interval)
    assert dict(idx.by_degree[2].items()) == EXAMPLE_DEGREE_2
    assert dict(idx.by_degree[4].items()) == EXAMPLE_DEGREE_4
    assert idx.coefficient("cccc") == 1 and idx.coefficient("dd") == 1
    assert idx.coefficient("ccd") >= 0
    assert idx.coefficient("cdc") >= 0
    assert idx.coefficient("dcc") >= 0


def test_phi_parts_are_bar_invariant(example_interval, s4_lex):
    for part in ad_polynomials(example_interval, s4_lex).values():
        assert bar(part) == part


def test_coefficient_of_c_power_counts_ascending_paths(example_interval, s4_lex):
    idx = complete_cd_index(example_interval, s4_lex)
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
    lex = complete_cd_index(example_interval, lex_order(4))
    rev = complete_cd_index(example_interval, lex_order(4).reversed())
    word = complete_cd_index(
        example_interval, order_from_reduced_word(4, [1, 2, 1, 3, 2, 1])
    )
    assert lex.by_degree == rev.by_degree == word.by_degree


def test_restricted_ad_polynomial(example_interval, s4_lex):
    full = ad_polynomials(example_interval, s4_lex)[2]
    assert restricted_ad_polynomial(example_interval, 2, Reflection(3, 4), s4_lex) == full
    # no degree-2 path starts with label 1, so the bound (1 2) kills everything
    assert not restricted_ad_polynomial(example_interval, 2, Reflection(1, 2), s4_lex)
    # filter oracle at t = (14), rank 3
    expected = {}
    for p in enumerate_paths(example_interval, 2):
        if s4_lex.rank(p.labels[0]) <= 3:
            w = "".join(
                "A" if s4_lex.rank(p.labels[i]) < s4_lex.rank(p.labels[i + 1]) else "D"
                for i in range(2)
            )
            expected[w] = expected.get(w, 0) + 1
    got = restricted_ad_polynomial(example_interval, 2, Reflection(1, 4), s4_lex)
    assert dict(got.items()) == expected


def test_shelling_decomposition_at_maximal_reflection(example_interval, s4_lex):
    dec = shelling_decomposition(example_interval, Reflection(3, 4), s4_lex)
    for n, (f, g) in dec.by_degree.items():
        assert not g, "no restriction means the sum is already bar-invariant"
        assert expand_cd(f) == ad_polynomials(example_interval, s4_lex)[n]


def test_shelling_decomposition_every_t_nonnegative(example_interval, s4_lex):
    for t in s4_lex.sequence:
        dec = shelling_decomposition(example_interval, t, s4_lex)
        assert check_decomposition(example_interval, dec, s4_lex)
        assert dec.is_nonnegative()


def test_degree_range():
    assert degree_range(build_interval(parse_perm("1234"), parse_perm("2134"))) == [0]
    iv = build_interval(parse_perm("2134"), parse_perm("4321"))
    assert degree_range(iv) == [4, 2, 0]


def test_sum_contributions_examples(example_interval, example_table):
    assert sum_contributions(example_interval, "cc", example_table) == 2
    assert sum_contributions(example_interval, "d", example_table) == 1
    assert sum_contributions(example_interval, "dd", example_table) == 1
    assert sum_contributions(example_interval, "cdc", example_table) == 2
    # wrong-parity degree has no paths at all
    assert sum_contributions(example_interval, "c", example_table) == 0


def test_flag_cd_index_trivia():
    cover = build_interval(parse_perm("1234"), parse_perm("2134"))
    assert dict(flag_cd_index(cover).items()) == {"": 1}
    diamond = build_interval(identity(4), parse_perm("2314"))
    assert dict(flag_cd_index(diamond).items()) == {"c": 1}


def test_flag_cd_index_matches_top_degree_of_example(example_interval):
    idx = complete_cd_index(example_interval)
    assert flag_cd_index(example_interval) == idx.top_degree_part()
    assert dict(flag_cd_index(example_interval).items()) == EXAMPLE_DEGREE_4


def test_flag_cd_index_rejects_trivial_interval():
    u = parse_perm("2134")
    with pytest.raises(ValueError):
        flag_cd_index(build_interval(u, u))
