import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdindex.errors import InconsistentExpansionError, NotDecomposableError, NotInSubringError
from cdindex.ncpoly import (
    ADPolynomial,
    CDPolynomial,
    ad_form,
    ad_to_cd,
    bar,
    cd_degree,
    cd_monomials,
    d_power_expansion,
    decompose_left_a,
    expand_cd,
    parse_cd_monomial,
)

from .oracles import (
    expand_cd_monomial,
    solve_ad_to_cd,
    solve_d_power_expansion,
    solve_decompose_left_a,
)


def assemble_d_power(fs):
    """Inverse of d_power_expansion: sum of expand_cd(f_i) * D^k."""
    acc = ADPolynomial()
    for k, f in enumerate(fs):
        acc = acc + ADPolynomial({w + "D" * k: c for w, c in expand_cd(f).items()})
    return acc


def ad_monomials(n):
    """All 2^n AD-words of length n, lexicographically."""
    return ["".join(w) for w in itertools.product("AD", repeat=n)]


def cd_polys(max_degree=6, max_coeff=9):
    """Random homogeneous cd-polynomials, one degree at a time."""
    def build(draw):
        n = draw(st.integers(0, max_degree))
        coeffs = draw(
            st.lists(
                st.integers(-max_coeff, max_coeff),
                min_size=len(cd_monomials(n)),
                max_size=len(cd_monomials(n)),
            )
        )
        return n, CDPolynomial(dict(zip(cd_monomials(n), coeffs)))

    return st.composite(build)()


def test_expand_cd_generators():
    assert expand_cd(CDPolynomial({"c": 1})) == ADPolynomial({"A": 1, "D": 1})
    assert expand_cd(CDPolynomial({"d": 1})) == ADPolynomial({"AD": 1, "DA": 1})
    assert expand_cd(CDPolynomial({"cc": 1})) == ADPolynomial(
        {"AA": 1, "AD": 1, "DA": 1, "DD": 1}
    )


@given(cd_polys())
@settings(max_examples=60)
def test_expand_cd_matches_independent_expander(poly):
    _, p = poly
    expected = {}
    for m, c in p.items():
        for w, mult in expand_cd_monomial(m).items():
            expected[w] = expected.get(w, 0) + c * mult
    assert dict(expand_cd(p).items()) == {w: c for w, c in expected.items() if c}


def test_bar_is_an_involution_and_fixes_cd_expansions():
    p = ADPolynomial({"AD": 2, "DDA": -1})
    assert bar(bar(p)) == p
    assert bar(ADPolynomial({"AD": 1})) == ADPolynomial({"DA": 1})
    q = expand_cd(CDPolynomial({"cd": 3, "ccc": -2}))
    assert bar(q) == q


def test_ad_to_cd_examples():
    assert ad_to_cd(ADPolynomial({"A": 1, "D": 1})) == CDPolynomial({"c": 1})
    for outside in ({"A": 1}, {"AAA": 1, "DDD": 1}):  # the second is bar-invariant
        with pytest.raises(NotInSubringError):
            ad_to_cd(ADPolynomial(outside))
    # degree-2 word counts of the running example: 2, 3, 3, 2
    phi2 = ADPolynomial({"AA": 2, "AD": 3, "DA": 3, "DD": 2})
    assert ad_to_cd(phi2) == CDPolynomial({"cc": 2, "d": 1})


@given(cd_polys())
@settings(max_examples=60)
def test_ad_to_cd_inverts_expand_cd(poly):
    _, p = poly
    assert ad_to_cd(expand_cd(p)) == p


@given(cd_polys(max_degree=5), st.booleans(), st.data())
@settings(max_examples=60)
def test_ad_to_cd_agrees_with_solver_oracle(poly, perturb, data):
    n, p = poly
    terms = dict(expand_cd(p).items())
    if perturb:
        word = data.draw(st.sampled_from(ad_monomials(n)))
        terms[word] = terms.get(word, 0) + data.draw(st.sampled_from([-2, -1, 1, 2]))
    oracle = solve_ad_to_cd(terms, n)
    if oracle is None:
        with pytest.raises(NotInSubringError):
            ad_to_cd(ADPolynomial(terms))
    else:
        assert dict(ad_to_cd(ADPolynomial(terms)).items()) == oracle


def test_d_power_expansion_fixed_cases():
    f = d_power_expansion(expand_cd(CDPolynomial({"c": 1})), 1)
    assert f == (CDPolynomial({"c": 1}), CDPolynomial())
    f = d_power_expansion(ADPolynomial({"D": 1}), 1)
    assert f == (CDPolynomial(), CDPolynomial({"": 1}))


def test_d_power_expansion_of_ad_matches_solver_oracle():
    p = ADPolynomial({"AD": 1})
    levels = solve_d_power_expansion(dict(p.items()), 2)
    assert levels == [{}, {"c": 1}, {"": -1}]  # AD = cD - D^2
    got = d_power_expansion(p, 2)
    assert [dict(f.items()) for f in got] == levels
    assert assemble_d_power(got) == p


@given(st.lists(st.integers(-5, 5), min_size=8, max_size=8))
@settings(max_examples=60)
def test_d_power_expansion_round_trip_or_consistent_failure(coeffs):
    n = 3
    p = ADPolynomial(dict(zip(ad_monomials(n), coeffs)))
    oracle = solve_d_power_expansion(dict(p.items()), n)
    if oracle is None:
        with pytest.raises(InconsistentExpansionError):
            d_power_expansion(p, n)
    else:
        got = d_power_expansion(p, n)
        assert [dict(f.items()) for f in got] == oracle
        assert assemble_d_power(got) == p


def test_d_power_expansion_does_not_exist_for_all_words():
    # candidate monomials span a proper subspace from degree 3 on
    with pytest.raises(InconsistentExpansionError):
        d_power_expansion(ADPolynomial({"AAA": 1}), 3)


def test_decompose_left_a_fixed_cases():
    f, g = decompose_left_a(expand_cd(CDPolynomial({"cc": 1})), 2)
    assert (f, g) == (CDPolynomial({"cc": 1}), CDPolynomial())
    a_c = ADPolynomial({"A": 1}) * expand_cd(CDPolynomial({"c": 1}))
    f, g = decompose_left_a(a_c, 2)
    assert (f, g) == (CDPolynomial(), CDPolynomial({"c": 1}))
    # solver oracle fixes the value for AA + AD
    p = ADPolynomial({"AA": 1, "AD": 1})
    assert solve_decompose_left_a(dict(p.items()), 2) == ({}, {"c": 1})
    f, g = decompose_left_a(p, 2)
    assert (dict(f.items()), dict(g.items())) == ({}, {"c": 1})


def test_decompose_left_a_of_zero():
    assert decompose_left_a(ADPolynomial(), 2) == (CDPolynomial(), CDPolynomial())


@given(st.lists(st.integers(-5, 5), min_size=16, max_size=16))
@settings(max_examples=60)
def test_decompose_left_a_matches_solver_oracle(coeffs):
    n = 4
    p = ADPolynomial(dict(zip(ad_monomials(n), coeffs)))
    oracle = solve_decompose_left_a(dict(p.items()), n)
    if oracle is None:
        with pytest.raises(NotDecomposableError):
            decompose_left_a(p, n)
    else:
        f, g = decompose_left_a(p, n)
        assert (dict(f.items()), dict(g.items())) == oracle
        rebuilt = expand_cd(f) + ADPolynomial({"A": 1}) * expand_cd(g)
        assert rebuilt == p


def test_ad_form_of_monomials():
    assert ad_form("c") == "A"
    assert ad_form("d") == "DA"
    assert ad_form("dd") == "DADA"
    assert ad_form("cd") == "ADA"
    assert ad_form("") == ""


def test_coefficient_lookup():
    p = CDPolynomial({"cc": 2, "d": 1})
    assert p.coefficient("d") == 1
    assert p.coefficient("cc") == 2
    assert p.coefficient("cccc") == 0
    assert CDPolynomial().coefficient("d") == 0


def test_cd_monomial_counts_are_fibonacci():
    assert [len(cd_monomials(n)) for n in range(9)] == [1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_cd_degree_and_parsing():
    assert cd_degree("ccd") == 4
    assert parse_cd_monomial("1") == ""
    assert parse_cd_monomial("cdc") == "cdc"
    with pytest.raises(ValueError):
        parse_cd_monomial("cda")


def test_polynomial_alphabet_is_enforced():
    with pytest.raises(ValueError):
        ADPolynomial({"Ax": 1})
    with pytest.raises(ValueError):
        CDPolynomial({"AD": 1})


def test_no_zero_coefficients_are_stored():
    p = ADPolynomial({"AD": 1}) - ADPolynomial({"AD": 1})
    assert not p and len(p) == 0
    assert dict((ADPolynomial({"A": 2, "D": 0})).items()) == {"A": 2}
