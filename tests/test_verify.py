import json

from cdindex.complete import complete_cd_index, degree_range, shelling_decomposition
from cdindex.flips import TSetTable, check_strong_flip_condition
from cdindex.intervals import build_interval
from cdindex.ncpoly import CDPolynomial, cd_monomials
from cdindex.orders import lex_order
from cdindex.perms import (
    Reflection,
    all_reflections,
    compose,
    length,
    parse_perm,
    reflection_perm,
)
from cdindex.verify import (
    check_restricted_counts,
    iter_intervals,
    scan_interval,
    verify_coefficient,
)


def edge_reflections_below(u):
    """Reflections t with u*t shorter than u, i.e. t = z^{-1} u for some z -> u."""
    n = len(u)
    return [
        t
        for t in all_reflections(n)
        if length(compose(u, reflection_perm(t, n))) < length(u)
    ]


def test_verify_coefficient_on_paper_values(example_interval, example_table):
    for monomial, value in [("cccc", 1), ("cc", 2), ("d", 1), ("dd", 1), ("ccd", 1)]:
        report = verify_coefficient(example_interval, monomial, example_table)
        assert report.consistent, report
        assert report.coefficient == value
        assert report.t_size == report.tbar_size == report.contribution_sum == value


def test_verify_coefficient_reuses_a_precomputed_index(example_interval, example_table):
    idx = complete_cd_index(example_interval, example_table.order)
    report = verify_coefficient(example_interval, "cdc", example_table, idx)
    assert report.consistent and report.coefficient == 2


def test_restricted_counts_at_maximal_t_reduce_to_verify(example_interval, example_table):
    rep = check_restricted_counts(
        example_interval, "cc", Reflection(3, 4), example_table
    )
    assert rep.consistent
    assert rep.t_restricted == 2 and rep.tbar_restricted == 2


def test_restricted_counts_at_minimal_t(example_interval, example_table):
    rep = check_restricted_counts(
        example_interval, "cc", Reflection(1, 2), example_table
    )
    assert rep.consistent
    # no degree-2 path leaves 2134 with label rank 1
    assert rep.t_restricted == 0 and rep.tbar_restricted == 0


def test_restricted_counts_for_d_at_every_t(example_interval, example_table):
    order = example_table.order
    for t in order.sequence:
        dec = shelling_decomposition(example_interval, t, order)
        rep = check_restricted_counts(example_interval, "d", t, example_table, dec)
        assert rep.consistent, rep.to_json()


def test_restricted_counts_read_c_times_g_off_g(example_interval, example_table):
    """coeff_f_plus_cg matches f + c*g multiplied out as polynomials."""
    order = example_table.order
    for t in order.sequence:
        dec = shelling_decomposition(example_interval, t, order)
        for n in degree_range(example_interval):
            f, g = dec.by_degree.get(n, (CDPolynomial(), CDPolynomial()))
            for monomial in cd_monomials(n):
                rep = check_restricted_counts(
                    example_interval, monomial, t, example_table, dec
                )
                product = f + CDPolynomial({"c": 1}) * g
                assert rep.coeff_f_plus_cg == product.coefficient(monomial)


def test_edge_reflections_below():
    u = parse_perm("2134")
    assert edge_reflections_below(u) == [Reflection(1, 2)]
    w0 = parse_perm("4321")
    assert len(edge_reflections_below(w0)) == 6
    assert edge_reflections_below(parse_perm("1234")) == []


def test_iter_intervals_is_sorted_and_complete():
    pairs = list(iter_intervals(3))
    assert len(pairs) == 13  # proper Bruhat-comparable pairs of S_3
    gaps = [length(v) - length(u) for u, v in pairs]
    assert gaps == sorted(gaps)
    capped = list(iter_intervals(3, max_length=1))
    assert all(length(v) - length(u) == 1 for u, v in capped)


def test_strong_flip_condition_matches_g_nonnegativity_at_all_t_on_s4():
    """Exhaustive S4 sweep: the strong condition holds for every monomial
    starting with c, and every g-part is non-negative at every reflection t
    (the two statements are equivalent forms of the same positivity)."""
    order = lex_order(4)
    tables = {}
    strong_violations = []
    negative_g = []
    for u, v in iter_intervals(4):
        iv = build_interval(u, v)
        table = tables.setdefault(v, TSetTable(v, order))
        for n in degree_range(iv):
            for monomial in cd_monomials(n):
                if not monomial.startswith("c"):
                    continue
                witness = check_strong_flip_condition(iv, monomial, table)
                if witness is not None:
                    strong_violations.append((u, v, monomial, witness))
        for t in all_reflections(4):
            dec = shelling_decomposition(iv, t, order)
            for _, g in dec.by_degree.values():
                if any(c < 0 for _, c in g.items()):
                    negative_g.append((u, v, t))
    assert bool(strong_violations) == bool(negative_g)
    assert strong_violations == [] and negative_g == []


def test_scan_interval_record_is_deterministic(example_table):
    u, v = parse_perm("2134"), parse_perm("4321")
    order = example_table.order
    a = scan_interval(u, v, order, "lex", example_table)
    b = scan_interval(u, v, order, "lex", example_table)
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["clean"]
    assert a["cd_index"]["2"] == {"cc": 2, "d": 1}
    assert a["monomials"]["dd"]["t_size"] == 1
    assert a["monomials"]["cc"]["strong_flip_condition"] == "holds"
    assert a["monomials"]["dd"]["strong_flip_condition"] == "n/a"
    assert a["witnesses"] == []
