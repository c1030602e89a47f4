import json
import sys

from cdindex import intervals
from cdindex.complete import complete_cd_index, degree_range, path_sums, shelling_decomposition
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
    iv = example_interval
    idx = complete_cd_index(iv.u, iv.v, path_sums(iv, example_table.order))
    for monomial, value in [("cccc", 1), ("cc", 2), ("d", 1), ("dd", 1), ("ccd", 1)]:
        report = verify_coefficient(iv.u, monomial, example_table, idx)
        assert report.consistent, report
        assert report.coefficient == value
        assert report.t_size == report.tbar_size == report.contribution_sum == value


def test_verify_coefficient_reuses_a_precomputed_index(example_interval, example_table):
    iv = example_interval
    idx = complete_cd_index(iv.u, iv.v, path_sums(iv, example_table.order))
    report = verify_coefficient(iv.u, "cdc", example_table, idx)
    assert report.consistent and report.coefficient == 2


def restricted_reports(iv, monomial, table):
    """check_restricted_counts at every t of the table's order, keyed by t."""
    decompositions = shelling_decomposition(path_sums(iv, table.order), table.order)
    reports = check_restricted_counts(iv.u, monomial, table, decompositions)
    return {rep.t: rep for rep in reports}


def test_restricted_counts_at_maximal_t_reduce_to_verify(example_interval, example_table):
    rep = restricted_reports(example_interval, "cc", example_table)[Reflection(3, 4)]
    assert rep.consistent
    assert rep.t_restricted == 2 and rep.tbar_restricted == 2


def test_restricted_counts_at_minimal_t(example_interval, example_table):
    rep = restricted_reports(example_interval, "cc", example_table)[Reflection(1, 2)]
    assert rep.consistent
    # no degree-2 path leaves 2134 with label rank 1
    assert rep.t_restricted == 0 and rep.tbar_restricted == 0


def test_restricted_counts_for_d_at_every_t(example_interval, example_table):
    order = example_table.order
    reports = restricted_reports(example_interval, "d", example_table)
    assert list(reports) == list(order.sequence)
    for rep in reports.values():
        assert rep.consistent, rep.to_json()


def test_restricted_counts_read_c_times_g_off_g(example_interval, example_table):
    """coeff_f_plus_cg matches f + c*g multiplied out as polynomials."""
    order = example_table.order
    decompositions = shelling_decomposition(path_sums(example_interval, order), order)
    for n in degree_range(example_interval.length_diff):
        for monomial in cd_monomials(n):
            reports = check_restricted_counts(
                example_interval.u, monomial, example_table, decompositions
            )
            assert [rep.t for rep in reports] == list(order.sequence)
            for rep in reports:
                f, g = decompositions[rep.t].by_degree.get(n, (CDPolynomial(), CDPolynomial()))
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
        for n in degree_range(iv.length_diff):
            for monomial in cd_monomials(n):
                if not monomial.startswith("c"):
                    continue
                witness = check_strong_flip_condition(u, monomial, table)
                if witness is not None:
                    strong_violations.append((u, v, monomial, witness))
        for t, dec in shelling_decomposition(path_sums(iv, order), order).items():
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


def test_scan_interval_builds_no_interval_and_enumerates_only_in_the_table(monkeypatch):
    """With every sink's table built, scanning each S_4 interval calls
    build_interval never and iter_paths only from inside TSetTable.paths."""
    order = lex_order(4)
    pairs = list(iter_intervals(4))
    tables = {v: TSetTable(v, order) for _, v in pairs}
    calls = {"build_interval": 0, "outside": 0, "inside": 0}
    depth = [0]
    build, iter_paths, paths = intervals.build_interval, intervals.iter_paths, TSetTable.paths

    def counting_build(*args):
        calls["build_interval"] += 1
        return build(*args)

    def counting_iter_paths(*args):
        calls["inside" if depth[0] else "outside"] += 1
        return iter_paths(*args)

    def tracked_paths(self, w, n):
        depth[0] += 1
        try:
            return paths(self, w, n)
        finally:
            depth[0] -= 1

    modules = [m for k, m in sys.modules.items() if k == "cdindex" or k.startswith("cdindex.")]
    for original, wrapper in ((build, counting_build), (iter_paths, counting_iter_paths)):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    monkeypatch.setattr(TSetTable, "paths", tracked_paths)
    for u, v in pairs:
        assert scan_interval(u, v, order, "lex", tables[v])["clean"], (u, v)
    assert calls["build_interval"] == 0 and calls["outside"] == 0
    assert calls["inside"] > 0
