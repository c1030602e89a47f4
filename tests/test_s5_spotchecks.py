"""Seeded S5 spot checks of the T-set machinery beyond the exhaustive S4
sweeps.

Length-7 intervals of S5 carry degree-4 monomials with two d's whose paths
are not of maximal length, so neither of the two proved positivity regimes
applies there; the coefficient identities and the flip condition are
checked directly.
"""

import itertools
import random

from cdindex import TSetTable, build_interval, complete_cd_index, lex_order
from cdindex.complete import degree_range
from cdindex.flips import check_flip_condition
from cdindex.ncpoly import cd_monomials
from cdindex.perms import bruhat_leq, length
from cdindex.verify import verify_coefficient

from .oracles import path_sums


def sample_intervals(gaps, count, seed):
    elements = [tuple(p) for p in itertools.permutations(range(1, 6))]
    pairs = [
        (u, v)
        for u in elements
        for v in elements
        if length(v) - length(u) in gaps and bruhat_leq(u, v)
    ]
    return random.Random(seed).sample(pairs, count)


def test_coefficient_identities_hold_on_deep_s5_intervals():
    order = lex_order(5)
    tables = {}
    two_d_checks = 0
    for u, v in sample_intervals((6, 7), 12, seed=123):
        iv = build_interval(u, v)
        if v not in tables:
            tables[v] = TSetTable(v, order)
        table = tables[v]
        idx = complete_cd_index(u, v, path_sums(iv, order))
        for n in degree_range(iv.length_diff):
            for monomial in cd_monomials(n):
                report = verify_coefficient(u, monomial, table, idx)
                assert report.consistent, report
                if monomial.count("d") >= 2:
                    assert check_flip_condition(u, monomial, table) is None
                    two_d_checks += 1
    assert two_d_checks > 50  # the sample genuinely reaches the open regime
