import gc
import itertools

import pytest

from cdindex import TSetTable, build_interval, lex_order, parse_perm


@pytest.fixture(scope="session")
def s4_elements():
    return [tuple(p) for p in itertools.permutations((1, 2, 3, 4))]


@pytest.fixture(scope="session")
def example_interval():
    """The running example [2134, 4321] in S_4."""
    return build_interval(parse_perm("2134"), parse_perm("4321"))


@pytest.fixture(scope="session")
def s4_lex():
    return lex_order(4)


@pytest.fixture(scope="session")
def example_table(s4_lex):
    return TSetTable(parse_perm("4321"), s4_lex)


@pytest.fixture
def paused_gc():
    """The cyclic garbage collector paused for one test.  Path stores are
    acyclic tuples, but a full collection while one grows walks every
    object it holds: pausing cuts a quarter off the S_5 word-path test."""
    was = gc.isenabled()
    gc.disable()
    yield
    if was:
        gc.enable()


@pytest.fixture
def cold_memos():
    """The scan's memos of the cd side and of the record bodies, and
    ncpoly's conversion memos behind them, empty before and after one test.
    A test that patches the cd side uses it, so that no result the patch
    made or hid is kept for another test; it yields the clearing function."""
    from cdindex import cli, ncpoly, verify

    def clear():
        for memo in (verify._cd_side, cli._record_body, ncpoly.ad_to_cd, ncpoly.decompose_left_a):
            memo.cache_clear()

    clear()
    yield clear
    clear()
