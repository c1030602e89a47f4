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
