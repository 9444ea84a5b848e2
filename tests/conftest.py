"""Shared fixtures: small fiducials and one cheap ladder step.

Session scoped because the searches, while fast, are not free; every test
that needs a SIC shares these instances. Seeds are fixed so the whole suite
is deterministic.
"""
import numpy as np
import pytest

from sicladder import ladder as lad
from sicladder import optimizer as opt
from sicladder.clifford import canonical_order3


@pytest.fixture(scope="session")
def f5():
    return opt.default_source(5)


@pytest.fixture(scope="session")
def f7():
    return opt.default_source(7)


@pytest.fixture(scope="session")
def f9():
    return opt.default_source(9)


@pytest.fixture(scope="session")
def fam5(f5):
    P = lad.generalized_parity(f5)
    e_b, f_b = lad.paired_bases(f5, canonical_order3(3), P)
    t = lad.feasible_targets(f_b, e_b)[0]
    return lad.make_proto_family(f5, e_b, f_b, t)


@pytest.fixture(scope="session")
def climb15(f5):
    out = opt.climb(f5, cfg=opt.SearchConfig(restarts=12, max_iters=2000, seed=0))
    assert out.solutions, "the 5 -> 15 step found nothing; later fixtures depend on it"
    return out


@pytest.fixture(scope="session")
def f15(climb15):
    return opt.promote_solution(climb15.solutions[0][1], 15, label="dim15")


@pytest.fixture(scope="session")
def climb35(f7):
    return opt.climb(f7, conjugate=True,
                     cfg=opt.SearchConfig(restarts=8, max_iters=3000, seed=0))
