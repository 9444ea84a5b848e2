"""Shared fixtures: small fiducials and one cheap ladder step.

Session scoped because the searches, while fast, are not free; every test
that needs a SIC shares these instances. Seeds are fixed so the whole suite
is deterministic.
"""
from pathlib import Path

import pytest

from sicladder import cli
from sicladder import fiducials as fid
from sicladder import ladder as lad
from sicladder import optimizer as opt
from sicladder.clifford import canonical_order3

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


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
def fam5_solving(f5):
    # the climbable branch: squared generator, its single feasible target
    P = lad.generalized_parity(f5)
    G = canonical_order3(3)
    e_b, f_b = lad.paired_bases(f5, (G @ G) % 3, P)
    t = lad.feasible_targets(f_b, e_b)[0]
    return lad.make_proto_family(f5, e_b, f_b, t)


@pytest.fixture(scope="session")
def sols5(fam5_solving):
    return opt.minimize(fam5_solving,
                        opt.SearchConfig(restarts=20, max_iters=2000, seed=0))


@pytest.fixture(scope="session")
def fam35(f7):
    # the plain 7 -> 35 family: three singleton blocks, two phases, so
    # minimize searches it with Nelder-Mead
    P = lad.generalized_parity(f7)
    e_b, f_b = lad.paired_bases(f7, canonical_order3(5), P)
    return lad.make_proto_family(f7, e_b, f_b, 0)


@pytest.fixture(scope="session")
def fam35_conjugate(f7):
    # the one-parameter family the conjugate 7 -> 35 climb solves: the same
    # pairing with the conjugation-symmetric coefficients
    P = lad.generalized_parity(f7)
    e_b, f_b = lad.paired_bases(f7, canonical_order3(5), P)
    return lad.make_proto_family(f7, e_b, f_b, 0, conjugate=True)


@pytest.fixture(scope="session")
def climb15(f5):
    out = opt.climb(f5, cfg=opt.SearchConfig(restarts=12, max_iters=2000, seed=0))
    assert out.solutions, "the 5 -> 15 step found nothing; later fixtures depend on it"
    return out


@pytest.fixture(scope="session")
def f15():
    # one of the three 5 -> 15 rays, pinned by file: criterion 10's 195
    # search converges from this one, and the three rays' defects tie to
    # roundoff, so which of them a climb lists first is not stable
    # (test_optimizer.py checks that the climb finds this ray)
    _, _, f = cli.load_artifact(str(INPUTS / "f15.json"))
    return opt.promote_solution(f.vector, 15, label="dim15")


@pytest.fixture(scope="session")
def climb35(f7):
    return opt.climb(f7, conjugate=True,
                     cfg=opt.SearchConfig(restarts=8, max_iters=3000, seed=0))


@pytest.fixture(scope="session")
def sic63(f9):
    # the first restart of criterion 7's 9 -> 63 search converges
    out = opt.climb(f9, cfg=opt.SearchConfig(restarts=1, max_iters=4000, seed=11))
    assert out.solutions, "the 9 -> 63 step found nothing in one restart"
    return fid.SicFiducial(d=63, vector=out.solutions[0][1])
