"""Bit identity of the rewritten search kernels against their first versions.

The searches are Nelder-Mead runs, which turn a one-ulp change in the
objective into a different restart history, so a kernel rewrite must agree
with the original to the last bit, not just within a tolerance. The
original implementations are kept here as oracles.
"""
import numpy as np
import pytest

from sicladder import fiducials as fid
from sicladder import ladder as lad
from sicladder.clifford import canonical_order3
from sicladder.errors import BadPairing
from sicladder.heisenberg import (crt_index, crt_permutation, crt_to_tensor,
                                  displaced_vector, tau_powers)


def seed_build_proto(family, params):
    d = family.d
    fv, ev = family.f_basis.vectors, family.e_basis.vectors
    half = (d - 1) // 2
    psi = np.zeros((d - 2) * d, dtype=complex)
    for U, (fi, ei) in zip(lad.block_coefficients(family, params), family.blocks):
        for a in range(len(fi)):
            for b in range(len(ei)):
                psi += U[a, b] * np.kron(fv[:, fi[a]], ev[:, ei[b]])
    V = crt_permutation(d - 2, d)
    return V.T @ (psi / np.sqrt(half))


def seed_displaced_vector(psi, i, j):
    d = len(psi)
    t = tau_powers(d)
    s = np.arange(d)
    ph = t[(i * j + 2 * j * s) % (2 * d)]
    out = np.zeros(d, dtype=complex)
    out[(s + i) % d] = ph * psi[s]
    return out


def _family(f, n1, conjugate=False):
    P = lad.generalized_parity(f)
    G = canonical_order3(n1)
    for F in (G, (G @ G) % n1):
        e_b, f_b = lad.paired_bases(f, F, P)
        for t in lad.feasible_targets(f_b, e_b):
            try:
                return lad.make_proto_family(f, e_b, f_b, t, conjugate=conjugate)
            except BadPairing:
                continue
    raise AssertionError("no constructible family")


@pytest.fixture(scope="module")
def families(fam5, f7, f9, f15):
    sc = fid.detect_scalar_symmetry(f15)
    P = lad.generalized_parity(f15)
    e_b, f_b = lad.paired_bases_refined(f15, canonical_order3(13),
                                        lad.root_of_parity(13), sc, P)
    return {"5->15": fam5,
            "7->35 conjugate": _family(f7, 5, conjugate=True),
            "9->63": _family(f9, 7),
            "15->195 refined": lad.make_proto_family(f15, e_b, f_b, 0)}


@pytest.mark.parametrize("name", ["5->15", "7->35 conjugate", "9->63", "15->195 refined"])
def test_build_proto_is_bit_identical(families, name):
    fam = families[name]
    rng = np.random.default_rng(11)
    for _ in range(300):
        x = rng.uniform(-2 * np.pi, 4 * np.pi, fam.n_params)
        assert np.array_equal(lad.build_proto(fam, x), seed_build_proto(fam, x))


@pytest.mark.parametrize("d", (3, 5, 7, 9, 15, 35))
def test_displaced_vector_is_bit_identical(d):
    rng = np.random.default_rng(d)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    for i in range(-d, 2 * d):
        for j in range(-d, 2 * d):
            for v in (psi, psi.real):
                assert np.array_equal(displaced_vector(v, i, j),
                                      seed_displaced_vector(v, i, j))


def test_displaced_vector_is_bit_identical_at_195():
    rng = np.random.default_rng(195)
    psi = rng.normal(size=195) + 1j * rng.normal(size=195)
    for i, j in rng.integers(-195, 390, size=(400, 2)):
        i, j = int(i), int(j)
        assert np.array_equal(displaced_vector(psi, i, j),
                              seed_displaced_vector(psi, i, j))


@pytest.mark.parametrize("d", (5, 7, 9, 15))
def test_to_tensor_is_byte_equal_to_the_permutation_matmul(d):
    rng = np.random.default_rng(d)
    psi = rng.normal(size=d * (d - 2)) + 1j * rng.normal(size=d * (d - 2))
    V = crt_permutation(d - 2, d)
    A = lad.to_tensor(psi, d)
    assert A.tobytes() == (V @ psi).reshape(d - 2, d).tobytes()
    assert lad.from_tensor(A).tobytes() == (V.T @ A.ravel()).tobytes()


def test_crt_index_realizes_the_permutation():
    for n1, n2 in ((3, 5), (5, 7), (13, 15), (4, 9)):
        g = crt_index(n1, n2)
        V = crt_permutation(n1, n2)
        x = np.random.default_rng(n1).normal(size=(n1 * n2, 3))
        assert np.array_equal(V.T @ x, x[g])
        assert np.array_equal(V @ x, crt_to_tensor(x, n1, n2))
        assert sorted(g.tolist()) == list(range(n1 * n2))
