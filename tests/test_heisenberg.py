import numpy as np
import pytest

from sicladder.errors import SicladderError
from sicladder.heisenberg import (crt_split_certificate, crt_split_index,
                                  displaced_vector, displacement, omega,
                                  overlap_table, tau, weyl_commutation_check,
                                  wh_orbit)

from oracles import crt_permutation

DIMS = (3, 5, 7, 9, 13, 15)


def overlap_table_naive(psi):
    """The overlap table by explicit matrix elements: the oracle route."""
    d = len(psi)
    out = np.empty((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            out[i, j] = np.vdot(psi, displacement(d, i, j) @ psi)
    return out


class TestDisplacement:
    def test_identity_at_zero(self):
        for d in DIMS:
            assert np.array_equal(displacement(d, 0, 0), np.eye(d))

    def test_shift_pattern(self):
        X = displacement(3, 1, 0)
        expected = np.zeros((3, 3))
        for s in range(3):
            expected[(s + 1) % 3, s] = 1
        assert np.abs(X - expected).max() < 1e-15

    def test_clock_matrix(self):
        Z = displacement(5, 0, 1)
        assert np.abs(Z - np.diag(omega(5) ** np.arange(5))).max() < 1e-12

    def test_tau_power_entry(self):
        # (2,3) at d=5 puts tau^(2*3 + 0) in row 2, column 0
        D = displacement(5, 2, 3)
        frozen = -0.8090169943749475 - 0.5877852522924731j
        assert abs(D[2, 0] - frozen) < 1e-12
        assert abs(tau(5) ** 6 - frozen) < 1e-12

    def test_unitary_all_dims(self):
        for d in DIMS:
            worst = 0.0
            for i in range(d):
                for j in range(d):
                    D = displacement(d, i, j)
                    worst = max(worst, np.abs(D @ D.conj().T - np.eye(d)).max())
            assert worst < 1e-12

    def test_adjoint_is_negated_index(self):
        for d in (3, 5):
            for p in ((1, 0), (2, 3), (1, 4)):
                D = displacement(d, *p)
                assert np.abs(D.conj().T - displacement(d, -p[0], -p[1])).max() < 1e-12

    def test_even_dimension_rejected(self):
        with pytest.raises(SicladderError, match="^odd dimension >= 3 required, got 4$"):
            displacement(4, 0, 0)
        with pytest.raises(SicladderError, match="^odd dimension >= 3 required, got 1$"):
            displacement(1, 0, 0)

    def test_tau_squares_to_omega(self):
        for d in DIMS:
            assert abs(tau(d) ** 2 - omega(d)) < 1e-12
            assert abs(tau(d) ** (2 * d) - 1) < 1e-11


def test_weyl_commutation():
    for d in (3, 5, 15):
        assert weyl_commutation_check(d)


def test_operator_basis_property():
    # sum_p D_p A D_p^dag = d tr(A) for any A
    for d in (3, 5, 7):
        rng = np.random.default_rng(d)
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        acc = np.zeros((d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                D = displacement(d, i, j)
                acc += D @ A @ D.conj().T
        assert np.abs(acc - d * np.trace(A) * np.eye(d)).max() < 1e-10


class TestVectorRoutes:
    def test_displaced_vector_matches_matrix(self):
        rng = np.random.default_rng(0)
        for d in (3, 5, 9):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            for p in ((0, 0), (1, 0), (0, 1), (2, d - 1)):
                direct = displacement(d, *p) @ v
                assert np.abs(displaced_vector(v, (p,))[0] - direct).max() < 1e-12

    def test_orbit_rows(self):
        rng = np.random.default_rng(1)
        d = 5
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        orb = wh_orbit(v)
        assert orb.shape == (25, 5)
        for i in range(d):
            for j in range(d):
                assert np.abs(orb[i * d + j] - displacement(d, i, j) @ v).max() < 1e-12

    def test_overlap_table_against_naive(self):
        rng = np.random.default_rng(2)
        for d in (3, 7, 15):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            v /= np.linalg.norm(v)
            assert np.abs(overlap_table(v) - overlap_table_naive(v)).max() < 1e-12


class TestCrt:
    def test_not_coprime(self):
        with pytest.raises(SicladderError, match=r"^gcd\(3,9\) != 1$"):
            crt_permutation(3, 9)
        with pytest.raises(SicladderError, match=r"^gcd\(5,15\) != 1$"):
            crt_split_index((1, 1), 5, 15)

    def test_permutation_rows(self):
        V = crt_permutation(3, 5)
        for r in range(15):
            assert V[5 * (r % 3) + (r % 5), r] == 1.0
        assert np.abs(V @ V.T - np.eye(15)).max() == 0.0

    def test_zero_splits_to_zero(self):
        assert crt_split_index((0, 0), 3, 5) == ((0, 0), (0, 0))

    def test_split_matches_brute_force(self):
        # independent oracle: search all 9 x 25 candidate index pairs
        V = crt_permutation(3, 5)
        p = (1, 1)
        lhs = V @ displacement(15, *p) @ V.T
        hits = []
        for a in range(3):
            for b in range(3):
                for c in range(5):
                    for e in range(5):
                        rhs = np.kron(displacement(3, a, b), displacement(5, c, e))
                        if np.abs(lhs - rhs).max() < 1e-10:
                            hits.append(((a, b), (c, e)))
        assert len(hits) == 1
        assert crt_split_index(p, 3, 5) == hits[0]

    def test_shift_component_follows_residues(self):
        (i1, _), (i2, _) = crt_split_index((3, 5), 3, 5)
        assert i1 == 0 and i2 == 3

    def test_split_is_bijective_at_fifteen(self):
        seen = set()
        for i in range(15):
            for j in range(15):
                seen.add(crt_split_index((i, j), 3, 5))
        assert len(seen) == 225

    def test_certificate_full_lattice(self):
        err, phase_dev = crt_split_certificate(3, 5)
        assert err < 1e-12
        assert phase_dev < 1e-12
