"""Overlap tables, the defect functional, verification, and fiducial search."""
import itertools

import numpy as np
import pytest

from sicladder import fiducials as fid
from sicladder.clifford import (canonical_order3, symplectic_unitary,
                                zauner_matrix_standard)
from sicladder.errors import BadDimension, NotASic, SearchFailed
from sicladder.heisenberg import displacement

W3 = np.exp(2j * np.pi / 3)


def brute_defect(v, d):
    """Direct double loop over displacement indices, no FFT."""
    total = 0.0
    for i, j in itertools.product(range(d), repeat=2):
        if i == j == 0:
            continue
        ov = np.vdot(v, displacement(d, i, j) @ v)
        total += (abs(ov) ** 2 - 1.0 / (d + 1)) ** 2
    return total


class TestOverlapPhases:
    def test_origin_entry_is_one(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=7) + 1j * rng.normal(size=7)
        f = fid.SicFiducial(d=7, vector=v / np.linalg.norm(v))
        assert fid.overlap_phases(f).phases[0, 0] == 1.0

    def test_basis_vector_is_far_from_unimodular(self):
        e0 = np.zeros(3, dtype=complex)
        e0[0] = 1.0
        t = fid.overlap_phases(fid.SicFiducial(d=3, vector=e0))
        assert abs(abs(t.phases[0, 1]) - 2.0) < 1e-12
        assert t.defect > 0.9

    def test_sic_phases_unimodular(self, f5):
        t = fid.overlap_phases(f5)
        assert t.defect <= 1e-9
        assert np.abs(np.abs(t.phases) - 1).max() <= 1e-9

    def test_covariance_permutes_table(self, f5):
        F = np.array([[2, 1], [1, 1]])  # det 1 mod 5
        U = symplectic_unitary(F, 5)
        g = fid.SicFiducial(d=5, vector=U @ f5.vector)
        t0 = fid.overlap_phases(f5).phases
        t1 = fid.overlap_phases(g).phases
        for i, j in itertools.product(range(5), repeat=2):
            fi, fj = (2 * i + j) % 5, (i + j) % 5
            assert abs(t1[fi, fj] - t0[i, j]) < 1e-10


class TestSicDefect:
    def test_basis_vector_matches_brute_force(self):
        e0 = np.zeros(3, dtype=complex)
        e0[0] = 1.0
        assert abs(fid.sic_defect(e0, 3) - brute_defect(e0, 3)) < 1e-12
        assert abs(fid.sic_defect(e0, 3) - 1.5) < 1e-12

    def test_random_vector_matches_brute_force(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        v /= np.linalg.norm(v)
        assert abs(fid.sic_defect(v, 5) - brute_defect(v, 5)) < 1e-12

    def test_found_fiducial_defect(self, f5):
        assert fid.sic_defect(f5.vector, 5) <= 1e-18

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        v /= np.linalg.norm(v)
        base = fid.sic_defect(v, 5)
        for phi in (0.3, 1.1, 2.9):
            assert abs(fid.sic_defect(np.exp(1j * phi) * v, 5) - base) < 1e-12

    def test_symplectic_invariance(self, f5):
        rng = np.random.default_rng(2)
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        v /= np.linalg.norm(v)
        U = symplectic_unitary(np.array([[2, 1], [1, 1]]), 5)
        assert abs(fid.sic_defect(U @ v, 5) - fid.sic_defect(v, 5)) < 1e-12


class TestVerifySic:
    def test_accepts_found_fiducials(self, f5, f7, f9):
        for f in (f5, f7, f9):
            assert fid.verify_sic(f, tol=1e-8)

    def test_accepts_climbed_sic(self, f15):
        assert fid.verify_sic(f15, tol=1e-8)

    def test_rejects_random_vector(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        f = fid.SicFiducial(d=5, vector=v / np.linalg.norm(v))
        assert not fid.verify_sic(f)

    def test_rejects_unnormalized(self, f5):
        g = fid.SicFiducial(d=5, vector=2.0 * f5.vector)
        assert not fid.verify_sic(g)


class TestTwoDesign:
    def test_sic5_design_constant(self, f5):
        # doubled frame operator = (25 / 15) * symmetric projector
        assert fid.two_design_deviation(f5) <= 1e-8
        assert fid.two_design_check(f5)

    def test_sic7_design_constant(self, f7):
        assert fid.two_design_deviation(f7) <= 1e-8
        assert fid.two_design_check(f7)

    def test_design_constant_value(self, f5):
        d = 5
        orb = fid.wh_orbit(f5.vector)
        V2 = np.einsum("Ia,Ib->Iab", orb, orb).reshape(d * d, d * d)
        S2 = V2.T @ V2.conj()
        swap = S2 * 0
        r, s = np.divmod(np.arange(d * d), d)
        swap[s * d + r, np.arange(d * d)] = 1.0
        assert np.abs(S2 - (5.0 / 3.0) * (np.eye(d * d) + swap) / 2).max() < 1e-8

    def test_non_sic_is_refused(self):
        e0 = np.zeros(3, dtype=complex)
        e0[0] = 1.0
        with pytest.raises(NotASic):
            fid.two_design_check(fid.SicFiducial(d=3, vector=e0))


class TestGaugeNormalize:
    def test_unit_norm_and_real_positive_peak(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        g = fid.gauge_normalize(v)
        assert abs(np.linalg.norm(g) - 1) < 1e-12
        k = int(np.argmax(np.abs(g)))
        assert abs(g[k].imag) < 1e-12 and g[k].real > 0

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        g = fid.gauge_normalize(v)
        assert np.abs(fid.gauge_normalize(g) - g).max() < 1e-14


class TestSearch:
    def test_eigenspace_dimensions(self):
        assert fid.symmetry_eigenspace(5, zauner_matrix_standard(5), W3).shape == (5, 2)
        assert fid.symmetry_eigenspace(7, canonical_order3(7), 1.0).shape == (7, 3)
        assert fid.symmetry_eigenspace(9, zauner_matrix_standard(9), 1.0).shape == (9, 4)

    def test_search_is_deterministic(self):
        a = fid.find_fiducial(5, seed=3, restarts=10)
        b = fid.find_fiducial(5, seed=3, restarts=10)
        assert np.array_equal(a.vector, b.vector)

    @pytest.mark.xfail(strict=False,
                       reason="least_squares(method='lm') returns different "
                              "last bits for identical inputs depending on heap "
                              "state, so repeated searches in one process can "
                              "disagree bitwise")
    def test_search_is_bitwise_reproducible_within_a_process(self):
        ref = fid.find_fiducial(9, seed=0).vector
        keep = []
        for k in range(20):
            # allocation churn between calls moves the heap
            rng = np.random.default_rng(k)
            keep = keep[-3:] + [[np.empty(int(n)) for n in rng.integers(1, 5000, 50)]]
            assert np.array_equal(fid.find_fiducial(9, seed=0).vector, ref), \
                f"call {k + 1} after the first returned different bits"

    def test_search_result_is_symmetric_eigenvector(self, f5):
        U = fid.fix_phase_to_table(fid.symplectic_unitary(f5.symmetry, 5), 3)
        lam = f5.symmetry_eigenvalue
        assert np.abs(U @ f5.vector - lam * f5.vector).max() < 1e-7

    def test_real_search_at_d7(self, f7):
        assert np.abs(f7.vector.imag).max() < 1e-10

    def test_unsupported_dimension(self):
        with pytest.raises(BadDimension):
            fid.find_fiducial(11)

    def test_exhausted_restarts(self):
        with pytest.raises(SearchFailed):
            fid.find_fiducial(5, restarts=1, seed=0, target=1e-40)

    def test_eigenspace_census_d5(self):
        rays = fid.sector_fiducials(5, zauner_matrix_standard(5), W3,
                                    tries=150, seed=17)
        assert len(rays) == 4

    def test_census_rays_are_distinct_sics(self):
        rays = fid.sector_fiducials(5, zauner_matrix_standard(5), W3,
                                    tries=150, seed=17)
        assert len(rays) == 4
        for f in rays:
            assert fid.verify_sic(f, tol=1e-8)
        for a in range(4):
            for b in range(a + 1, 4):
                ov = abs(np.vdot(rays[a].vector, rays[b].vector))
                assert ov < 1 - 1e-6


class TestSymmetryDetection:
    def test_order3_on_search_output(self, f5):
        F, lam = fid.detect_order3_symmetry(f5)
        I = np.eye(2, dtype=int)
        assert np.array_equal((F @ F @ F) % 5, I)
        assert abs(abs(lam) - 1) < 1e-12

    def test_order3_on_climbed_sic(self, f15):
        out = fid.detect_order3_symmetry(f15)
        assert out is not None
        F, lam = out
        U = fid.fix_phase_to_table(fid.symplectic_unitary(F, 15), 3)
        assert np.abs(U @ f15.vector - lam * f15.vector).max() < 1e-7

    def test_scalar_involution_on_climbed_sic(self, f15):
        F = fid.detect_scalar_symmetry(f15)
        assert F is not None
        b = int(F[0, 0])
        assert F.tolist() == [[b, 0], [0, b]]
        assert (b * b) % 15 == 1 and b not in (1, 14)

    def test_no_scalar_symmetry_at_prime_d(self, f5):
        # b^2 = 1 mod 5 has only b = 1, 4; nothing nontrivial to find
        assert fid.detect_scalar_symmetry(f5) is None

    def test_group_orders(self, f5, f15):
        assert fid.symmetry_group_order(f5) == 3
        assert fid.symmetry_group_order(f15) == 6