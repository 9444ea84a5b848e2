"""Tight/equiangular frame certificates, covariant generators, Naimark duals."""
import numpy as np
import pytest

from sicladder import frames as fr
from sicladder import ladder as lad
from sicladder.clifford import eigenspace_basis
from sicladder.errors import SicladderError


def basis_vec(d, j):
    e = np.zeros(d, dtype=complex)
    e[j] = 1.0
    return e


def complement(reflection, d):
    """Covariant generator of the -1 eigenspace of a block reflection: the
    Naimark complement of the blocks, as `verify`'s etf-naimark row builds it."""
    return fr.covariant_generator(eigenspace_basis(reflection, -1.0).T, d)


class TestCheckTight:
    def test_orthonormal_basis_is_a_trivial_etf(self):
        cert = fr.check_tight(np.eye(3, dtype=complex))
        assert cert.is_tight and cert.is_equiangular
        assert cert.common_overlap_sq < 1e-12

    def test_sic_orbit_is_equiangular_tight(self, f15):
        cert = fr.check_tight(fr.covariant_generator([f15.vector], 15))
        assert cert.is_tight and cert.is_equiangular
        assert abs(cert.common_overlap_sq - 1.0 / 16) < 1e-8

    def test_complement_of_lift_is_etf(self, f5):
        comp = complement(lad._lift_reflection(f5), 5)
        assert comp.shape == (10, 25)
        cert = fr.check_tight(comp)
        assert cert.is_tight and cert.is_equiangular
        # (N - r)/(r (N - 1)) at r=10, N=25
        assert abs(cert.common_overlap_sq - 15.0 / 240) < 1e-8

    def test_repeated_block_is_not_tight(self):
        e0 = basis_vec(3, 0)
        cert = fr.check_tight(fr.covariant_generator([e0, e0], 3))
        assert not cert.is_tight

    def test_tight_constant_is_resolution_weight(self, f5):
        # sum of unit-column projectors = (N/r) identity for a tight frame
        blocks = lad.lift_fiducial(f5)
        M = fr.covariant_generator(blocks, 5)
        M = M / np.linalg.norm(M, axis=0)
        r, N = M.shape
        assert np.abs(M @ M.conj().T - (N / r) * np.eye(r)).max() < 1e-10


class TestCovariantGenerator:
    def test_orbit_of_basis_vector(self):
        M = fr.covariant_generator([basis_vec(3, 0)], 3)
        assert M.shape == (3, 9)
        tau = -np.exp(1j * np.pi / 3)
        for i in range(3):
            for j in range(3):
                col = M[:, 3 * i + j]
                assert np.sum(np.abs(col) > 1e-12) == 1
                assert abs(col[i] - tau ** (i * j)) < 1e-12

    def test_lifted_blocks_give_tight_frame(self, f5):
        M = fr.covariant_generator(lad.lift_fiducial(f5), 5)
        assert M.shape == (15, 25)
        assert fr.check_tight(M).is_tight

    def test_wrong_block_length(self):
        with pytest.raises(SicladderError, match=r"^blocks must each live in C\^3$"):
            fr.covariant_generator([basis_vec(4, 0)], 3)


class TestTightnessBlockEquivalence:
    @pytest.mark.parametrize("d", (3, 5, 7))
    def test_tight_iff_blocks_orthonormal(self, d):
        rng = np.random.default_rng(40 + d)
        k = (d - 1) // 2
        for trial in range(10):
            raw = rng.normal(size=(d, k)) + 1j * rng.normal(size=(d, k))
            if trial % 2 == 0:
                raw, _ = np.linalg.qr(raw)
            else:
                raw /= np.linalg.norm(raw, axis=0)
            blocks = [raw[:, c] for c in range(k)]
            gram_ok = np.abs(raw.conj().T @ raw - np.eye(k)).max() <= 1e-10
            cert = fr.check_tight(fr.covariant_generator(blocks, d))
            assert cert.is_tight == gram_ok


class TestNaimarkComplement:
    def test_basis_blocks_complement_is_leftover_orbit(self):
        B = np.column_stack([basis_vec(3, 0), basis_vec(3, 1)])
        comp = complement(2 * (B @ B.conj().T) - np.eye(3), 3)
        assert comp.shape == (3, 9)
        # the automatic completion of {e0, e1} is e2 itself
        assert np.abs(comp[:, 0] - basis_vec(3, 2)).max() < 1e-10
        cert = fr.check_tight(comp)
        assert cert.is_tight and not cert.is_equiangular

    def test_gram_duality(self, f5):
        orig = fr.covariant_generator(lad.lift_fiducial(f5), 5)
        comp = complement(lad._lift_reflection(f5), 5)
        G = orig.conj().T @ orig + comp.conj().T @ comp
        assert np.abs(G - 5.0 * np.eye(25)).max() < 1e-10


class TestGrassmannEquidistance:
    def test_identical_subspaces(self):
        b = np.eye(4)[:, :2]
        eq, dist = fr.grassmann_equidistance([b, b, b])
        assert eq and dist < 1e-12

    def test_coordinate_lines_equidistant(self):
        bases = [np.eye(3)[:, [j]] for j in range(3)]
        eq, dist = fr.grassmann_equidistance(bases)
        assert eq and abs(dist - 1.0) < 1e-12

    def test_complex_plane_against_itself_at_zero_distance(self):
        # a generic complex span, where ||U^dag U||_F^2 rounds just below r
        rng = np.random.default_rng(1)
        U, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        eq, dist = fr.grassmann_equidistance([U[:, :2], U[:, :2]])
        assert eq and dist < 1e-7

    def test_orthogonal_pair_of_lines_at_unit_distance(self):
        eq, dist = fr.grassmann_equidistance([np.array([[1.0], [0.0]]),
                                              np.array([[0.0], [1.0]])])
        assert eq and abs(dist - 1.0) < 1e-12

    def test_translated_etf_spans_equidistant(self, f15):
        bases = lad.translated_subspaces(f15.vector, 5)
        assert len(bases) == 9
        eq, dist = fr.grassmann_equidistance(bases)
        assert eq and dist > 0.1

    def test_generic_triple_not_equidistant(self):
        rng = np.random.default_rng(11)
        bases = []
        for _ in range(3):
            raw = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
            q, _ = np.linalg.qr(raw)
            bases.append(q)
        eq, _ = fr.grassmann_equidistance(bases)
        assert not eq

    def test_distance_matches_principal_angles(self):
        rng = np.random.default_rng(12)
        q1, _ = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
        q2, _ = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
        cos = np.clip(np.linalg.svd(q1.conj().T @ q2, compute_uv=False), 0.0, 1.0)
        _, dist = fr.grassmann_equidistance([q1, q2])
        assert abs(dist - np.sqrt(np.sum(1 - cos ** 2))) < 1e-12

    def test_rejects_non_orthonormal(self):
        b = np.ones((3, 2), dtype=complex)
        with pytest.raises(SicladderError, match="^columns not orthonormal, deviation "):
            fr.grassmann_equidistance([b, np.eye(3)[:, :2]])

    def test_rejects_non_orthonormal_line(self):
        with pytest.raises(SicladderError, match="^columns not orthonormal, deviation "):
            fr.grassmann_equidistance([np.array([[1.0], [1.0]]), np.array([[1.0], [0.0]])])

    def test_refuses_non_finite_basis(self):
        with pytest.raises(SicladderError, match="^columns not orthonormal, deviation nan$"):
            fr.grassmann_equidistance([np.full((2, 1), np.nan), np.array([[1.0], [0.0]])])

    def test_rejects_unequal_ranks(self):
        with pytest.raises(SicladderError, match="^subspaces must have equal dimension$"):
            fr.grassmann_equidistance([np.eye(3)[:, :1], np.eye(3)[:, 1:]])


def test_restrict_to_span_round_trip():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(6, 2)) @ rng.normal(size=(2, 8))
    span, coords = fr.restrict_to_span(M)
    assert span.shape == (6, 2)
    assert np.abs(span.conj().T @ span - np.eye(2)).max() < 1e-10
    assert np.abs(span @ coords - M).max() < 1e-10