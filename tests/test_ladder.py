"""The dimension-ladder core: symmetric lift, generalized parity, paired
bases, proto families, and the alignment certificate."""
import itertools

import numpy as np
import pytest

from sicladder import fiducials as fid
from sicladder import frames as fr
from sicladder import ladder as lad
from sicladder.clifford import (canonical_order3, eigenspace_basis,
                                order3_elements, symplectic_unitary)
from sicladder.errors import BadPairing, NotASic, SicladderError
from sicladder.heisenberg import crt_index, displacement

from oracles import coefficient_blocks, crt_permutation


def h_matrix(d):
    """diag(1, 2^{-1}) mod d; conjugation by it moves symmetries across the lift."""
    return np.array([[1, 0], [0, (d + 1) // 2]])


def symmetric_reindex(d):
    """Unitary W on C^d (x) C^d with W (D_{Hp} (x) D_{Hp}) W^dag = 1 (x) D_p.

    Rows come in d blocks of size d. Basis pairs (u, v) with v - u = x are
    relabeled (x, i) via u = x(d-1)/2 + i; the swap u <-> v fixes (x, i) up
    to x -> -x, so symmetric/antisymmetric combinations of the x and -x
    blocks diagonalize the exchange while the displacement action on i is
    block-independent. Symmetric blocks come first: x = 0, then (d-1)/2
    symmetric pairs, then the antisymmetric pairs. lift_fiducial gathers
    the symmetric rows of W @ kron(psi, psi) by index.
    """
    half, kap = (d - 1) // 2, (d + 1) // 2
    W = np.zeros((d * d, d * d), dtype=complex)
    row = 0
    for x in range(kap):
        for i in range(d):
            u, v = (x * half + i) % d, (x * kap + i) % d
            if x == 0:
                W[row, u * d + v] = 1.0
            else:
                W[row, u * d + v] += 1 / np.sqrt(2)
                W[row, v * d + u] += 1 / np.sqrt(2)
            row += 1
    for x in range(1, kap):
        for i in range(d):
            u, v = (x * half + i) % d, (x * kap + i) % d
            W[row, u * d + v] += 1 / np.sqrt(2)
            W[row, v * d + u] -= 1 / np.sqrt(2)
            row += 1
    return W


class TestHMatrix:
    def test_lower_entry_halves(self):
        for d in (3, 5, 7, 9, 13, 15):
            H = h_matrix(d)
            assert H[0, 0] == 1
            assert (2 * H[1, 1]) % d == 1

    def test_conjugation_round_trip(self):
        F = np.array([[0, 4], [1, 4]])
        G = lad.h_conjugate(F, 5)
        H = h_matrix(5)
        assert np.array_equal((H @ G) % 5, (F @ H) % 5)


class TestSymmetricReindex:
    def test_doubled_displacements_become_blocks_d5(self):
        d, W = 5, symmetric_reindex(5)
        H = h_matrix(d)
        for i, j in itertools.product(range(d), repeat=2):
            hi, hj = (H[0, 0] * i) % d, (H[1, 1] * j) % d
            DD = np.kron(displacement(d, hi, hj), displacement(d, hi, hj))
            got = W @ DD @ W.conj().T
            assert np.abs(got - np.kron(np.eye(d), displacement(d, i, j))).max() < 1e-10

    @pytest.mark.parametrize("d", (3, 7, 9))
    def test_generators_preserve_block_label(self, d):
        W = symmetric_reindex(d)
        H = h_matrix(d)
        for p in ((1, 0), (0, 1)):
            hi, hj = (H[0, 0] * p[0]) % d, (H[1, 1] * p[1]) % d
            DD = np.kron(displacement(d, hi, hj), displacement(d, hi, hj))
            got = W @ DD @ W.conj().T
            assert np.abs(got - np.kron(np.eye(d), displacement(d, *p))).max() < 1e-10

    def test_unitary_and_exchange_signature(self):
        d, W = 7, symmetric_reindex(7)
        assert np.abs(W @ W.conj().T - np.eye(49)).max() < 1e-12
        S = np.zeros((49, 49))
        for u in range(d):
            for v in range(d):
                S[u * d + v, v * d + u] = 1.0
        sig = np.real(np.diag(W @ S @ W.conj().T))
        # 4 symmetric blocks of 7 rows first, then the 3 antisymmetric ones
        assert np.abs(W @ S @ W.conj().T - np.diag(sig)).max() < 1e-12
        assert np.abs(sig[:28] - 1).max() < 1e-12
        assert np.abs(sig[28:] + 1).max() < 1e-12


class TestLift:
    @pytest.mark.parametrize("name", ("f5", "f7", "f9", "f15"))
    def test_gather_matches_the_reindex_route(self, name, request):
        f = request.getfixturevalue(name)
        d, kap = f.d, (f.d + 1) // 2
        L = np.sqrt(kap) * (symmetric_reindex(d) @ np.kron(f.vector, f.vector))
        blocks = lad.lift_fiducial(f)
        assert blocks.shape == (kap, d)
        assert np.abs(blocks - L[:kap * d].reshape(kap, d)).max() <= 1e-15
        # psi (x) psi is symmetric, so the antisymmetric blocks vanish
        assert np.abs(L[kap * d:]).max() <= 1e-15

    def test_block_count_and_orthonormality(self, f5):
        B = lad.lift_fiducial(f5).T
        assert B.shape == (5, 3)
        assert np.abs(B.conj().T @ B - np.eye(3)).max() < 1e-10

    def test_projector_identity(self, f5):
        # sum of block projectors = (1 + parity)/2
        B = lad.lift_fiducial(f5).T
        P = lad.generalized_parity(f5)
        assert np.abs(2 * B @ B.conj().T - np.eye(5) - P.matrix).max() < 1e-9

    def test_overlap_reproduction(self, f5):
        d, psi = 5, f5.vector
        L = lad.lift_fiducial(f5)
        H = h_matrix(d)
        for i, j in itertools.product(range(d), repeat=2):
            s = sum(np.vdot(x, displacement(d, i, j) @ x) for x in L)
            hi, hj = (H[0, 0] * i) % d, (H[1, 1] * j) % d
            doubled = np.vdot(psi, displacement(d, hi, hj) @ psi) ** 2
            assert abs(s - 3 * doubled) < 1e-10

    def test_rejects_non_sic(self):
        e0 = np.zeros(5, dtype=complex)
        e0[0] = 1.0
        with pytest.raises(NotASic):
            lad.lift_fiducial(fid.SicFiducial(d=5, vector=e0))

    @pytest.mark.parametrize("v, dev", ((np.full(5, 5 ** -0.5), r"1\.200e\+00$"),
                                        (np.full(5, np.nan), "nan$")))
    def test_refuses_blocks_off_orthonormality(self, monkeypatch, v, dev):
        # the guard on the blocks that the etf-naimark row reflects, reached
        # here past the SIC gate
        monkeypatch.setattr(lad, "verify_sic", lambda f, tol: True)
        with pytest.raises(SicladderError,
                           match="^lift blocks deviate from orthonormality by " + dev):
            lad.lift_fiducial(fid.SicFiducial(d=5, vector=v))

    @pytest.mark.parametrize("name", ("f5", "f7", "f9"))
    def test_reflection_complement_has_the_leftover_rank(self, name, request):
        f = request.getfixturevalue(name)
        R = lad._lift_reflection(f)
        assert np.abs(R @ R - np.eye(f.d)).max() < 1e-12
        assert eigenspace_basis(R, -1.0).shape == (f.d, (f.d - 1) // 2)


class TestGeneralizedParity:
    def test_involution_hermitian_multiplicities(self, f5):
        P = lad.generalized_parity(f5).matrix
        assert np.abs(P @ P - np.eye(5)).max() < 1e-10
        assert np.abs(P - P.conj().T).max() < 1e-10
        lam = np.linalg.eigvalsh((P + P.conj().T) / 2)
        assert int(np.sum(lam > 0)) == 3 and int(np.sum(lam < 0)) == 2

    def test_dual_construction_agreement(self, f7):
        P = lad.generalized_parity(f7)
        assert P.dual_deviation <= 1e-9

    def test_phase_sum_route_direct(self, f5):
        # independent evaluation of the phase-sum form against the stored one
        d = 5
        H = h_matrix(d)
        P = np.eye(d, dtype=complex) / d
        for i, j in itertools.product(range(d), repeat=2):
            if (i, j) == (0, 0):
                continue
            hi, hj = (H[0, 0] * i) % d, (H[1, 1] * j) % d
            ph = np.vdot(f5.vector, displacement(d, hi, hj) @ f5.vector)
            P += ph ** 2 * (d + 1) / d * displacement(d, -i % d, -j % d)
        assert np.abs(P - lad.generalized_parity(f5).matrix).max() < 1e-9

    def test_commutes_with_transported_symmetry(self, f5):
        P = lad.generalized_parity(f5).matrix
        U = symplectic_unitary(lad.h_conjugate(f5.symmetry, 5), 5)
        assert np.abs(P @ U - U @ P).max() < 1e-9

    def test_rejects_non_sic(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        f = fid.SicFiducial(d=5, vector=v / np.linalg.norm(v))
        with pytest.raises(NotASic):
            lad.generalized_parity(f)


class TestPairedBases:
    def test_labels_d5(self, f5):
        P = lad.generalized_parity(f5)
        e_b, f_b = lad.paired_bases(f5, canonical_order3(3), P)
        assert sorted(e_b.labels) == [1, 2]
        assert sorted(f_b.labels) == [0, 1]
        assert e_b.vectors.shape == (5, 2) and f_b.vectors.shape == (3, 2)

    def test_labels_d7(self, f7):
        P = lad.generalized_parity(f7)
        e_b, f_b = lad.paired_bases(f7, canonical_order3(5), P)
        assert sorted(e_b.labels) == [0, 1, 2]
        assert sorted(f_b.labels) == [0, 1, 2]

    def test_degenerate_labels_d9(self, f9):
        P = lad.generalized_parity(f9)
        e_b, f_b = lad.paired_bases(f9, canonical_order3(7), P)
        assert sorted(e_b.labels) == [0, 0, 1, 2]
        assert sorted(f_b.labels) == [0, 0, 1, 2]

    def test_e_side_lives_in_minus_parity(self, f5):
        P = lad.generalized_parity(f5)
        e_b, _ = lad.paired_bases(f5, canonical_order3(3), P)
        assert np.abs(P.matrix @ e_b.vectors + e_b.vectors).max() < 1e-8

    def test_f_side_lives_in_plus_parity(self, f5):
        from sicladder.clifford import parity_operator
        P = lad.generalized_parity(f5)
        _, f_b = lad.paired_bases(f5, canonical_order3(3), P)
        assert np.abs(parity_operator(3) @ f_b.vectors - f_b.vectors).max() < 1e-8

    def test_sides_orthonormal(self, f7):
        P = lad.generalized_parity(f7)
        e_b, f_b = lad.paired_bases(f7, canonical_order3(5), P)
        for B in (e_b.vectors, f_b.vectors):
            assert np.abs(B.conj().T @ B - np.eye(B.shape[1])).max() < 1e-8


class TestFeasibleTargets:
    def test_unique_target_d5(self, f5):
        P = lad.generalized_parity(f5)
        e_b, f_b = lad.paired_bases(f5, canonical_order3(3), P)
        assert lad.feasible_targets(f_b, e_b) == [2]

    def test_all_targets_d7(self, f7):
        P = lad.generalized_parity(f7)
        e_b, f_b = lad.paired_bases(f7, canonical_order3(5), P)
        assert lad.feasible_targets(f_b, e_b) == [0, 1, 2]

    def test_infeasible_pairing_raises(self, f5):
        P = lad.generalized_parity(f5)
        e_b, f_b = lad.paired_bases(f5, canonical_order3(3), P)
        with pytest.raises(BadPairing):
            lad.make_pairing(f_b, e_b, 0)


class TestProtoFamily:
    def test_param_counts(self, fam5, f9):
        assert fam5.n_params == 1
        P = lad.generalized_parity(f9)
        e_b, f_b = lad.paired_bases(f9, canonical_order3(7), P)
        fam9 = lad.make_proto_family(f9, e_b, f_b, 0)
        # one 2x2 block and two singletons: (4 - 1) + 2
        assert fam9.n_params == 5

    def test_unit_norm_and_tensor_round_trip(self, fam5):
        psi = lad.build_proto(fam5, [0.7])
        assert abs(np.linalg.norm(psi) - 1) < 1e-12
        A = lad.to_tensor(psi, 5)
        assert A.shape == (3, 5)
        assert np.abs(A.ravel()[crt_index(3, 5)] - psi).max() < 1e-12

    def test_zero_phase_member_is_plain_pair_sum(self, fam5):
        psi = lad.build_proto(fam5, [0.0])
        A = lad.to_tensor(psi, 5)
        expect = np.zeros((3, 5), dtype=complex)
        for (fi,), (ei,) in fam5.blocks:
            expect += np.outer(fam5.f_basis.vectors[:, fi],
                               fam5.e_basis.vectors[:, ei]) / np.sqrt(2)
        assert np.abs(A - expect).max() < 1e-12

    def test_param_count_enforced(self, fam5):
        with pytest.raises(SicladderError, match="^need 1 parameters, got 2$"):
            lad.build_proto(fam5, [0.1, 0.2])

    def test_block_coefficients_unitary(self, f9):
        P = lad.generalized_parity(f9)
        e_b, f_b = lad.paired_bases(f9, canonical_order3(7), P)
        fam9 = lad.make_proto_family(f9, e_b, f_b, 0)
        rng = np.random.default_rng(3)
        blocks = coefficient_blocks(fam9, rng.uniform(0, 2 * np.pi, 5))
        sizes = sorted(b.shape[0] for b in blocks)
        assert sizes == [1, 1, 2]
        for b in blocks:
            assert np.abs(b @ b.conj().T - np.eye(b.shape[0])).max() < 1e-12
        two = next(b for b in blocks if b.shape[0] == 2)
        assert abs(np.linalg.det(two) - 1) < 1e-12

    def test_maximal_entanglement(self, fam5, f7):
        rng = np.random.default_rng(8)
        P = lad.generalized_parity(f7)
        e_b, f_b = lad.paired_bases(f7, canonical_order3(5), P)
        fam7 = lad.make_proto_family(f7, e_b, f_b, 0)
        for fam, d in ((fam5, 5), (fam7, 7)):
            psi = lad.build_proto(fam, rng.uniform(0, 2 * np.pi, fam.n_params))
            A = lad.to_tensor(psi, d)
            V = crt_permutation(d - 2, d)
            half = (d - 1) // 2
            for axis in (0, 1):
                rho = A @ A.conj().T if axis == 0 else A.T @ A.conj()
                lam = np.linalg.eigvalsh(rho)
                nz = lam[lam > 1e-12]
                assert len(nz) == half
                assert np.abs(nz - 2.0 / (d - 1)).max() < 1e-10


class TestAlignment:
    @pytest.mark.parametrize("d", (5, 7, 9))
    def test_every_family_member_is_aligned(self, d, f5, f7, f9):
        f = {5: f5, 7: f7, 9: f9}[d]
        P = lad.generalized_parity(f)
        e_b, f_b = lad.paired_bases(f, canonical_order3(d - 2), P)
        t = lad.feasible_targets(f_b, e_b)[0]
        fam = lad.make_proto_family(f, e_b, f_b, t)
        table = fid.overlap_phases(f)
        rng = np.random.default_rng(50 + d)
        for _ in range(50):
            psi = lad.build_proto(fam, rng.uniform(0, 2 * np.pi, fam.n_params))
            cert = lad.verify_alignment(psi, table, tol=1e-9)
            assert cert.passes
            assert cert.max_err_unit_condition <= 1e-9
            assert cert.max_err_phase_condition <= 1e-9

    def test_alignment_matrix_has_unit_determinant(self, fam5, f5):
        psi = lad.build_proto(fam5, [1.3])
        cert = lad.verify_alignment(psi, fid.overlap_phases(f5))
        M = cert.matrix_M
        assert M is not None
        assert int(round(np.linalg.det(M))) % 5 in (1, 4)

    def test_random_vector_fails(self, f5):
        rng = np.random.default_rng(1)
        v = rng.normal(size=15) + 1j * rng.normal(size=15)
        cert = lad.verify_alignment(v / np.linalg.norm(v), fid.overlap_phases(f5))
        assert not cert.passes

    def test_climbed_sic_is_aligned(self, f15, f5):
        cert = lad.verify_alignment(f15.vector, fid.overlap_phases(f5), tol=1e-8)
        assert cert.passes


class TestEmbeddedEtf:
    def test_rank_and_overlap_d5(self, f15):
        span, coords = fr.restrict_to_span(lad.embedded_etf(f15.vector, 5))
        assert span.shape[1] == 10
        cert = fr.check_tight(coords[:, :])
        assert cert.is_tight and cert.is_equiangular
        assert abs(cert.common_overlap_sq - 1.0 / 16) < 1e-8

    def test_rank_d7(self, f7):
        P = lad.generalized_parity(f7)
        e_b, f_b = lad.paired_bases(f7, canonical_order3(5), P)
        fam = lad.make_proto_family(f7, e_b, f_b, 0)
        psi = lad.build_proto(fam, np.random.default_rng(2).uniform(0, 2 * np.pi, fam.n_params))
        span, _ = fr.restrict_to_span(lad.embedded_etf(psi, 7))
        assert span.shape[1] == 21

    def test_refuses_unaligned_vector(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=15) + 1j * rng.normal(size=15)
        with pytest.raises(lad.AlignmentRequired):
            lad.embedded_etf(v / np.linalg.norm(v), 5)

    def test_refuses_non_finite_vector(self):
        with pytest.raises(lad.AlignmentRequired):
            lad.embedded_etf(np.full(15, np.nan + 0j), 5)


# the generator of fam5_solving's branch, and its square
F5 = (canonical_order3(3) @ canonical_order3(3)) % 3
F5_SQUARED = (F5 @ F5) % 3


class TestEquatorGeometry:
    def test_the_three_climb_solutions(self, sols5):
        vecs = [r.vector for r in sols5]
        assert lad.equator_geometry_check(vecs, F5, 5)
        assert lad.equator_geometry_check(vecs, F5_SQUARED, 5)

    def test_another_order3_generator_fails(self, sols5):
        # the rays are cycled by their branch's F and F^2 alone
        vecs = [r.vector for r in sols5]
        assert not lad.equator_geometry_check(vecs, [[0, 1], [2, 2]], 5)
        held = [F.tolist() for F in order3_elements(3)
                if lad.equator_geometry_check(vecs, F, 5)]
        assert sorted(held) == sorted([F5.tolist(), F5_SQUARED.tolist()])

    def test_random_family_triple_fails(self, fam5_solving):
        rng = np.random.default_rng(12)
        vecs = [lad.build_proto(fam5_solving, rng.uniform(0, 2 * np.pi, 1))
                for _ in range(3)]
        assert not lad.equator_geometry_check(vecs, F5, 5)

    def test_wrong_count(self, fam5_solving):
        v = lad.build_proto(fam5_solving, [0.5])
        with pytest.raises(SicladderError, match="^expected 3 solutions, got 2$"):
            lad.equator_geometry_check([v, v], F5, 5)


@pytest.fixture(scope="module")
def refined_bases(f15):
    P = lad.generalized_parity(f15)
    return lad.paired_bases(f15, canonical_order3(13), P,
                            lad.refining_involutions(f15))


class TestRefinedSplit:
    def test_parity_root_13(self):
        R = lad.root_of_parity(13)
        assert R.tolist() == [[5, 0], [0, 8]]
        assert (R @ R % 13).tolist() == [[12, 0], [0, 12]]

    def test_no_root_when_minus_one_not_square(self):
        with pytest.raises(SicladderError):
            lad.root_of_parity(7)

    def test_refining_involutions(self, f5, f15):
        small, big = lad.refining_involutions(f15)
        assert small.tolist() == lad.root_of_parity(13).tolist()
        assert big.tolist() == fid.detect_scalar_symmetry(f15).tolist()
        assert lad.refining_involutions(f5) is None

    def test_order6_labels_and_target(self, refined_bases):
        e_b, f_b = refined_bases
        assert e_b.order == 6 and f_b.order == 6
        assert sorted(e_b.labels) == [0, 0, 1, 2, 3, 4, 5]
        assert sorted(f_b.labels) == [0, 0, 1, 2, 3, 4, 5]
        assert lad.feasible_targets(f_b, e_b) == [0]

    def test_delegating_name_gives_the_same_bases(self, f15, refined_bases):
        sc = fid.detect_scalar_symmetry(f15)
        P = lad.generalized_parity(f15)
        e_b, f_b = lad.paired_bases_refined(f15, canonical_order3(13),
                                            lad.root_of_parity(13), sc, P)
        for new, old in zip((e_b, f_b), refined_bases):
            assert np.array_equal(new.vectors, old.vectors)
            assert new.labels == old.labels and new.order == old.order

    def test_refined_family_has_eight_params(self, f15, refined_bases):
        e_b, f_b = refined_bases
        fam = lad.make_proto_family(f15, e_b, f_b, 0)
        assert fam.n_params == 8

    def test_refined_member_is_aligned(self, f15, refined_bases):
        e_b, f_b = refined_bases
        fam = lad.make_proto_family(f15, e_b, f_b, 0)
        psi = lad.build_proto(fam, np.random.default_rng(6).uniform(0, 2 * np.pi, 8))
        cert = lad.verify_alignment(psi, fid.overlap_phases(f15), tol=1e-8)
        assert cert.passes

    def test_refined_block_sizes(self, f15, refined_bases):
        e_b, f_b = refined_bases
        fam = lad.make_proto_family(f15, e_b, f_b, 0)
        assert fam.block_sizes == [2, 1, 1, 1, 1, 1]
