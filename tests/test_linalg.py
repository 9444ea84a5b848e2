import numpy as np
import pytest

from sicladder import ladder as lad
from sicladder.errors import SicladderError
from sicladder.linalg import eig_unitary, phase_fix_columns


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestEigUnitary:
    def test_identity(self):
        dec = eig_unitary(np.eye(3))
        assert np.allclose(dec.eigenvalues, 1.0)
        assert np.abs(dec.eigenvectors - np.eye(3)).max() < 1e-12

    def test_diagonal_third_root_ordering(self):
        w = np.exp(2j * np.pi / 3)
        dec = eig_unitary(np.diag([w ** 2, 1, 1]))
        # phase-ascending: the two 1s first, then w^2
        assert np.abs(dec.eigenvalues - np.array([1, 1, w ** 2])).max() < 1e-12

    def test_reconstruction(self):
        A = random_unitary(5, seed=11)
        dec = eig_unitary(A)
        R = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.conj().T
        assert np.abs(R - A).max() < 1e-10
        g = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.abs(g - np.eye(5)).max() < 1e-10

    def test_eigenvalues_on_unit_circle(self):
        dec = eig_unitary(random_unitary(7, seed=3))
        assert np.abs(np.abs(dec.eigenvalues) - 1).max() < 1e-10

    def test_rejects_non_unitary(self):
        with pytest.raises(SicladderError, match=r"^\|\|A A\^dag - 1\|\|_max = 3\.000e\+00 > "):
            eig_unitary(np.diag([2.0, 1.0]))

    def test_degenerate_group_basis_is_orthonormal(self):
        # 4-fold degenerate block plus two simple eigenvalues
        U = random_unitary(6, seed=5)
        A = U @ np.diag([1, 1, 1, 1, 1j, -1]) @ U.conj().T
        dec = eig_unitary(A)
        g = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.abs(g - np.eye(6)).max() < 1e-9
        assert np.abs(dec.eigenvectors @ np.diag(dec.eigenvalues)
                      @ dec.eigenvectors.conj().T - A).max() < 1e-9

    def test_phase_convention(self):
        dec = eig_unitary(random_unitary(4, seed=9))
        for k in range(4):
            col = dec.eigenvectors[:, k]
            first = col[np.nonzero(np.abs(col) > 1e-8)[0][0]]
            assert abs(first.imag) < 1e-10 and first.real > 0

    def test_refuses_non_finite_matrix(self):
        with pytest.raises(SicladderError, match=r"^\|\|A A\^dag - 1\|\|_max = nan > "):
            eig_unitary(np.full((3, 3), np.nan + 0j))


class TestPartialTrace:
    def test_proto_vector_reduced_state(self, fam5):
        # at parameter 0 the family member is (f0 e0 + f1 e1)/sqrt(2); tracing
        # out the 3-dim side leaves half the projector onto the paired e span
        psi = lad.build_proto(fam5, [0.0])
        A = lad.to_tensor(psi, 5)
        rho = np.outer(A.ravel(), A.ravel().conj())
        red = np.einsum("ajak->jk", rho.reshape(3, 5, 3, 5))
        eb = fam5.e_basis.vectors
        ids = [ei[0] for _, ei in fam5.blocks]
        E = eb[:, ids]
        assert np.abs(red - (E @ E.conj().T) / 2).max() < 1e-12


def test_phase_fix_columns():
    B = np.array([[0, 1j], [2j, 0]], dtype=complex)
    out = phase_fix_columns(B)
    assert abs(out[1, 0] - 2) < 1e-12
    assert abs(out[0, 1] - 1) < 1e-12
