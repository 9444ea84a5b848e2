"""Symplectic unitaries: covariance, composition, phase fixing, CRT splits."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sicladder import clifford as cl
from sicladder.errors import SicladderError
from sicladder.heisenberg import crt_index, displacement

from oracles import crt_permutation

DIMS = (3, 5, 7, 9, 13, 15)

W3 = np.exp(2j * np.pi / 3)


def covariance_deviation(U, F, d):
    """max over p of ||U D_p U+ - D_{Fp}||, no phase allowance."""
    worst = 0.0
    for i, j in itertools.product(range(d), repeat=2):
        fi = (F[0, 0] * i + F[0, 1] * j) % d
        fj = (F[1, 0] * i + F[1, 1] * j) % d
        dev = np.abs(U @ displacement(d, i, j) @ U.conj().T
                     - displacement(d, fi, fj)).max()
        worst = max(worst, dev)
    return worst


def seed_order3_elements(d):
    out = []
    I = np.eye(2, dtype=int)
    for a, b, g, e in itertools.product(range(d), repeat=4):
        if (a * e - b * g) % d != 1:
            continue
        M = np.array([[a, b], [g, e]])
        if np.array_equal(M, I):
            continue
        if np.array_equal((M @ M @ M) % d, I):
            out.append(M)
    return out


def random_symplectic(d, rng):
    # a invertible, then e is forced by det = 1
    while True:
        a = int(rng.integers(1, d))
        if np.gcd(a, d) == 1:
            break
    b, g = int(rng.integers(d)), int(rng.integers(d))
    e = (pow(a, -1, d) * (1 + b * g)) % d
    return np.array([[a, b], [g, e]])


def crt_split_symplectic(F, n1, n2):
    """Reduce F mod n1*n2 to the pair acting on the tensor factors.

    With V the CRT permutation of crt_index and q1 = n2^{-1} mod n1,
    q2 = n1^{-1} mod n2, the factors are

        F1 = [[a, n2 b], [q1 g, e]] mod n1,   F2 = [[a, n1 b], [q2 g, e]] mod n2,

    and V U_F V^dag equals U_{F1} (x) U_{F2} up to global phase; that
    operator identity is certified here to 1e-8.
    """
    if np.gcd(n1, n2) != 1:
        raise SicladderError(f"gcd({n1},{n2}) != 1")
    N = n1 * n2
    F = cl._as_modmatrix(F, N)
    if not cl.is_symplectic(F, N):
        raise SicladderError(f"det != 1 mod {N}: {F.tolist()}")
    a, b, g, e = int(F[0, 0]), int(F[0, 1]), int(F[1, 0]), int(F[1, 1])
    q1, q2 = pow(n2, -1, n1), pow(n1, -1, n2)
    F1 = np.array([[a, n2 * b], [q1 * g, e]]) % n1
    F2 = np.array([[a, n1 * b], [q2 * g, e]]) % n2
    idx = crt_index(n1, n2)
    A = np.empty((N, N), dtype=complex)
    A[np.ix_(idx, idx)] = cl.symplectic_unitary(F, N)   # V U_F V^T
    B = np.kron(cl.symplectic_unitary(F1, n1), cl.symplectic_unitary(F2, n2))
    k = np.unravel_index(np.argmax(np.abs(B)), B.shape)
    err = np.abs(A - (A[k] / B[k]) * B).max()
    if not err <= 1e-8:
        raise SicladderError(f"tensor split certificate failed: {err:.3e}")
    return F1, F2


def crt_glue_symplectic(F1, n1, F2, n2):
    """Inverse of crt_split_symplectic: the unique F mod n1*n2 splitting to (F1, F2)."""
    if np.gcd(n1, n2) != 1:
        raise SicladderError(f"gcd({n1},{n2}) != 1")
    N = n1 * n2
    F1 = cl._as_modmatrix(F1, n1)
    F2 = cl._as_modmatrix(F2, n2)
    q1, q2 = pow(n2, -1, n1), pow(n1, -1, n2)
    # undo the clock-axis twist on each factor, then CRT entrywise
    G1 = np.array([[F1[0, 0], q1 * F1[0, 1]], [n2 * F1[1, 0], F1[1, 1]]]) % n1
    G2 = np.array([[F2[0, 0], q2 * F2[0, 1]], [n1 * F2[1, 0], F2[1, 1]]]) % n2
    u1 = n2 * q1  # 1 mod n1, 0 mod n2
    u2 = n1 * q2  # 0 mod n1, 1 mod n2
    F = (u1 * G1 + u2 * G2) % N
    chk1, chk2 = crt_split_symplectic(F, n1, n2)
    if not (np.array_equal(chk1, F1) and np.array_equal(chk2, F2)):
        raise SicladderError("glue/split round trip failed")
    return F


# coprime odd factor pairs of the dimensions up to 63
COPRIME_ODD = [(n1, n2) for n1 in range(3, 22, 2) for n2 in range(3, 22, 2)
               if n1 * n2 <= 63 and np.gcd(n1, n2) == 1]


@st.composite
def split_cases(draw):
    """(n1, n2, F) with F symplectic mod n1*n2: a invertible, e forced by det = 1."""
    n1, n2 = draw(st.sampled_from(COPRIME_ODD))
    N = n1 * n2
    a = draw(st.integers(1, N - 1).filter(lambda a: np.gcd(a, N) == 1))
    b, g = draw(st.integers(0, N - 1)), draw(st.integers(0, N - 1))
    return n1, n2, np.array([[a, b], [g, pow(a, -1, N) * (1 + b * g) % N]])


@st.composite
def symplectic_cases(draw):
    """(d, F) with d odd, 3 <= d <= 15, and F anywhere in SL(2, Z_d): a
    primitive first row, then any second row that makes det = 1."""
    d = draw(st.sampled_from(range(3, 16, 2)))
    a, b = draw(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
                .filter(lambda r: np.gcd.reduce([*r, d]) == 1))
    g, e = draw(st.sampled_from([(g, e) for g in range(d) for e in range(d)
                                 if (a * e - b * g) % d == 1]))
    return d, np.array([[a, b], [g, e]])


class TestSymplecticUnitary:
    def test_identity_maps_to_identity(self):
        for d in (3, 5, 15):
            U = cl.symplectic_unitary(np.eye(2, dtype=int), d)
            assert np.abs(U - np.eye(d)).max() < 1e-12

    def test_diagonal_gives_permutation_d7(self):
        U = cl.symplectic_unitary(np.array([[2, 0], [0, 4]]), 7)
        mags = np.abs(U)
        assert np.all(np.sum(mags > 1e-12, axis=0) == 1)
        assert np.all(np.sum(mags > 1e-12, axis=1) == 1)
        assert np.abs(mags[mags > 1e-12] - 1).max() < 1e-12

    def test_standard_order3_covariance_d5(self):
        F = cl.zauner_matrix_standard(5)
        U = cl.symplectic_unitary(F, 5)
        assert covariance_deviation(U, F, 5) < 1e-10

    @pytest.mark.parametrize("d", DIMS)
    def test_covariance_seeded(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(4):
            F = random_symplectic(d, rng)
            U = cl.symplectic_unitary(F, d)
            assert np.abs(U @ U.conj().T - np.eye(d)).max() < 1e-10
            assert covariance_deviation(U, F, d) < 1e-10

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(symplectic_cases())
    def test_covariance_property(self, case):
        d, F = case
        assert covariance_deviation(cl.symplectic_unitary(F, d), F, d) < 1e-10

    def test_noninvertible_upper_right_path(self):
        # gcd(3, 15) = 3 forces the two-factor construction
        F = np.array([[1, 3], [1, 4]])
        U = cl.symplectic_unitary(F, 15)
        assert np.abs(U @ U.conj().T - np.eye(15)).max() < 1e-10
        assert covariance_deviation(U, F, 15) < 1e-10

    def test_rejects_wrong_determinant(self):
        with pytest.raises(SicladderError, match=r"^det != 1 mod 5: \[\[2, 0\], \[0, 1\]\]$"):
            cl.symplectic_unitary(np.array([[2, 0], [0, 1]]), 5)

    @pytest.mark.parametrize("d", DIMS)
    def test_composition(self, d):
        rng = np.random.default_rng(200 + d)
        for _ in range(20):
            F1 = random_symplectic(d, rng)
            F2 = random_symplectic(d, rng)
            U12 = cl.symplectic_unitary((F1 @ F2) % d, d)
            W = cl.symplectic_unitary(F1, d) @ cl.symplectic_unitary(F2, d)
            k = np.unravel_index(np.argmax(np.abs(W)), W.shape)
            assert np.abs(U12 - (U12[k] / W[k]) * W).max() < 1e-10


class TestStandardElements:
    def test_order3_matrix_cubes_to_identity(self):
        Z = cl.zauner_matrix_standard(5)
        assert np.array_equal((Z @ Z @ Z) % 5, np.eye(2, dtype=int))
        assert not np.array_equal(Z % 5, np.eye(2, dtype=int))

    def test_parity_matrix_entries(self):
        assert cl.parity_matrix(15).tolist() == [[14, 0], [0, 14]]
        P = cl.parity_matrix(7)
        assert np.array_equal((P @ P) % 7, np.eye(2, dtype=int))
        assert not np.array_equal(P, np.eye(2, dtype=int))

    def test_diagonal_order3_alternative_d7(self):
        F = np.array([[2, 0], [0, 4]])
        assert cl.is_symplectic(F, 7)
        assert np.array_equal((F @ F @ F) % 7, np.eye(2, dtype=int))
        assert not np.array_equal(F, np.eye(2, dtype=int))

    def test_parity_operator_is_index_negation(self):
        for d in (3, 7):
            P = cl.parity_operator(d)
            for j in range(d):
                e = np.zeros(d)
                e[j] = 1.0
                out = P @ e
                assert out[(d - j) % d] == 1.0 and np.sum(out) == 1.0
            assert np.abs(P @ P - np.eye(d)).max() == 0

    def test_parity_operator_from_phase_fix(self):
        for d in (5, 9):
            U = cl.fix_phase_to_table(cl.symplectic_unitary(cl.parity_matrix(d), d), 2)
            assert np.abs(U - cl.parity_operator(d)).max() < 1e-10

    @pytest.mark.parametrize("d", DIMS)
    def test_parity_trace_product_law(self, d):
        # Tr(D_p P) = 1 for every nonzero p
        P = cl.parity_operator(d)
        for i, j in itertools.product(range(d), repeat=2):
            if i == j == 0:
                continue
            t = np.trace(displacement(d, i, j) @ P)
            assert abs(t - 1.0) < 1e-10, (d, i, j, t)

    def test_order3_census_d5(self):
        els = cl.order3_elements(5)
        I = np.eye(2, dtype=int)
        assert len(els) > 0
        for M in els:
            assert not np.array_equal(M, I)
            assert np.array_equal((M @ M @ M) % 5, I)
            assert (M[0, 0] + M[1, 1]) % 5 == 4  # trace -1 characterizes order 3

    @pytest.mark.parametrize("d", range(3, 37, 2))
    def test_order3_elements_match_the_seed_scan(self, d):
        new, old = cl.order3_elements(d), seed_order3_elements(d)
        assert len(new) == len(old)
        for M, S in zip(new, old):
            assert M.dtype == S.dtype and M.tolist() == S.tolist()

    @pytest.mark.parametrize("d,count", [(5, 20), (7, 56), (11, 110), (13, 182), (193, 37442)])
    def test_order3_counts_at_primes(self, d, count):
        # d(d+1) for d = 1 mod 3, d(d-1) for d = 2 mod 3
        els = cl.order3_elements(d)
        assert len(els) == count == d * (d + 1 if d % 3 == 1 else d - 1)
        M = np.array(els)
        a, b, g, e = M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1]
        assert np.all((a * e - b * g) % d == 1)
        M3 = np.einsum("kij,kjl,klm->kim", M, M, M) % d
        assert np.all(M3 == np.eye(2, dtype=int))

    def test_canonical_pick_is_diagonal_when_possible(self):
        # x^2 + x + 1 has roots mod 13 (x = 3, 9) but none mod 5
        assert cl.canonical_order3(13).tolist() == [[3, 0], [0, 9]]
        assert cl.canonical_order3(5).tolist() == cl.zauner_matrix_standard(5).tolist()


class TestPhaseFix:
    def expected(self, d, order):
        return cl._expected_multiplicities(d, order)

    def test_multiplicity_table_values(self):
        assert self.expected(5, 3) == (1, 2, 2)
        assert self.expected(7, 3) == (3, 2, 2)
        assert self.expected(9, 3) == (4, 3, 2)
        assert self.expected(13, 3) == (5, 4, 4)
        assert self.expected(15, 3) == (6, 5, 4)
        assert self.expected(5, 2) == (3, 2)

    @pytest.mark.parametrize("d,counts", [(5, (3, 2)), (7, (4, 3)), (15, (8, 7))])
    def test_parity_multiplicities(self, d, counts):
        U = cl.fix_phase_to_table(cl.symplectic_unitary(cl.parity_matrix(d), d), 2)
        lam = np.linalg.eigvals(U)
        plus = int(np.sum(np.abs(lam - 1) < 1e-8))
        minus = int(np.sum(np.abs(lam + 1) < 1e-8))
        assert (plus, minus) == counts

    @pytest.mark.parametrize("d", DIMS[1:])
    def test_order3_multiplicities(self, d):
        U = cl.fix_phase_to_table(cl.symplectic_unitary(cl.canonical_order3(d), d), 3)
        assert np.abs(np.linalg.matrix_power(U, 3) - np.eye(d)).max() < 1e-8
        lam = np.linalg.eigvals(U)
        counts = tuple(int(np.sum(np.abs(lam - W3 ** q) < 1e-6)) for q in range(3))
        assert counts == self.expected(d, 3)

    def test_rescale_is_a_phase(self):
        U0 = cl.symplectic_unitary(cl.zauner_matrix_standard(7), 7)
        U = cl.fix_phase_to_table(U0, 3)
        r = U[np.abs(U0) > 1e-12][0] / U0[np.abs(U0) > 1e-12][0]
        assert abs(abs(r) - 1) < 1e-12
        assert np.abs(U - r * U0).max() < 1e-12

    def test_no_matching_phase_for_generic_involution(self):
        # diag(a, -a) squares to parity; its restricted spectrum is not the
        # parity pattern, so the table fix must refuse it
        F = np.array([[2, 0], [0, 3]])  # 2*3 = 6 = 1 mod 5, order 4
        U = cl.symplectic_unitary(F, 5)
        with pytest.raises(SicladderError, match=r"^U\^order is not a scalar matrix$"):
            cl.fix_phase_to_table(U, 2)

    def test_principal_fix_refuses_non_finite_matrix(self):
        with pytest.raises(SicladderError, match=r"^U\^order is not a scalar matrix$"):
            cl.fix_phase_principal(np.full((3, 3), np.nan + 0j), 3)

    def test_principal_fix_gives_unit_power(self):
        U = cl.fix_phase_principal(cl.symplectic_unitary(cl.zauner_matrix_standard(9), 9), 3)
        assert np.abs(np.linalg.matrix_power(U, 3) - np.eye(9)).max() < 1e-8


class TestEigenspaceBasis:
    def test_identity_full_basis(self):
        B = cl.eigenspace_basis(np.eye(4), 1.0)
        assert B.shape == (4, 4)
        assert np.abs(B - np.eye(4)).max() < 1e-12

    def test_order3_sector_size_d5(self):
        U = cl.fix_phase_to_table(cl.symplectic_unitary(cl.canonical_order3(5), 5), 3)
        B = cl.eigenspace_basis(U, W3)
        assert B.shape == (5, 2)
        assert np.abs(B.conj().T @ B - np.eye(2)).max() < 1e-8
        assert np.abs(U @ B - W3 * B).max() < 1e-8

    def test_order3_fixed_sector_size_d13(self):
        U = cl.fix_phase_to_table(cl.symplectic_unitary(cl.canonical_order3(13), 13), 3)
        B = cl.eigenspace_basis(U, 1.0)
        assert B.shape == (13, 5)

    def test_missing_eigenvalue(self):
        with pytest.raises(SicladderError, match=r"^no eigenvalue within 1e-08 of -1\.0$"):
            cl.eigenspace_basis(np.eye(3), -1.0)


class TestCrtSymplectic:
    def test_identity_splits_to_identities(self):
        F1, F2 = crt_split_symplectic(np.eye(2, dtype=int), 3, 5)
        assert np.array_equal(F1, np.eye(2, dtype=int))
        assert np.array_equal(F2, np.eye(2, dtype=int))

    def test_known_split_mod5_factor(self):
        F = np.array([[10, 9], [1, 4]])
        F1, F2 = crt_split_symplectic(F, 3, 5)
        assert np.array_equal(F2, np.array([[0, 2], [2, 4]]))

    def test_split_certificate_operator_level(self):
        # certificate inside crt_split_symplectic re-checked here externally
        F = np.array([[10, 9], [1, 4]])
        F1, F2 = crt_split_symplectic(F, 3, 5)
        V = crt_permutation(3, 5)
        A = V @ cl.symplectic_unitary(F, 15) @ V.T
        B = np.kron(cl.symplectic_unitary(F1, 3), cl.symplectic_unitary(F2, 5))
        k = np.unravel_index(np.argmax(np.abs(B)), B.shape)
        assert np.abs(A - (A[k] / B[k]) * B).max() < 1e-8

    @pytest.mark.parametrize("n1,n2", [(3, 5), (13, 15)])
    def test_split_glue_round_trip(self, n1, n2):
        rng = np.random.default_rng(n1 * n2)
        for _ in range(5):
            F = random_symplectic(n1 * n2, rng)
            F1, F2 = crt_split_symplectic(F, n1, n2)
            assert np.array_equal(crt_glue_symplectic(F1, n1, F2, n2), F % (n1 * n2))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(split_cases())
    def test_split_glue_round_trip_property(self, case):
        n1, n2, F = case
        F1, F2 = crt_split_symplectic(F, n1, n2)
        assert np.array_equal(crt_glue_symplectic(F1, n1, F2, n2), F % (n1 * n2))

    def test_split_rejects_common_factor(self):
        with pytest.raises(SicladderError, match=r"^gcd\(3,9\) != 1$"):
            crt_split_symplectic(np.eye(2, dtype=int), 3, 9)

    def test_split_certificate_fails_closed_on_nan(self, monkeypatch):
        exact = cl.symplectic_unitary

        def nan_on_the_product(F, d):
            U = exact(F, d)
            return U * np.nan if d == 15 else U
        monkeypatch.setattr(cl, "symplectic_unitary", nan_on_the_product)
        with pytest.raises(SicladderError, match="certificate"):
            crt_split_symplectic(np.array([[10, 9], [1, 4]]), 3, 5)
