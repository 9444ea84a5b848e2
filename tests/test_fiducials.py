"""Overlap tables, the defect functional, verification, and fiducial search."""
import itertools
import os
import platform
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from sicladder import cli
from sicladder import fiducials as fid
from sicladder import ladder
from sicladder.clifford import (canonical_order3, symplectic_unitary,
                                zauner_matrix_standard)
from sicladder.errors import SearchFailed, SicladderError
from sicladder.heisenberg import displaced_vector, displacement

from oracles import (perturbed, two_design_deviation_dense,
                     two_design_deviation_table)

W3 = np.exp(2j * np.pi / 3)
SRC = Path(__file__).resolve().parents[1] / "src"
INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


@pytest.fixture(scope="module")
def sic195():
    return cli.load_artifact(str(INPUTS / "sic195.json"))[2]


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

    def test_rejects_random_and_scaled_vectors_at_195(self, sic195):
        assert fid.verify_sic(sic195)
        rng = np.random.default_rng(195)
        v = rng.normal(size=195) + 1j * rng.normal(size=195)
        assert not fid.verify_sic(fid.SicFiducial(d=195, vector=v / np.linalg.norm(v)))
        assert not fid.verify_sic(fid.SicFiducial(d=195, vector=2.0 * sic195.vector))

    def test_one_verdict_with_the_sic_row(self, f5):
        # the squared-overlap residual (largest 7.3e-9) passes this vector
        # at PASS_TOL; verify's sic row (2.2e-8) and verify_sic refuse it
        f = fid.SicFiducial(d=5, vector=perturbed(f5.vector, 5e-9, seed=0))
        assert np.abs(fid._overlap_residuals(f.vector, 5)[1:]).max() <= ladder.PASS_TOL
        assert fid.overlap_phases(f).defect > ladder.PASS_TOL
        assert not fid.verify_sic(f, tol=ladder.PASS_TOL)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(d=st.sampled_from((5, 7)), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from((0.0, 1e-11, 1e-10, 3e-9, 5e-9, 1e-8, 1e-6)),
           tol=st.sampled_from((1e-10, 1e-8, 1e-6)),
           norm=st.sampled_from((1.0, 1 + 3e-11, 1 + 1e-9)))
    def test_verdict_is_the_norm_and_the_sic_row(self, f5, f7, d, seed, scale, tol, norm):
        v = norm * perturbed({5: f5, 7: f7}[d].vector, scale, seed)
        f = fid.SicFiducial(d=d, vector=v)
        [(_, row, _, _)] = ladder.certificate_rows(f, None, (), ("sic",))
        expected = abs(np.linalg.norm(v) - 1) <= 1e-10 and row <= tol
        assert fid.verify_sic(f, tol=tol) == expected

    def test_memory_stays_at_table_size_at_195(self, sic195):
        # the overlap table is 0.6 MiB here; one d^2 x d orbit is 116 MiB
        fid.verify_sic(sic195)   # fill the cached gather tables first
        tracemalloc.start()
        try:
            assert fid.verify_sic(sic195)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestTwoDesign:
    def test_sic5_design_constant(self, f5):
        # doubled frame operator = (25 / 15) * symmetric projector
        assert fid.two_design_deviation(f5) <= 1e-8

    def test_sic7_design_constant(self, f7):
        assert fid.two_design_deviation(f7) <= 1e-8

    def test_design_constant_value(self, f5):
        # the dense d^2 x d^2 operator against (25 / 15) * symmetric projector
        assert two_design_deviation_dense(f5.vector) < 1e-8

    def test_non_sic_is_refused(self):
        # the basis orbit is no 2-design: the design row of verify fails it
        e0 = np.zeros(3, dtype=complex)
        e0[0] = 1.0
        assert fid.two_design_deviation(fid.SicFiducial(d=3, vector=e0)) > 1

    @pytest.mark.parametrize("d", range(3, 12, 2))
    def test_table_matches_dense_operator_on_random_vectors(self, d):
        # unnormalized: the identity holds for any vector of odd length
        rng = np.random.default_rng(100 + d)
        for _ in range(3):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            dense = two_design_deviation_dense(v)
            got = fid.two_design_deviation(fid.SicFiducial(d=d, vector=v))
            assert abs(got - dense) <= 1e-12 * dense

    @pytest.mark.parametrize("d", range(2, 11, 2))
    def test_even_dimension_is_refused(self, d):
        # tau is no power of omega: d G[k, l] = (T T^dag)[k, k - 2l] fails
        with pytest.raises(SicladderError, match=f"^odd dimension >= 3 required, got {d}$"):
            fid.two_design_deviation(fid.SicFiducial(d=d, vector=np.ones(d) / np.sqrt(d)))

    def test_table_matches_dense_operator_on_sics(self, f5, f7, f15, climb35):
        sics = [f5, f7, f15, fid.SicFiducial(d=35, vector=climb35.solutions[0][1])]
        for f in sics:
            assert abs(fid.two_design_deviation(f)
                       - two_design_deviation_dense(f.vector)) <= 1e-13

    def test_matches_fourth_moment_table_above_dense_reach(self, climb35, sic63):
        # the dense d^2 x d^2 oracle is out of reach above d of about 35
        rng = np.random.default_rng(63)
        for d in (35, 63):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            ref = two_design_deviation_table(v)
            got = fid.two_design_deviation(fid.SicFiducial(d=d, vector=v))
            assert abs(got - ref) <= 1e-12 * ref
        for f in (fid.SicFiducial(d=35, vector=climb35.solutions[0][1]), sic63):
            got = fid.two_design_deviation(f)
            assert got <= 1e-13
            assert abs(got - two_design_deviation_table(f.vector)) <= 1e-13

    def test_nan_entry_fails_closed(self, f7):
        # verify's design row passes on err <= tol, which NaN never satisfies
        v = np.array(f7.vector, dtype=complex)
        v[3] = np.nan
        err = fid.two_design_deviation(fid.SicFiducial(d=7, vector=v))
        assert np.isnan(err) and not err <= 1e-8

    def test_memory_stays_at_table_size(self):
        # the dense d^2 x d^2 route peaks at about 104 MiB at d = 35
        rng = np.random.default_rng(35)
        f = fid.SicFiducial(d=35, vector=rng.normal(size=35) + 1j * rng.normal(size=35))
        fid.two_design_deviation(f)   # fill the cached gather tables first
        tracemalloc.start()
        try:
            fid.two_design_deviation(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestGaugeAndCovariance:
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(d=st.sampled_from(range(3, 16, 2)), seed=st.integers(0, 2 ** 32 - 1),
           theta=st.floats(0, 2 * np.pi),
           q=st.tuples(st.integers(-20, 20), st.integers(-20, 20)))
    def test_phase_and_displacement_leave_defect_and_design_unchanged(
            self, d, seed, theta, q):
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi /= np.linalg.norm(psi)
        defect = fid.sic_defect(psi, d)
        design = fid.two_design_deviation(fid.SicFiducial(d=d, vector=psi))
        for w in (np.exp(1j * theta) * psi, displaced_vector(psi, (q,))[0]):
            assert abs(fid.sic_defect(w, d) - defect) <= 1e-12
            assert abs(fid.two_design_deviation(fid.SicFiducial(d=d, vector=w))
                       - design) <= 1e-12


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


_CHILD_SEARCH = ("import hashlib; from sicladder.fiducials import find_fiducial; "
                 "print(hashlib.sha256(find_fiducial(9, seed=0).vector.tobytes())"
                 ".hexdigest())")


def _child_digest(perturb):
    """sha256 of find_fiducial(9, seed=0) from a fresh interpreter, with glibc's
    MALLOC_PERTURB_ set to the given byte (or unset for None) in its
    environment only."""
    env = {k: v for k, v in os.environ.items() if k != "MALLOC_PERTURB_"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if perturb is not None:
        env["MALLOC_PERTURB_"] = str(perturb)
    out = subprocess.run([sys.executable, "-c", _CHILD_SEARCH], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


class TestSearch:
    def test_eigenspace_dimensions(self):
        assert fid.symmetry_eigenspace(5, zauner_matrix_standard(5), W3).shape == (5, 2)
        assert fid.symmetry_eigenspace(7, canonical_order3(7), 1.0).shape == (7, 3)
        assert fid.symmetry_eigenspace(9, zauner_matrix_standard(9), 1.0).shape == (9, 4)

    def test_search_is_deterministic(self):
        a = fid.find_fiducial(5, seed=3, restarts=10)
        b = fid.find_fiducial(5, seed=3, restarts=10)
        assert np.array_equal(a.vector, b.vector)

    # scipy 1.17.1's C qrfac reads 8 bytes past the Jacobian when it
    # recomputes the norm of the last column, so with scipy's LM two calls
    # of find_fiducial(9, seed=0) could return different bits (one start in
    # 13 of 30 under this churn). The package's own lmder (minpack) takes
    # 0.0 there.
    def test_search_is_bitwise_reproducible_within_a_process(self):
        ref = fid.find_fiducial(9, seed=0).vector
        keep = []
        for k in range(20):
            # allocation churn between calls moves the heap
            rng = np.random.default_rng(k)
            keep = keep[-3:] + [[np.empty(int(n)) for n in rng.integers(1, 5000, 50)]]
            assert np.array_equal(fid.find_fiducial(9, seed=0).vector, ref), \
                f"call {k + 1} after the first returned different bits"

    # glibc fills new and freed heap memory from the perturb byte; with
    # scipy's LM the two children returned different vectors (48a4a326...
    # at 85).
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="MALLOC_PERTURB_ is a glibc malloc setting")
    def test_search_is_bitwise_reproducible_across_heaps(self):
        assert _child_digest(None) == _child_digest(85)

    def test_search_result_is_symmetric_eigenvector(self, f5):
        U = fid.fix_phase_to_table(fid.symplectic_unitary(f5.symmetry, 5), 3)
        lam = f5.symmetry_eigenvalue
        assert np.abs(U @ f5.vector - lam * f5.vector).max() < 1e-7

    def test_real_search_at_d7(self, f7):
        assert np.abs(f7.vector.imag).max() < 1e-10

    def test_unsupported_dimension(self):
        unsupported = r"^fiducial search supports d in \(5, 7, 9\), got 11$"
        with pytest.raises(SicladderError, match=unsupported):
            fid.find_fiducial(11)
        with pytest.raises(SicladderError, match=unsupported):
            fid.default_symmetry(11)

    def test_exhausted_restarts(self, monkeypatch):
        def missed(d, seed, max_nfev):
            while True:
                yield 1.0, None   # a defect far above 1e-16; no ray is built
        monkeypatch.setattr(fid, "_lm_restarts", missed)
        with pytest.raises(SearchFailed):
            fid.find_fiducial(5, restarts=1, seed=0)

    # sector_fiducials stops at the certified count, so a length check alone
    # could not fail; the rays are matched to the proven solutions instead
    def test_eigenspace_census_d5(self, census5, sector_cert):
        assert_rays_are_the_points([f.vector for f in census5], sector_cert.rays)

    def test_census_rays_are_distinct_sics(self, census5, sector_cert):
        assert_rays_are_the_points([f.vector for f in census5], sector_cert.rays)
        for f in census5:
            assert fid.verify_sic(f, tol=1e-8)
        for a, b in itertools.combinations(census5, 2):
            assert abs(np.vdot(a.vector, b.vector)) < 1 - 1e-6


# Verbatim copies of the searches as they were before find_fiducial and
# sector_fiducials shared one restart loop (fiducials._lm_restarts), each
# called with the arguments its callers passed: the recipe's symmetry,
# eigenvalue and coefficient field.

def seed_default_symmetry(d):
    """Search symmetry and eigenvalue used for fiducial hunting at small d."""
    if d == 5:
        return zauner_matrix_standard(5), np.exp(2j * np.pi / 3)
    if d == 7:
        return canonical_order3(7), 1.0 + 0j
    if d == 9:
        return zauner_matrix_standard(9), 1.0 + 0j
    raise SicladderError(f"no default symmetry for d={d}")


def seed_search_basis(d, zauner, eigenvalue, real_coeffs):
    B = fid.symmetry_eigenspace(d, zauner, eigenvalue)
    if not real_coeffs:
        return B
    Br, R = np.linalg.qr(np.real(B))
    if np.abs(np.diag(R)).min() < 1e-8:
        raise SicladderError("eigenspace has no real form to search")
    return Br


def seed_find_fiducial(d, zauner=None, eigenvalue=None, restarts=20, seed=0,
                       real_coeffs=False, target=1e-16):
    if d not in (5, 7, 9):
        raise SicladderError(f"fiducial search supports d in (5, 7, 9), got {d}")
    if zauner is None or eigenvalue is None:
        zdef, edef = seed_default_symmetry(d)
        zauner = zdef if zauner is None else zauner
        eigenvalue = edef if eigenvalue is None else eigenvalue
    B = seed_search_basis(d, zauner, eigenvalue, real_coeffs)
    resid, npar = fid._defect_residuals(B, d, real_coeffs)
    rng = np.random.default_rng(seed)
    nb = B.shape[1]
    for t in range(restarts):
        r = least_squares(resid, rng.normal(size=npar), method="lm",
                          xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=6000)
        dv = float(np.sum(r.fun ** 2))
        if dv <= target:
            psi = B @ (r.x if real_coeffs else r.x[:nb] + 1j * r.x[nb:])
            psi = fid.gauge_normalize(psi)
            return fid.SicFiducial(d=d, vector=psi, symmetry=np.asarray(zauner) % d,
                                   symmetry_eigenvalue=complex(eigenvalue),
                                   label=f"dim{d}-seed{seed}-try{t}")
    raise SearchFailed(f"no defect <= {target:g} fiducial in {restarts} restarts")


def seed_sector_fiducials(d, zauner, eigenvalue, tries=400, seed=17):
    B = fid.symmetry_eigenspace(d, zauner, eigenvalue)
    resid, npar = fid._defect_residuals(B, d, real_coeffs=False)
    rng = np.random.default_rng(seed)
    nb = B.shape[1]
    found = []
    for _ in range(tries):
        r = least_squares(resid, rng.normal(size=npar), method="lm",
                          xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=4000)
        if float(np.sum(r.fun ** 2)) < 1e-24:
            psi = fid.gauge_normalize(B @ (r.x[:nb] + 1j * r.x[nb:]))
            if not any(abs(abs(np.vdot(psi, q)) - 1) < 1e-8 for q in found):
                found.append(psi)
    keyed = sorted((tuple(np.round(np.stack([v.real, v.imag], -1).ravel(), 9)), v)
                   for v in found)
    return [fid.SicFiducial(d=d, vector=v, symmetry=np.asarray(zauner) % d,
                            symmetry_eigenvalue=eigenvalue,
                            label=f"dim{d}-sector{k}")
            for k, (_, v) in enumerate(keyed)]


def assert_same_fiducials(new, old):
    """Same labels, symmetries and rays; not bits, which the seed's scipy LM
    step lets depend on heap state (see sicladder.minpack)."""
    assert [f.label for f in new] == [f.label for f in old]
    for a, b in zip(new, old):
        assert np.array_equal(a.symmetry, b.symmetry)
        assert a.symmetry_eigenvalue == b.symmetry_eigenvalue
        assert abs(np.vdot(a.vector, b.vector)) >= 1 - 1e-12


class TestSearchMatchesSeed:
    @pytest.mark.parametrize("d", (5, 7, 9))
    def test_find_fiducial(self, d):
        zauner, eigenvalue = seed_default_symmetry(d)
        old = seed_find_fiducial(d, zauner, eigenvalue, seed=0, real_coeffs=d == 7)
        assert_same_fiducials([fid.find_fiducial(d, seed=0)], [old])

    def test_sector_fiducials_as_the_phase_selection_calls_it(self):
        old = seed_sector_fiducials(5, zauner_matrix_standard(5), W3, tries=60, seed=0)
        assert len(old) == 4
        assert_same_fiducials(fid.sector_fiducials(0), old)


# The count of fiducial rays in the d = 5 search eigenspace, proven. The
# eigenspace (default_symmetry(5), eigenvalue omega_3) is 2-dimensional, so a
# ray psi = B c is a Bloch vector n, c c^dag = (1 + n.sigma)/2, and
# <psi|D_p|psi> = tr(B^dag D_p B c c^dag) is a complex affine form a + b.n.
# Each equation |a + b.n|^2 = 1/6 is then a real quadric in n, and so is the
# unit sphere. These 25 quadrics span a rank-3 space, so the rays are exactly
# the real points of three quadrics: the three leading right singular vectors
# of the coefficient matrix, rounded to rationals. A lex Groebner basis over
# the rationals in (x, y, w), w = x + 2y + z, puts that system in shape
# position, x = g1(w), y = g2(w), h(w) = 0, with h of degree 8 and squarefree:
# eight distinct complex solutions, the Bezout bound, none at infinity. (In z
# it cannot: all four rays have z = (1 - sqrt 3)/2.) Sturm counting finds
# four real roots of h, and every real root gives a real point.

PAULI = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
         np.diag([1.0, -1.0]))
RATIONAL_STEP = 10 ** 18


def bloch_quadrics(B):
    """Coefficients of |<psi|D_p|psi>|^2 - 1/(d+1) (p != 0) and of
    |n|^2 - 1, in the monomials 1, x, y, z, x^2, y^2, z^2, xy, xz, yz of the
    Bloch vector n of psi = B c."""
    d = B.shape[0]
    rows = []
    for i, j in itertools.product(range(d), repeat=2):
        if i == j == 0:
            continue
        M = B.conj().T @ displacement(d, i, j) @ B
        a = np.trace(M) / 2
        b = np.array([np.trace(M @ s) / 2 for s in PAULI])
        Q = np.real(np.outer(b.conj(), b))
        rows.append([abs(a) ** 2 - 1 / (d + 1), *(2 * np.real(np.conj(a) * b)),
                     Q[0, 0], Q[1, 1], Q[2, 2], 2 * Q[0, 1], 2 * Q[0, 2], 2 * Q[1, 2]])
    rows.append([-1, 0, 0, 0, 1, 1, 1, 0, 0, 0])
    return np.array(rows)


def shape_basis(quadrics):
    """(g1, g2, h), polynomials in w over QQ, when the lex Groebner basis of
    the quadrics (rows of rational coefficients) is x - g1(w), y - g2(w),
    h(w); otherwise the test fails."""
    x, y, w = sympy.symbols("x y w")
    z = w - x - 2 * y
    mons = (1, x, y, z, x * x, y * y, z * z, x * y, x * z, y * z)
    G = sympy.groebner([sympy.expand(sum(c * m for c, m in zip(row, mons)))
                        for row in quadrics], x, y, w, order="lex")
    assert len(G.exprs) == 3
    g = (x - G.exprs[0], y - G.exprs[1], G.exprs[2])
    assert all(e.free_symbols <= {w} for e in g)
    return tuple(sympy.Poly(e, w) for e in g)


def rationalized(v):
    return [sympy.Rational(round(c * RATIONAL_STEP), RATIONAL_STEP) for c in v]


def mp_coeffs(poly):
    return [mpmath.mpf(c.p) / c.q for c in poly.all_coeffs()]


def mp_roots(poly):
    """All roots of a polynomial over QQ, to 50 digits."""
    with mpmath.workdps(50):
        return mpmath.polyroots(mp_coeffs(poly), maxsteps=500, extraprec=200)


def split_roots(roots):
    """(sorted real roots, non-real roots)."""
    return (sorted(r.real for r in roots if abs(r.imag) < 1e-20),
            [r for r in roots if abs(r.imag) >= 1e-20])


def ray_of_bloch(B, n):
    """psi = B c for the unit Bloch vector n, c c^dag = (1 + n.sigma)/2."""
    _, V = np.linalg.eigh((np.eye(2) + sum(c * s for c, s in zip(n, PAULI))) / 2)
    return B @ V[:, -1]


@dataclass
class SectorCertificate:
    singular_values: np.ndarray   # of the 25 x 10 coefficient matrix
    quadrics: np.ndarray          # its three leading right singular vectors
    h: sympy.Poly                 # the eliminant in w = x + 2y + z
    roots: list                   # the 8 roots of h at 50 digits
    points: np.ndarray            # the real solutions n, one per row
    rays: list                    # their rays psi


def certify_sector():
    symmetry, eigenvalue, _ = fid.default_symmetry(5)
    B = fid.symmetry_eigenspace(5, symmetry, eigenvalue)
    _, sv, Vt = np.linalg.svd(bloch_quadrics(B))
    g1, g2, h = shape_basis([rationalized(v) for v in Vt[:3]])
    roots = mp_roots(h)
    points = []
    with mpmath.workdps(50):
        for w in split_roots(roots)[0]:
            x, y = (mpmath.polyval(mp_coeffs(g), w) for g in (g1, g2))
            points.append([float(x), float(y), float(w - x - 2 * y)])
    points = np.array(points)
    return SectorCertificate(sv, Vt[:3], h, roots, points,
                             [ray_of_bloch(B, n) for n in points])


@pytest.fixture(scope="module")
def sector_cert():
    return certify_sector()


@pytest.fixture(scope="module")
def census5():
    return fid.sector_fiducials(17)


def assert_rays_are_the_points(vectors, rays):
    """A one-to-one match of vectors to rays at |<.>| >= 1 - 1e-8."""
    ov = np.abs(np.array(vectors).conj() @ np.array(rays).T)
    hits = ov >= 1 - 1e-8
    assert hits.shape[0] == hits.shape[1]
    assert (hits.sum(axis=0) == 1).all() and (hits.sum(axis=1) == 1).all()


class TestSectorCount:
    def test_quadrics_have_rank_three(self, sector_cert):
        sv = sector_cert.singular_values
        assert sv[2] > 0.5 and sv[3] < 1e-13   # 2.26, 1.02, 0.77, then 8e-16

    def test_eight_distinct_complex_solutions(self, sector_cert):
        h = sector_cert.h
        assert h.degree() == 8
        assert sympy.gcd(h, h.diff()).degree() == 0

    def test_exactly_four_real_solutions(self, sector_cert):
        assert sympy.count_roots(sector_cert.h) == 4
        assert sector_cert.points.shape == (4, 3)
        assert np.abs(np.linalg.norm(sector_cert.points, axis=1) - 1).max() < 1e-12

    # The rounded quadrics are within 5e-19 of the float64 ones, which lie
    # within about 1e-15 (the fourth singular value) of the exact rank-3
    # span. Roots 0.1 apart and 0.1 off the real axis cannot trade places
    # under that; a 1e-9 perturbation, far above it, moves none by 1e-6.
    def test_count_is_robust_to_the_rounding(self, sector_cert):
        real, nonreal = split_roots(sector_cert.roots)
        assert len(real) == 4 and len(nonreal) == 4
        assert np.diff(np.array(real, dtype=float)).min() > 0.1
        assert min(abs(float(r.imag)) for r in nonreal) > 0.1
        rng = np.random.default_rng(0)
        nudged = sector_cert.quadrics + 1e-9 * rng.normal(size=(3, 10))
        _, _, h = shape_basis([rationalized(v) for v in nudged])
        assert h.degree() == 8 and sympy.count_roots(h) == 4
        old = np.array(sector_cert.roots, dtype=complex)
        new = np.array(mp_roots(h), dtype=complex)
        assert np.abs(old[:, None] - new[None, :]).min(axis=1).max() < 1e-6

    def test_real_solutions_are_the_search_rays(self, sector_cert):
        for psi in sector_cert.rays:
            assert fid.verify_sic(fid.SicFiducial(d=5, vector=psi), tol=1e-8)
        rays = fid.sector_fiducials(0)
        assert_rays_are_the_points([f.vector for f in rays], sector_cert.rays)


def counted_solves(monkeypatch):
    """Count the LM solves that fiducials makes from here on."""
    calls, solve = [], fid.least_squares

    def counting(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(fid, "least_squares", counting)
    return calls


class TestSectorStop:
    def test_phase_selection_stops_at_the_fourth_ray(self, monkeypatch, sector_cert):
        calls = counted_solves(monkeypatch)
        rays = fid.sector_fiducials(0)
        assert len(calls) == 16   # the fourth ray comes at restart 15
        assert_rays_are_the_points([f.vector for f in rays], sector_cert.rays)

    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_other_seeds_stop_on_the_same_rays(self, monkeypatch, sector_cert, seed):
        calls = counted_solves(monkeypatch)
        rays = fid.sector_fiducials(seed)
        assert len(calls) < 60
        assert_rays_are_the_points([f.vector for f in rays], sector_cert.rays)


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