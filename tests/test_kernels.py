"""Bit identity of the rewritten search kernels against their first versions.

The searches are Nelder-Mead runs, which turn a one-ulp change in the
objective into a different restart history, so a kernel rewrite must agree
with the original to the last bit, not just within a tolerance. The
original implementations are kept here as oracles.
"""
import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest

from sicladder import cli
from sicladder import fiducials as fid
from sicladder import frames as fr
from sicladder import ladder as lad
from sicladder import optimizer as opt
from sicladder.clifford import (canonical_order3, eigenspace_basis,
                                fix_phase_to_table, order3_elements,
                                parity_operator, symplectic_unitary,
                                zauner_matrix_standard)
from sicladder.errors import (AlignmentRequired, BadPairing, NoMatchingPhase,
                              SicladderError)
from sicladder.heisenberg import (_diagonal_tables, crt_index,
                                  crt_to_tensor, displaced_vector,
                                  displacement, overlap_table, tau_powers,
                                  wh_orbit, wh_traces)
from sicladder.linalg import eig_unitary, phase_fix_columns

from oracles import coefficient_blocks, crt_permutation

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def seed_su2(theta, s0, s1):
    return np.array([
        [np.cos(theta / 2) * np.exp(1j * s0), np.sin(theta / 2) * np.exp(1j * s1)],
        [-np.sin(theta / 2) * np.exp(-1j * s1), np.cos(theta / 2) * np.exp(-1j * s0)]])


def seed_block_unitary(size, pars, special):
    if size == 1:
        return np.array([[1.0 + 0j]]) if special else np.array([[np.exp(1j * pars[0])]])
    U = seed_su2(pars[0], pars[1], pars[2])
    return U if special else U * np.exp(1j * pars[3])


def seed_block_coefficients(family, params):
    params = np.atleast_1d(np.asarray(params, dtype=float))
    if family.conjugate:
        s = params[0]
        return [np.array([[c]], dtype=complex)
                for c in (1.0, np.exp(1j * s), np.exp(-1j * s))]
    out, k = [], 0
    for bi, (fi, _) in enumerate(family.blocks):
        n = len(fi)
        take = n * n - 1 if bi == 0 else n * n
        out.append(seed_block_unitary(n, params[k:k + take], special=(bi == 0)))
        k += take
    return out


def seed_build_proto(family, params):
    d = family.d
    fv, ev = family.f_basis.vectors, family.e_basis.vectors
    half = (d - 1) // 2
    psi = np.zeros((d - 2) * d, dtype=complex)
    for U, (fi, ei) in zip(seed_block_coefficients(family, params), family.blocks):
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


def seed_partial_defect(psi, terms, N):
    tgt = 1.0 / (N + 1)
    tot = 0.0
    for i, j in terms:
        ov = np.vdot(psi, seed_displaced_vector(psi, i, j))
        tot += (abs(ov) ** 2 - tgt) ** 2
    return tot


def seed_param_kinds(family):
    if family.conjugate:
        return ["phase"]
    kinds = []
    for bi, s in enumerate(family.block_sizes):
        n = s * s - 1 if bi == 0 else s * s
        if s == 1:
            kinds += ["phase"] * n
        elif s == 2:
            kinds += ["polar", "phase", "phase"] + (["phase"] if bi > 0 else [])
        else:
            raise SicladderError(f"blocks of size {s} not supported")
    return kinds


def seed_canonicalize(params, kinds):
    p = np.array(params, dtype=float) % (2 * np.pi)
    for k, kind in enumerate(kinds):
        if kind == "polar" and p[k] > np.pi:
            p[k] = 2 * np.pi - p[k]
            p[k + 1] = (p[k + 1] + np.pi) % (2 * np.pi)
    return p


def seed_sic_defect(v, d):
    v = np.asarray(v, dtype=complex)
    m = (np.abs(overlap_table(v)) ** 2).ravel()
    m[0] = 1.0 / (d + 1)
    return float(np.sum((m - 1.0 / (d + 1)) ** 2))


def seed_equiangularity_error(v, d):
    m = (np.abs(overlap_table(v)) ** 2).ravel()
    return np.abs(m[1:] - 1.0 / (d + 1)).max()


def seed_defect_residuals(B, d, coef):
    psi = B @ (coef[:B.shape[1]] + 1j * coef[B.shape[1]:])
    m = (np.abs(overlap_table(psi / np.linalg.norm(psi))) ** 2).ravel()
    m[0] = 1.0 / (d + 1)
    return m - 1.0 / (d + 1)


def seed_restricted_labeled_basis(B, U, order):
    R = B.conj().T @ U @ B
    dec = eig_unitary(R, tol=1e-7)
    vecs = phase_fix_columns(B @ dec.eigenvectors)
    labels = [lad._snap_root(x, order) for x in dec.eigenvalues]
    return lad.LabeledBasis(vectors=vecs, labels=labels, order=order)


def seed_restricted_pair_basis(B, U3, US, tol=1e-7):
    R3 = B.conj().T @ U3 @ B
    RS = B.conj().T @ US @ B
    for U, R in ((U3, R3), (US, RS)):
        assert np.abs(U @ B - B @ R).max() <= tol
    RS = lad._fix_involution(RS)
    assert np.abs(R3 @ RS - RS @ R3).max() <= tol
    dec = eig_unitary(R3 @ RS, tol=tol)
    vecs = phase_fix_columns(B @ dec.eigenvectors)
    labels = [lad._snap_root(x, 6) for x in dec.eigenvalues]
    return lad.LabeledBasis(vectors=vecs, labels=labels, order=6)


def seed_paired_bases(f, zauner_small, P_theta):
    d = f.d
    Pmat = (P_theta.matrix + P_theta.matrix.conj().T) / 2
    Bm = eigenspace_basis(Pmat, -1.0, tol=1e-6)
    Uz_big = lad._fix_order3(symplectic_unitary(lad.h_conjugate(f.symmetry, d), d))
    e_basis = seed_restricted_labeled_basis(Bm, Uz_big, 3)
    n1 = d - 2
    Bp = eigenspace_basis(parity_operator(n1), 1.0, tol=1e-6)
    Uz_small = lad._fix_order3(symplectic_unitary(zauner_small, n1))
    f_basis = seed_restricted_labeled_basis(Bp, Uz_small, 3)
    return e_basis, f_basis


def seed_paired_bases_refined(f, zauner_small, invol_small, invol_big, P_theta):
    d = f.d
    Pmat = (P_theta.matrix + P_theta.matrix.conj().T) / 2
    Bm = eigenspace_basis(Pmat, -1.0, tol=1e-6)
    Uz_big = lad._fix_order3(symplectic_unitary(lad.h_conjugate(f.symmetry, d), d))
    Us_big = symplectic_unitary(lad.h_conjugate(invol_big, d), d)
    e_basis = seed_restricted_pair_basis(Bm, Uz_big, Us_big)
    n1 = d - 2
    Bp = eigenspace_basis(parity_operator(n1), 1.0, tol=1e-6)
    Uz_small = lad._fix_order3(symplectic_unitary(zauner_small, n1))
    Us_small = symplectic_unitary(invol_small, n1)
    f_basis = seed_restricted_pair_basis(Bp, Uz_small, Us_small)
    return e_basis, f_basis


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
    P = lad.generalized_parity(f15)
    e_b, f_b = lad.paired_bases(f15, canonical_order3(13), P,
                                lad.refining_involutions(f15))
    fam9 = _family(f9, 7)
    # blocks [1, 1, 2]: a size-2 block that is not the special one
    rotated = dataclasses.replace(fam9, blocks=fam9.blocks[1:] + fam9.blocks[:1])
    return {"5->15": fam5,
            "7->35 plain": _family(f7, 5),
            "7->35 conjugate": _family(f7, 5, conjugate=True),
            "9->63": fam9,
            "15->195 refined": lad.make_proto_family(f15, e_b, f_b, 0),
            "9->63 rotated": rotated}


FAMILY_KINDS = ["5->15", "7->35 plain", "7->35 conjugate", "9->63", "15->195 refined", "9->63 rotated"]


def _random_params(fam, rng):
    x = rng.uniform(-2 * np.pi, 4 * np.pi, fam.n_params)
    x[rng.integers(fam.n_params)] = rng.choice([0.0, -0.0, np.pi, -np.pi])
    return x


@pytest.mark.parametrize("name", FAMILY_KINDS)
def test_build_proto_is_bit_identical(families, name):
    fam = families[name]
    rng = np.random.default_rng(11)
    for _ in range(300):
        x = rng.uniform(-2 * np.pi, 4 * np.pi, fam.n_params)
        assert np.array_equal(lad.build_proto(fam, x), seed_build_proto(fam, x))


@pytest.mark.parametrize("name", FAMILY_KINDS)
def test_block_coefficients_are_bit_identical(families, name):
    fam = families[name]
    assert name != "9->63 rotated" or 2 in fam.block_sizes[1:]
    rng = np.random.default_rng(12)
    for _ in range(1000):
        x = _random_params(fam, rng)
        new, old = coefficient_blocks(fam, x), seed_block_coefficients(fam, x)
        assert len(new) == len(old)
        for u, v in zip(new, old):
            # sign bits too: the coefficients multiply rows that hold zeros
            assert u.dtype == v.dtype and u.tobytes() == v.tobytes()


@pytest.mark.parametrize("name", FAMILY_KINDS)
def test_canonical_params_are_byte_equal_to_the_seed_loop(families, name):
    fam = families[name]
    kinds = seed_param_kinds(fam)
    assert len(kinds) == fam.n_params
    assert fam.coefficient_plan[2].tolist() == [k for k, kind in enumerate(kinds)
                                                if kind == "polar"]
    rng = np.random.default_rng(13)
    edges = [0.0, -0.0, np.pi, -np.pi, 2 * np.pi, 3 * np.pi]
    for _ in range(2000):
        x = rng.uniform(-2 * np.pi, 4 * np.pi, fam.n_params)
        hit = rng.random(fam.n_params) < 0.3
        x[hit] = rng.choice(edges, size=hit.sum())
        assert lad.canonical_params(fam, x).tobytes() == seed_canonicalize(x, kinds).tobytes()


# 63 and 195 are the dimensions the two Nelder-Mead climbs evaluate
@pytest.mark.parametrize("d", (3, 5, 7, 9, 15, 35, 63, 195))
def test_defect_functionals_are_bit_identical(d):
    rng = np.random.default_rng(d + 3)
    B = np.linalg.qr(rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3)))[0]
    resid, npar = fid._defect_residuals(B, d, real_coeffs=False)
    for _ in range(50):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        assert np.float64(fid.sic_defect(v, d)).tobytes() == \
            np.float64(seed_sic_defect(v, d)).tobytes()
        r = fid._overlap_residuals(v, d)
        assert r[0] == 0 and np.abs(r[1:]).max() == seed_equiangularity_error(v, d)
        coef = rng.normal(size=npar)
        assert resid(coef).tobytes() == seed_defect_residuals(B, d, coef).tobytes()


@pytest.mark.parametrize("name", FAMILY_KINDS)
def test_rows_are_c_contiguous_and_read_only(families, name):
    # an F-contiguous R[:, g] reduces in another order (ladder docstring)
    fam = families[name]
    assert fam.rows.shape == (sum(s * s for s in fam.block_sizes), fam.d * (fam.d - 2))
    assert fam.rows.flags.c_contiguous and not fam.rows.flags.writeable


@pytest.mark.parametrize("d", (3, 9, 63))
def test_diagonal_tables_are_read_only(d):
    idx, ph = _diagonal_tables(d)
    assert idx.shape == ph.shape == (d, d)
    assert not idx.flags.writeable and not ph.flags.writeable


def test_refined_search_history_is_unchanged(families, monkeypatch):
    fam = families["15->195 refined"]
    cfg = opt.SearchConfig(restarts=1, max_iters=300, term_budget=9, seed=2)
    simplex = opt._simplex
    runs = []
    for seed_objective in (False, True):
        if seed_objective:
            monkeypatch.setattr(lad, "build_proto", seed_build_proto)
            monkeypatch.setattr(opt, "_partial_defect", seed_partial_defect)
        results = []

        def recording(*args, **kwargs):
            results.append(simplex(*args, **kwargs))
            return results[-1]
        monkeypatch.setattr(opt, "_simplex", recording)
        opt.minimize(fam, cfg)
        runs.append([(x.tobytes(), np.float64(fun).tobytes(), nfev, nit)
                     for x, fun, nit, nfev in results])
    assert len(runs[0]) == 1 and runs[0][0][2] > 300
    assert runs[0] == runs[1]


def _assert_same_bases(new, old):
    for nb, ob in zip(new, old):
        assert np.array_equal(nb.vectors, ob.vectors)
        assert nb.labels == ob.labels and nb.order == ob.order


@pytest.mark.parametrize("d", (5, 7, 9))
def test_paired_bases_are_bit_identical(f5, f7, f9, d):
    f = {5: f5, 7: f7, 9: f9}[d]
    P = lad.generalized_parity(f)
    G = canonical_order3(d - 2)
    for F in (G, (G @ G) % (d - 2)):
        _assert_same_bases(lad.paired_bases(f, F, P), seed_paired_bases(f, F, P))


def test_refined_paired_bases_are_bit_identical(f15):
    P = lad.generalized_parity(f15)
    sc = fid.detect_scalar_symmetry(f15)
    R = lad.root_of_parity(13)
    G = canonical_order3(13)
    for F in (G, (G @ G) % 13):
        _assert_same_bases(lad.paired_bases(f15, F, P, (R, sc)),
                           seed_paired_bases_refined(f15, F, R, sc, P))


@pytest.mark.parametrize("d", (3, 5, 7, 9, 15, 35))
def test_displaced_vector_is_bit_identical(d):
    rng = np.random.default_rng(d)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    for i in range(-d, 2 * d):
        for j in range(-d, 2 * d):
            for v in (psi, psi.real):
                assert np.array_equal(displaced_vector(v, ((i, j),))[0],
                                      seed_displaced_vector(v, i, j))


@pytest.mark.parametrize("d", (15, 35, 63, 195))
def test_stacked_displaced_vector_rows_match_single_pairs(d):
    rng = np.random.default_rng(d + 1)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    # 120 rows of 195 pass 256 KiB, where numpy may multiply in place
    for k in (1, 9, 120):
        pairs = tuple((int(i), int(j)) for i, j in rng.integers(-d, 2 * d, size=(k, 2)))
        stack = displaced_vector(psi, pairs)
        assert stack.shape == (k, d)
        for row, (i, j) in zip(stack, pairs):
            assert np.array_equal(row, displaced_vector(psi, ((i, j),))[0])


@pytest.mark.parametrize("N", (15, 35, 63, 195, 1155))
def test_vecdot_matches_per_row_vdot(N):
    # _partial_defect relies on np.vecdot summing each row as np.vdot does
    # (zdotc); a numpy that reroutes it would move the refined search
    rng = np.random.default_rng(N + 2)
    psi = rng.normal(size=N) + 1j * rng.normal(size=N)
    for k in (1, 9, 40, 120):
        stack = rng.normal(size=(k, N)) + 1j * rng.normal(size=(k, N))
        rows = np.array([np.vdot(psi, row) for row in stack])
        assert np.vecdot(psi, stack).tobytes() == rows.tobytes()


@pytest.mark.parametrize("n1,n2", [(3, 5), (7, 9), (13, 15)])
def test_partial_defect_is_bit_identical(n1, n2):
    N = n1 * n2
    rng = np.random.default_rng(N)
    for budget in (9, 40):
        terms = opt._residual_terms(n1, n2, budget)
        for _ in range(200):
            psi = rng.normal(size=N) + 1j * rng.normal(size=N)
            psi /= np.linalg.norm(psi)
            assert np.float64(opt._partial_defect(psi, terms, N)).tobytes() == \
                np.float64(seed_partial_defect(psi, terms, N)).tobytes()


def test_displaced_vector_is_bit_identical_at_195():
    rng = np.random.default_rng(195)
    psi = rng.normal(size=195) + 1j * rng.normal(size=195)
    for i, j in rng.integers(-195, 390, size=(400, 2)):
        i, j = int(i), int(j)
        assert np.array_equal(displaced_vector(psi, ((i, j),))[0],
                              seed_displaced_vector(psi, i, j))


@pytest.mark.parametrize("d", (5, 7, 9, 15))
def test_to_tensor_is_byte_equal_to_the_permutation_matmul(d):
    rng = np.random.default_rng(d)
    psi = rng.normal(size=d * (d - 2)) + 1j * rng.normal(size=d * (d - 2))
    V = crt_permutation(d - 2, d)
    A = lad.to_tensor(psi, d)
    assert A.tobytes() == (V @ psi).reshape(d - 2, d).tobytes()


def test_crt_index_realizes_the_permutation():
    for n1, n2 in ((3, 5), (5, 7), (13, 15), (4, 9)):
        g = crt_index(n1, n2)
        V = crt_permutation(n1, n2)
        x = np.random.default_rng(n1).normal(size=(n1 * n2, 3))
        assert np.array_equal(V.T @ x, x[g])
        assert np.array_equal(V @ x, crt_to_tensor(x, n1, n2))
        assert sorted(g.tolist()) == list(range(n1 * n2))


def seed_displacement(d, i, j):
    i, j = i % d, j % d
    t = tau_powers(d)
    M = np.zeros((d, d), dtype=complex)
    for s in range(d):
        M[(s + i) % d, s] = t[(i * j + 2 * j * s) % (2 * d)]
    return M


def seed_wh_orbit(psi):
    d = len(psi)
    t = tau_powers(d)
    r = np.arange(d)
    out = np.empty((d * d, d), dtype=complex)
    for i in range(d):
        rolled = np.roll(psi, i)
        for j in range(d):
            out[i * d + j] = t[(i * j + 2 * j * ((r - i) % d)) % (2 * d)] * rolled
    return out


@pytest.mark.parametrize("d", (3, 5, 7, 9, 13, 15, 35, 63))
def test_displacement_and_orbit_are_bit_identical(d):
    for i in range(-d, 2 * d):
        for j in range(-d, 2 * d):
            assert np.array_equal(displacement.__wrapped__(d, i, j),
                                  seed_displacement(d, i, j))
    rng = np.random.default_rng(d)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    for v in (psi, psi.real):
        assert np.array_equal(wh_orbit(v), seed_wh_orbit(v))


# -- the overlap-table matcher against the scans it replaced ------------------


def seed_stabilizer_candidates(table, tol):
    d = table.shape[0]
    cols_x = np.argwhere(np.abs(table - table[1, 0]) <= tol)
    cols_z = np.argwhere(np.abs(table - table[0, 1]) <= tol)
    for px in cols_x:
        for pz in cols_z:
            F = np.array([[px[0], pz[0]], [px[1], pz[1]]])
            if (F[0, 0] * F[1, 1] - F[0, 1] * F[1, 0]) % d == 1:
                yield F


def seed_detect_order3_symmetry(f, tol=1e-7):
    v, d = np.asarray(f.vector, dtype=complex), f.d
    table = overlap_table(v)
    I = np.eye(2, dtype=int)
    for F in seed_stabilizer_candidates(table, tol * 10):
        if np.array_equal(F % d, I) or not np.array_equal((F @ F @ F) % d, I):
            continue
        if not fid._table_invariant_under(table, F, tol):
            continue
        U = fix_phase_to_table(symplectic_unitary(F, d), 3)
        lam = np.vdot(v, U @ v)
        if abs(abs(lam) - 1) < tol and np.abs(U @ v - lam * v).max() < tol:
            k = int(np.round(np.angle(lam) * 3 / (2 * np.pi))) % 3
            return F % d, np.exp(2j * np.pi * k / 3)
    return None


def seed_detect_scalar_symmetry(f, tol=1e-7):
    v, d = np.asarray(f.vector, dtype=complex), f.d
    table = overlap_table(v)
    for b in range(2, d - 1):
        if (b * b) % d != 1:
            continue
        F = np.array([[b, 0], [0, b]])
        if not fid._table_invariant_under(table, F, tol):
            continue
        U = symplectic_unitary(F, d)
        lam = np.vdot(v, U @ v)
        if abs(abs(lam) - 1) < tol and np.abs(U @ v - lam * v).max() < tol:
            return F
    return None


def seed_symmetry_group_order(f, tol=1e-7):
    d = f.d
    table = overlap_table(np.asarray(f.vector, dtype=complex))
    seen = set()
    for F in seed_stabilizer_candidates(table, tol * 10):
        key = tuple((F % d).ravel())
        if key in seen:
            continue
        if fid._table_invariant_under(table, F, tol):
            seen.add(key)
    return len(seen)


def seed_verify_alignment(psi, theta_table, tol=1e-8):
    d = theta_table.d
    A = lad.to_tensor(np.asarray(psi, dtype=complex), d)
    # the side overlaps as the library computes them: this oracle checks
    # the matcher, test_side_overlaps_match_the_dense_sums the overlaps
    err_unit = lad._unit_condition_error(A, d)
    big = (d - 1) * wh_traces(A.T @ A.conj())
    kappa = (d - 1) // 2
    i, j = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    u0, u1 = (kappa * i) % d, j
    targets = -(theta_table.phases ** 2)
    mask = np.ones((d, d), dtype=bool)
    mask[0, 0] = False
    found, err_phase = None, np.inf
    for M in itertools.product(range(d), repeat=4):
        det = (M[0] * M[3] - M[1] * M[2]) % d
        if det != 1 and det != d - 1:
            continue
        mi = (M[0] * u0 + M[1] * u1) % d
        mj = (M[2] * u0 + M[3] * u1) % d
        err = np.abs(big - targets[mi, mj])[mask].max()
        if err <= tol:
            found = np.array([[M[0], M[1]], [M[2], M[3]]])
            err_phase = float(err)
            break
    return lad.AlignmentCertificate(
        passes=bool(err_unit <= tol and found is not None), matrix_M=found,
        max_err_phase_condition=err_phase, max_err_unit_condition=err_unit)


def _same_matrix(new, old):
    if old is None:
        return new is None
    return new is not None and new.dtype == old.dtype and np.array_equal(new, old)


def _random_unit(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


@pytest.fixture(scope="module")
def committed_inputs():
    """(vector, embedded source) of each committed benchmark input."""
    out = {}
    for name in ("f15.json", "sic195.json"):
        _, body, f = cli.load_artifact(str(INPUTS / name))
        src = body["source"]
        v = np.array([complex(float(a), float(b)) for a, b in src["vector"]])
        out[name] = (f, fid.SicFiducial(d=int(src["dimension"]), vector=v))
    return out


@pytest.fixture(scope="module")
def matcher_cases(f5, f7, f9, f15, climb15, climb35, committed_inputs):
    """Vectors paired with the source whose table they are aligned against."""
    f195, f15_committed = committed_inputs["sic195.json"]
    cases = [(f15, f5), (f195, f15_committed)]
    cases += [(fid.SicFiducial(d=15, vector=v), f5) for _, v in climb15.solutions]
    cases += [(fid.SicFiducial(d=35, vector=v), f7) for _, v in climb35.solutions]
    cases.append(committed_inputs["f15.json"])
    for n, src in ((15, f5), (35, f7), (63, f9), (195, f15)):
        cases.append((fid.SicFiducial(d=n, vector=_random_unit(n, n)), src))
    noisy = f195.vector + 1e-6 * _random_unit(195, 1)
    cases.append((fid.SicFiducial(d=195, vector=noisy / np.linalg.norm(noisy)),
                  f15_committed))
    return cases


def test_symmetry_detectors_match_the_seed_scans(f5, f7, f9, climb35, matcher_cases):
    fids = [f5, f7, f9] + [f for case in matcher_cases for f in case]
    fids.append(opt.promote_solution(climb35.solutions[0][1], 35))
    for f in fids:
        new, old = fid.detect_order3_symmetry(f), seed_detect_order3_symmetry(f)
        assert (new is None) == (old is None)
        if old is not None:
            assert _same_matrix(new[0], old[0]) and new[1] == old[1]
        assert _same_matrix(fid.detect_scalar_symmetry(f), seed_detect_scalar_symmetry(f))
        assert fid.symmetry_group_order(f) == seed_symmetry_group_order(f)


@pytest.mark.parametrize("tol", (1e-8, 1e-4))
def test_alignment_matches_the_seed_scan(matcher_cases, tol):
    passed = 0
    for f, src in matcher_cases:
        table = fid.overlap_phases(src)
        new = lad.verify_alignment(f.vector, table, tol=tol)
        old = seed_verify_alignment(f.vector, table, tol=tol)
        assert _same_matrix(new.matrix_M, old.matrix_M)
        assert new.passes == old.passes
        for name in ("max_err_phase_condition", "max_err_unit_condition"):
            assert np.float64(getattr(new, name)).tobytes() == \
                np.float64(getattr(old, name)).tobytes()
        passed += new.passes
    assert passed >= 9


# -- the two Weyl-Heisenberg kernels against the dense loops they replaced ----


def seed_side_overlaps(M, dim, scale):
    out = np.empty((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            out[i, j] = scale * np.sum(displacement(dim, i, j) * M)
    return out


def seed_unit_condition_error(A, d):
    small = seed_side_overlaps((A @ A.conj().T).T, d - 2, d - 1)
    small[0, 0] = 1.0
    return float(np.abs(small - 1).max())


def seed_parity_matrix(f):
    d = f.d
    table = fid.overlap_phases(f)
    h = (d + 1) // 2
    P = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            P += (table.phases[i, (h * j) % d] ** 2) * displacement(d, -i, -j)
    P /= d
    return P


def seed_overlap_table(psi):
    d = len(psi)
    t = tau_powers(d)
    out = np.empty((d, d), dtype=complex)
    j = np.arange(d)
    for i in range(d):
        c = np.conj(np.roll(psi, -i)) * psi
        out[i] = t[(i * j) % (2 * d)] * (np.fft.ifft(c) * d)
    return out


def seed_wh_traces(X):
    d = X.shape[0]
    t = tau_powers(d)
    s = np.arange(d)
    out = np.empty((d, d), dtype=complex)
    for i, c in enumerate(X[s, (s + s[:, None]) % d]):
        out[i] = t[(i * s) % (2 * d)] * (np.fft.ifft(c) * d)
    return out


def seed_covariant_generator(blocks, d):
    M = np.empty((len(blocks) * d, d * d), dtype=complex)
    col = 0
    for i in range(d):
        for j in range(d):
            for r, x in enumerate(blocks):
                M[r * d:(r + 1) * d, col] = displaced_vector(x, ((i, j),))[0]
            col += 1
    return M


def seed_embedded_etf(psi, d, tol=1e-8):
    n1 = d - 2
    A = lad.to_tensor(psi, d)
    if not seed_unit_condition_error(A, d) <= tol:
        raise AlignmentRequired("unit-overlap condition fails")
    g = crt_index(n1, d)
    cols = np.empty((n1 * d, d * d), dtype=complex)
    c = 0
    for i in range(d):
        for j in range(d):
            cols[:, c] = (A @ displacement(d, i, j).T).ravel()[g]
            c += 1
    s = np.linalg.svd(cols, compute_uv=False)
    return cols, int(np.sum(s > 1e-8 * s[0]))


def test_generalized_parity_is_bit_identical(f5, f7, f9, f15, committed_inputs):
    for f in (f5, f7, f9, f15, committed_inputs["f15.json"][0]):
        assert np.array_equal(lad.generalized_parity(f).matrix, seed_parity_matrix(f))


@pytest.mark.parametrize("d", (3, 5, 7, 9, 13, 15, 35, 63, 195))
def test_overlap_table_is_bit_identical(d):
    rng = np.random.default_rng(d)
    for _ in range(3):
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        # the d = 7 fiducial search passes real vectors
        for v in (psi, psi.real):
            assert np.array_equal(overlap_table(v), seed_overlap_table(v))


@pytest.mark.parametrize("d", (3, 5, 7, 9, 15, 35, 63, 195))
def test_wh_traces_are_bit_identical(d):
    rng = np.random.default_rng(d)
    for _ in range(3):
        X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        for Y in (X, X.real):
            assert np.array_equal(wh_traces(Y), seed_wh_traces(Y))


@pytest.mark.parametrize("d", (3, 5, 7, 9, 13, 15, 35))
def test_stacked_orbit_and_covariant_generator_are_bit_identical(d):
    rng = np.random.default_rng(d)
    X = rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))
    for V in (X, X.real):
        assert np.array_equal(wh_orbit(V), np.stack([seed_wh_orbit(v) for v in V], axis=1))
        assert np.array_equal(wh_orbit(V[0]), seed_wh_orbit(V[0]))
    for k in (1, 3):
        blocks = list(X[:k])
        assert np.array_equal(fr.covariant_generator(blocks, d),
                              seed_covariant_generator(blocks, d))


@pytest.mark.parametrize("d", (3, 5, 7, 13, 15, 35))
def test_wh_traces_match_the_dense_sums(d):
    rng = np.random.default_rng(d)
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    # tr(D_p X) = sum(D_p * X^T)
    err = np.abs(wh_traces(X) - seed_side_overlaps(X.T, d, 1)).max()
    assert err <= 1e-12 * np.abs(X).sum()


def test_side_overlaps_match_the_dense_sums(matcher_cases):
    for f, src in matcher_cases:
        d = src.d
        A = lad.to_tensor(f.vector, d)
        assert abs(lad._unit_condition_error(A, d) - seed_unit_condition_error(A, d)) <= 1e-13
        big = seed_side_overlaps(A.conj().T @ A, d, d - 1)
        assert np.abs((d - 1) * wh_traces(A.T @ A.conj()) - big).max() <= 1e-13


def test_embedded_etf_matches_the_dense_columns(matcher_cases):
    aligned = 0
    for f, src in matcher_cases:
        d = src.d
        try:
            old = seed_embedded_etf(f.vector, d)
        except AlignmentRequired:
            with pytest.raises(AlignmentRequired):
                lad.embedded_etf(f.vector, d)
            continue
        cols = lad.embedded_etf(f.vector, d)
        span, _ = fr.restrict_to_span(cols)
        assert span.shape[1] == old[1] == d * (d - 1) // 2
        assert np.abs(cols - old[0]).max() <= 1e-14
        aligned += 1
    assert aligned >= 9


# -- canonical_order3 against the unitary-per-element search it replaced ------

def seed_canonical_order3(d):
    def is_monomial(U, tol=1e-8):
        return bool(np.all(np.sum(np.abs(U) > tol, axis=1) == 1))

    for F in order3_elements(d):
        U = symplectic_unitary(F, d)
        if not is_monomial(U):
            continue
        try:
            fix_phase_to_table(U, 3)
        except NoMatchingPhase:
            continue
        return F
    return zauner_matrix_standard(d)


@pytest.mark.parametrize("d", range(3, 37, 2))
def test_canonical_order3_matches_the_seed_search(d):
    new, old = canonical_order3(d), seed_canonical_order3(d)
    assert new.dtype == old.dtype and new.tolist() == old.tolist()
