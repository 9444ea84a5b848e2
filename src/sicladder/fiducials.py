"""SIC fiducials: overlap tables, the defect functional, verification,
2-design certification, and seeded eigenspace searches in small dimensions.

A SIC in dimension d is the d^2-vector displacement orbit of one fiducial
with all cross overlaps of squared modulus 1/(d+1). The defect

    defect(v) = sum_{p != 0} ( |<v|D_p|v>|^2 - 1/(d+1) )^2

vanishes exactly at fiducials; searches minimize it inside an eigenspace of
a phase-fixed order-3 symplectic, where fiducials are known to live.
"""
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .clifford import (canonical_order3, eigenspace_basis, fix_phase_to_table,
                       symplectic_unitary, zauner_matrix_standard)
from .errors import BadDimension, NotASic, RankDeficient, SearchFailed
from .heisenberg import overlap_table, wh_orbit


@dataclass
class OverlapTable:
    d: int
    phases: np.ndarray  # d x d, entry p = sqrt(d+1) <v|D_p|v>, (0,0) fixed to 1
    defect: float       # max_p |  |phases[p]| - 1  | over p != 0


@dataclass
class SicFiducial:
    d: int
    vector: np.ndarray
    symmetry: np.ndarray = None            # optional 2x2 stabilizing symplectic
    symmetry_eigenvalue: complex = None
    label: str = ""


def gauge_normalize(v):
    """Unit norm with the largest-modulus component made real positive."""
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    k = int(np.argmax(np.abs(v)))
    return v * np.conj(v[k]) / abs(v[k])


def _vector_of(f):
    if isinstance(f, SicFiducial):
        return np.asarray(f.vector, dtype=complex), f.d
    raise TypeError("expected a SicFiducial")


def overlap_phases(f):
    """Normalized overlap table sqrt(d+1) <v|D_p|v>; entry (0,0) set to 1."""
    v, d = _vector_of(f)
    t = np.sqrt(d + 1) * overlap_table(v)
    t[0, 0] = 1.0
    mods = np.abs(t).ravel()
    return OverlapTable(d=d, phases=t, defect=float(np.abs(mods[1:] - 1).max()))


def _overlap_residuals(v, d):
    """|<v|D_p|v>|^2 - 1/(d+1) over p, flattened; the p = 0 entry is 0."""
    m = (np.abs(overlap_table(v)) ** 2).ravel()
    m[0] = 1.0 / (d + 1)
    return m - 1.0 / (d + 1)


def sic_defect(v, d):
    return float(np.sum(_overlap_residuals(np.asarray(v, dtype=complex), d) ** 2))


def verify_sic(f, tol=1e-8):
    """Full-orbit check: resolution of the identity plus equiangularity.

    Tightness is tested from the summed orbit projectors (not assumed from
    group covariance); equiangularity from the overlap table.
    """
    v, d = _vector_of(f)
    if abs(np.linalg.norm(v) - 1) > 1e-10:
        return False
    orb = wh_orbit(v)
    S = orb.T @ orb.conj()
    if np.abs(S - d * np.eye(d)).max() > tol:
        return False
    return bool(np.abs(_overlap_residuals(v, d)[1:]).max() <= tol)


def two_design_deviation(f):
    """Max deviation of the orbit's doubled frame operator from its 2-design
    value (d^2/dim_sym) Pi_sym with dim_sym = d(d+1)/2."""
    v, d = _vector_of(f)
    orb = wh_orbit(v)
    V2 = np.einsum("Ia,Ib->Iab", orb, orb).reshape(d * d, d * d)
    S2 = V2.T @ V2.conj()
    swap = np.zeros((d * d, d * d))
    r, s = np.divmod(np.arange(d * d), d)
    swap[s * d + r, np.arange(d * d)] = 1.0
    sym_proj = (np.eye(d * d) + swap) / 2
    const = d * d / (d * (d + 1) / 2)
    return float(np.abs(S2 - const * sym_proj).max())


def two_design_check(f, tol=1e-8):
    """Whether the orbit's doubled projectors sum to the symmetric projector;
    an equivalent restatement of being a projective 2-design."""
    if not verify_sic(f, tol=max(tol, 1e-8)):
        raise NotASic("two-design check requires a verified SIC")
    return bool(two_design_deviation(f) <= tol)


def default_symmetry(d):
    """Search symmetry and eigenvalue used for fiducial hunting at small d."""
    if d == 5:
        return zauner_matrix_standard(5), np.exp(2j * np.pi / 3)
    if d == 7:
        return canonical_order3(7), 1.0 + 0j
    if d == 9:
        return zauner_matrix_standard(9), 1.0 + 0j
    raise BadDimension(f"no default symmetry for d={d}")


def symmetry_eigenspace(d, zauner, eigenvalue):
    """Orthonormal basis of the chosen eigenspace of the phase-fixed unitary."""
    U = fix_phase_to_table(symplectic_unitary(zauner, d), 3)
    return eigenspace_basis(U, eigenvalue)


def _search_basis(d, zauner, eigenvalue, real_coeffs):
    B = symmetry_eigenspace(d, zauner, eigenvalue)
    if not real_coeffs:
        return B
    Br, R = np.linalg.qr(np.real(B))
    if np.abs(np.diag(R)).min() < 1e-8:
        raise RankDeficient("eigenspace has no real form to search")
    return Br


def _defect_residuals(B, d, real_coeffs):
    nb = B.shape[1]

    def resid(coef):
        psi = B @ (coef if real_coeffs else coef[:nb] + 1j * coef[nb:])
        n = np.linalg.norm(psi)
        if n < 1e-12:
            return np.full(d * d, 1.0)
        return _overlap_residuals(psi / n, d)

    return resid, (nb if real_coeffs else 2 * nb)


def find_fiducial(d, zauner=None, eigenvalue=None, restarts=20, seed=0,
                  real_coeffs=False, target=1e-16):
    """Seeded multistart search for a SIC fiducial in a symmetry eigenspace.

    Levenberg-Marquardt on the overlap residuals, restarted from normal
    draws; the first restart reaching the target defect wins, which makes
    the result a pure function of (d, zauner, eigenvalue, seed).
    """
    if d not in (5, 7, 9):
        raise BadDimension(f"fiducial search supports d in (5, 7, 9), got {d}")
    if zauner is None or eigenvalue is None:
        zdef, edef = default_symmetry(d)
        zauner = zdef if zauner is None else zauner
        eigenvalue = edef if eigenvalue is None else eigenvalue
    B = _search_basis(d, zauner, eigenvalue, real_coeffs)
    resid, npar = _defect_residuals(B, d, real_coeffs)
    rng = np.random.default_rng(seed)
    nb = B.shape[1]
    for t in range(restarts):
        r = least_squares(resid, rng.normal(size=npar), method="lm",
                          xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=6000)
        dv = float(np.sum(r.fun ** 2))
        if dv <= target:
            psi = B @ (r.x if real_coeffs else r.x[:nb] + 1j * r.x[nb:])
            psi = gauge_normalize(psi)
            return SicFiducial(d=d, vector=psi, symmetry=np.asarray(zauner) % d,
                               symmetry_eigenvalue=complex(eigenvalue),
                               label=f"dim{d}-seed{seed}-try{t}")
    raise SearchFailed(f"no defect <= {target:g} fiducial in {restarts} restarts")


def sector_fiducials(d, zauner, eigenvalue, tries=400, seed=17):
    """All distinct fiducial rays in one symmetry eigenspace.

    Found by clustering seeded multistart solves; gauge-fixed and sorted by
    their rounded coordinates so the enumeration is reproducible.
    """
    B = symmetry_eigenspace(d, zauner, eigenvalue)
    resid, npar = _defect_residuals(B, d, real_coeffs=False)
    rng = np.random.default_rng(seed)
    nb = B.shape[1]
    found = []
    for _ in range(tries):
        r = least_squares(resid, rng.normal(size=npar), method="lm",
                          xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=4000)
        if float(np.sum(r.fun ** 2)) < 1e-24:
            psi = gauge_normalize(B @ (r.x[:nb] + 1j * r.x[nb:]))
            if not any(abs(abs(np.vdot(psi, q)) - 1) < 1e-8 for q in found):
                found.append(psi)
    keyed = sorted((tuple(np.round(np.stack([v.real, v.imag], -1).ravel(), 9)), v)
                   for v in found)
    return [SicFiducial(d=d, vector=v, symmetry=np.asarray(zauner) % d,
                        symmetry_eigenvalue=eigenvalue,
                        label=f"dim{d}-sector{k}")
            for k, (_, v) in enumerate(keyed)]


def _table_invariant_under(table, F, tol):
    d = table.shape[0]
    F = np.asarray(F, dtype=int) % d
    i, j = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    fi = (F[0, 0] * i + F[0, 1] * j) % d
    fj = (F[1, 0] * i + F[1, 1] * j) % d
    return np.abs(table[fi, fj] - table).max() <= tol


def _table_maps(src, dst, tol):
    """Integer matrices F whose columns are positions where dst matches
    src[1, 0] and src[0, 1] within tol; every index map p -> F p carrying
    src onto dst is among them, in row-major order of the first column.
    """
    cols_x = np.argwhere(np.abs(dst - src[1, 0]) <= tol)
    cols_z = np.argwhere(np.abs(dst - src[0, 1]) <= tol)
    for px in cols_x:
        for pz in cols_z:
            yield np.array([[px[0], pz[0]], [px[1], pz[1]]])


def _table_stabilizers(table, tol):
    """Determinant-1 matrices leaving the overlap table invariant, identity
    included: candidates matched at 10 tol, each confirmed at tol."""
    d = table.shape[0]
    for F in _table_maps(table, table, tol * 10):
        det = (F[0, 0] * F[1, 1] - F[0, 1] * F[1, 0]) % d
        if det == 1 and _table_invariant_under(table, F, tol):
            yield F


def _ray_eigenvalue(v, U, tol):
    """<v|U|v> when U maps the ray of v to itself within tol, else None."""
    lam = np.vdot(v, U @ v)
    if abs(abs(lam) - 1) < tol and np.abs(U @ v - lam * v).max() < tol:
        return lam
    return None


def detect_order3_symmetry(f, tol=1e-7):
    """An order-3 symplectic stabilizing the fiducial, with its eigenvalue.

    The first order-3 element of the table stabilizer (_table_stabilizers)
    that also fixes the ray of the vector itself, after phase-fixing its
    unitary to the standard multiplicity pattern. None if nothing found.
    """
    v, d = _vector_of(f)
    table = overlap_table(v)
    I = np.eye(2, dtype=int)
    for F in _table_stabilizers(table, tol):
        if np.array_equal(F, I) or not np.array_equal((F @ F @ F) % d, I):
            continue
        lam = _ray_eigenvalue(v, fix_phase_to_table(symplectic_unitary(F, d), 3), tol)
        if lam is not None:
            k = int(np.round(np.angle(lam) * 3 / (2 * np.pi))) % 3
            return F, np.exp(2j * np.pi * k / 3)
    return None


def detect_scalar_symmetry(f, tol=1e-7):
    """A scalar symplectic b*identity (b^2 = 1, b != +-1 mod d) fixing the ray.

    Scalars are read off the table stabilizer (_table_stabilizers), smallest
    b first, and the first one whose unitary fixes the ray of the vector is
    returned. None if the fiducial has no such symmetry.
    """
    v, d = _vector_of(f)
    table = overlap_table(v)
    for F in _table_stabilizers(table, tol):
        b = F[0, 0]
        if F[0, 1] or F[1, 0] or F[1, 1] != b or b in (1, d - 1):
            continue
        if _ray_eigenvalue(v, symplectic_unitary(F, d), tol) is not None:
            return F
    return None


def symmetry_group_order(f, tol=1e-7):
    """Order of the symplectic stabilizer of the fiducial's ray.

    Counts the determinant-1 matrices leaving the overlap table invariant,
    identity included (_table_stabilizers).
    """
    v, _ = _vector_of(f)
    return sum(1 for _ in _table_stabilizers(overlap_table(v), tol))
