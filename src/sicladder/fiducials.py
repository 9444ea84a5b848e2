"""SIC fiducials: overlap tables, the defect functional, verification,
2-design certification, and seeded eigenspace searches in small dimensions.

A SIC in dimension d is the d^2-vector displacement orbit of one fiducial
with all cross overlaps of squared modulus 1/(d+1). The defect

    defect(v) = sum_{p != 0} ( |<v|D_p|v>|^2 - 1/(d+1) )^2

vanishes exactly at fiducials; searches minimize it inside an eigenspace of
a phase-fixed order-3 symplectic, where fiducials are known to live.
"""
from dataclasses import dataclass, field

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


def sic_defect(v, d):
    v = np.asarray(v, dtype=complex)
    m = (np.abs(overlap_table(v)) ** 2).ravel()
    m[0] = 1.0 / (d + 1)
    return float(np.sum((m - 1.0 / (d + 1)) ** 2))


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
    m = (np.abs(overlap_table(v)) ** 2).ravel()
    return bool(np.abs(m[1:] - 1.0 / (d + 1)).max() <= tol)


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
        m = (np.abs(overlap_table(psi / n)) ** 2).ravel()
        m[0] = 1.0 / (d + 1)
        return m - 1.0 / (d + 1)

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


def _stabilizer_candidates(table, tol):
    d = table.shape[0]
    cols_x = np.argwhere(np.abs(table - table[1, 0]) <= tol)
    cols_z = np.argwhere(np.abs(table - table[0, 1]) <= tol)
    for px in cols_x:
        for pz in cols_z:
            F = np.array([[px[0], pz[0]], [px[1], pz[1]]])
            if (F[0, 0] * F[1, 1] - F[0, 1] * F[1, 0]) % d == 1:
                yield F


def detect_order3_symmetry(f, tol=1e-7):
    """An order-3 symplectic stabilizing the fiducial, with its eigenvalue.

    Candidates come from matching the overlap table's generator columns, so
    the scan stays cheap even when d is large; each candidate is confirmed
    on the whole table and then on the vector itself. None if nothing found.
    """
    v, d = _vector_of(f)
    table = overlap_table(v)
    I = np.eye(2, dtype=int)
    for F in _stabilizer_candidates(table, tol * 10):
        if np.array_equal(F % d, I) or not np.array_equal((F @ F @ F) % d, I):
            continue
        if not _table_invariant_under(table, F, tol):
            continue
        U = fix_phase_to_table(symplectic_unitary(F, d), 3)
        lam = np.vdot(v, U @ v)
        if abs(abs(lam) - 1) < tol and np.abs(U @ v - lam * v).max() < tol:
            k = int(np.round(np.angle(lam) * 3 / (2 * np.pi))) % 3
            return F % d, np.exp(2j * np.pi * k / 3)
    return None


def detect_scalar_symmetry(f, tol=1e-7):
    """A scalar symplectic b*identity (b^2 = 1, b != +-1 mod d) fixing the ray.

    Scalars act on displacement indices by multiplication, so the overlap
    table filters candidates cheaply before the vector itself is checked.
    None if the fiducial has no such symmetry.
    """
    v, d = _vector_of(f)
    table = overlap_table(v)
    for b in range(2, d - 1):
        if (b * b) % d != 1:
            continue
        F = np.array([[b, 0], [0, b]])
        if not _table_invariant_under(table, F, tol):
            continue
        U = symplectic_unitary(F, d)
        lam = np.vdot(v, U @ v)
        if abs(abs(lam) - 1) < tol and np.abs(U @ v - lam * v).max() < tol:
            return F
    return None


def symmetry_group_order(f, tol=1e-7):
    """Order of the symplectic stabilizer of the fiducial's ray.

    Counts determinant-1 matrices leaving the overlap table invariant,
    identity included; candidate columns are matched by overlap value first.
    """
    v, d = _vector_of(f)
    table = overlap_table(v)
    seen = set()
    for F in _stabilizer_candidates(table, tol * 10):
        key = tuple((F % d).ravel())
        if key in seen:
            continue
        if _table_invariant_under(table, F, tol):
            seen.add(key)
    return len(seen)
