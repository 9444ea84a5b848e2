"""SIC fiducials: overlap tables, the defect functional, verification,
2-design certification, and seeded eigenspace searches in small dimensions.

A SIC in dimension d is the d^2-vector displacement orbit of one fiducial
with all cross overlaps of squared modulus 1/(d+1). The defect

    defect(v) = sum_{p != 0} ( |<v|D_p|v>|^2 - 1/(d+1) )^2

vanishes exactly at fiducials; searches minimize it inside an eigenspace of
a phase-fixed order-3 symplectic, where fiducials are known to live.
"""
import functools
from dataclasses import dataclass

import numpy as np

from .clifford import (canonical_order3, eigenspace_basis, fix_phase_to_table,
                       symplectic_unitary, zauner_matrix_standard)
from .errors import SearchFailed, SicladderError
from .heisenberg import _check_dim, overlap_table, wh_traces
from .minpack import least_squares


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
    """|<v|D_p|v>|^2 - 1/(d+1) over p, flattened; the p = 0 entry is 0.
    Squared and shifted in place, which rounds as the fresh arrays would."""
    m = np.abs(overlap_table(v)).ravel()
    np.square(m, out=m)
    m[0] = 1.0 / (d + 1)
    return np.subtract(m, 1.0 / (d + 1), out=m)


def sic_defect(v, d):
    r = _overlap_residuals(np.asarray(v, dtype=complex), d)
    return float(np.sum(np.square(r, out=r)))


def verify_sic(f, tol=1e-8):
    """Unit norm within 1e-10 and an overlap-table defect (overlap_phases,
    the `sic` row of `sicladder verify`) of at most tol; NaN fails.

    The orbit's tightness is not tested: sum_p D_p|v><v|D_p^dag = d ||v||^2 1
    holds for every vector v (the sum over clock powers leaves the diagonal,
    the sum over shifts spreads it evenly), so given unit norm it is
    implied and a test of it would reject nothing.
    """
    v, _ = _vector_of(f)
    return bool(abs(np.linalg.norm(v) - 1) <= 1e-10 and overlap_phases(f).defect <= tol)


def two_design_deviation(f):
    """Max deviation of the orbit's doubled frame operator S2 from its
    2-design value (2d/(d+1)) Pi_sym, from the d x d trace table
    T[p] = v^T D_p v of v v^T; S2 (d^2 x d^2) is never formed. Odd d only.

    The tau phases cancel in each fourfold product and the sum over j
    leaves S2[(a,b),(c,e)] = d [a+b = c+e mod d] G[b-a, c-a], with
    G[k,l] = sum_t v_t v_{t+k} conj(v_{t+l} v_{t+k-l}), where Pi_sym is
    (delta_{l,0} + delta_{k,l})/2 and both vanish elsewhere. For odd d,
    tau = omega^((d+1)/2) gives d G[k,l] = (T T^dag)[k, k-2l mod d], and
    l -> k-2l is a bijection, so the deviation is the max over (k, m) of
    |(T T^dag)[k,m] - d/(d+1) ([m = k] + [m = -k])|. Even d raises
    SicladderError: there tau is no power of omega and l -> k-2l is not onto.
    """
    v, d = _vector_of(f)
    _check_dim(d)
    T = wh_traces(np.outer(v, v))
    sym2 = np.eye(d) + np.eye(d)[-np.arange(d) % d]   # [m = k] + [m = -k]
    return float(np.abs(T @ T.conj().T - d / (d + 1) * sym2).max())


def default_symmetry(d):
    """The fiducial search recipe at small d: (symmetry, eigenvalue,
    real_coeffs). At d=7 the eigenspace has a real form and is searched over
    real coefficients, so the fiducial is real (conjugate pairing needs it)."""
    if d == 5:
        return zauner_matrix_standard(5), np.exp(2j * np.pi / 3), False
    if d == 7:
        return canonical_order3(7), 1.0 + 0j, True
    if d == 9:
        return zauner_matrix_standard(9), 1.0 + 0j, False
    raise SicladderError(f"fiducial search supports d in (5, 7, 9), got {d}")


def symmetry_eigenspace(d, zauner, eigenvalue):
    """Orthonormal basis of the chosen eigenspace of the phase-fixed unitary."""
    U = fix_phase_to_table(symplectic_unitary(zauner, d), 3)
    return eigenspace_basis(U, eigenvalue)


def _defect_residuals(B, d, real_coeffs):
    nb = B.shape[1]

    def resid(coef):
        psi = B @ (coef if real_coeffs else coef[:nb] + 1j * coef[nb:])
        n = np.linalg.norm(psi)
        if n < 1e-12:
            return np.full(d * d, 1.0)
        return _overlap_residuals(psi / n, d)

    return resid, (nb if real_coeffs else 2 * nb)


def _gauge_ray(B, coef, real_coeffs):
    """The gauge-fixed vector of search coefficients (as in _defect_residuals)."""
    nb = B.shape[1]
    return gauge_normalize(B @ (coef if real_coeffs else coef[:nb] + 1j * coef[nb:]))


def _lm_restarts(d, seed, max_nfev):
    """Seeded Levenberg-Marquardt restarts in the eigenspace of d's recipe
    (default_symmetry), from normal draws.

    Yields (defect, ray) per restart and never stops by itself: ray() is the
    gauge-fixed vector of that restart's coefficients, built only on demand.
    """
    symmetry, eigenvalue, real_coeffs = default_symmetry(d)
    B = symmetry_eigenspace(d, symmetry, eigenvalue)
    if real_coeffs:
        B, R = np.linalg.qr(np.real(B))
        if np.abs(np.diag(R)).min() < 1e-8:
            raise SicladderError("eigenspace has no real form to search")
    resid, npar = _defect_residuals(B, d, real_coeffs)
    rng = np.random.default_rng(seed)
    while True:
        x, fun = least_squares(resid, rng.normal(size=npar), max_nfev)
        yield (float(np.sum(fun ** 2)),
               functools.partial(_gauge_ray, B, x, real_coeffs))


def _recipe_fiducial(d, vector, label):
    symmetry, eigenvalue, _ = default_symmetry(d)
    return SicFiducial(d=d, vector=vector, symmetry=np.asarray(symmetry) % d,
                       symmetry_eigenvalue=complex(eigenvalue), label=label)


def find_fiducial(d, restarts=20, seed=0):
    """Seeded multistart search for a SIC fiducial (_lm_restarts).

    The first restart reaching defect 1e-16 wins. The same (d, seed) gives
    the same bits in every process.
    """
    for t, (defect, ray) in zip(range(restarts), _lm_restarts(d, seed, 6000)):
        if defect <= 1e-16:
            return _recipe_fiducial(d, ray(), f"dim{d}-seed{seed}-try{t}")
    raise SearchFailed(f"no defect <= 1e-16 fiducial in {restarts} restarts")


# Number of fiducial rays in the d = 5 search eigenspace, proven:
# tests/test_fiducials.py::TestSectorCount solves the equiangularity
# equations on the eigenspace's Bloch sphere exactly (a lex Groebner basis
# over the rationals) and finds four real points, each one an LM ray.
_SECTOR_RAYS = 4


def sector_fiducials(seed):
    """All distinct fiducial rays in the eigenspace of the d = 5 recipe.

    Found by clustering seeded multistart solves (_lm_restarts); gauge-fixed
    and sorted by their rounded coordinates so the enumeration is
    reproducible. The restarts stop at the certified count of rays
    (_SECTOR_RAYS) or after 60, whichever comes first; stopping at the count
    returns the same list as running all 60.
    """
    found = []
    for _, (defect, ray) in zip(range(60), _lm_restarts(5, seed, 4000)):
        if defect < 1e-24:
            psi = ray()
            if not any(abs(abs(np.vdot(psi, q)) - 1) < 1e-8 for q in found):
                found.append(psi)
                if len(found) == _SECTOR_RAYS:
                    break
    keyed = sorted((tuple(np.round(np.stack([v.real, v.imag], -1).ravel(), 9)), v)
                   for v in found)
    return [_recipe_fiducial(5, v, f"dim5-sector{k}")
            for k, (_, v) in enumerate(keyed)]


def _table_image(table, F):
    """table[F p] at every grid point p, indices mod d."""
    d = table.shape[0]
    (a, b), (c, e) = np.asarray(F, dtype=int) % d
    i, j = np.ogrid[:d, :d]
    return table[(a * i + b * j) % d, (c * i + e * j) % d]


def _table_invariant_under(table, F, tol):
    return np.abs(_table_image(table, F) - table).max() <= tol


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


def _table_stabilizers(table):
    """Determinant-1 matrices leaving the overlap table invariant, identity
    included: candidates matched at 1e-6, each confirmed at 1e-7."""
    d = table.shape[0]
    for F in _table_maps(table, table, 1e-6):
        det = (F[0, 0] * F[1, 1] - F[0, 1] * F[1, 0]) % d
        if det == 1 and _table_invariant_under(table, F, 1e-7):
            yield F


def _ray_eigenvalue(v, U):
    """<v|U|v> when U maps the ray of v to itself within 1e-7, else None."""
    lam = np.vdot(v, U @ v)
    if abs(abs(lam) - 1) < 1e-7 and np.abs(U @ v - lam * v).max() < 1e-7:
        return lam
    return None


def detect_order3_symmetry(f):
    """An order-3 symplectic stabilizing the fiducial, with its eigenvalue.

    The first order-3 element of the table stabilizer (_table_stabilizers)
    that also fixes the ray of the vector itself, after phase-fixing its
    unitary to the standard multiplicity pattern. None if nothing found.
    """
    v, d = _vector_of(f)
    table = overlap_table(v)
    I = np.eye(2, dtype=int)
    for F in _table_stabilizers(table):
        if np.array_equal(F, I) or not np.array_equal((F @ F @ F) % d, I):
            continue
        lam = _ray_eigenvalue(v, fix_phase_to_table(symplectic_unitary(F, d), 3))
        if lam is not None:
            k = int(np.round(np.angle(lam) * 3 / (2 * np.pi))) % 3
            return F, np.exp(2j * np.pi * k / 3)
    return None


def detect_scalar_symmetry(f):
    """A scalar symplectic b*identity (b^2 = 1, b != +-1 mod d) fixing the ray.

    Scalars are read off the table stabilizer (_table_stabilizers), smallest
    b first, and the first one whose unitary fixes the ray of the vector is
    returned. None if the fiducial has no such symmetry.
    """
    v, d = _vector_of(f)
    table = overlap_table(v)
    for F in _table_stabilizers(table):
        b = F[0, 0]
        if F[0, 1] or F[1, 0] or F[1, 1] != b or b in (1, d - 1):
            continue
        if _ray_eigenvalue(v, symplectic_unitary(F, d)) is not None:
            return F
    return None


def symmetry_group_order(f):
    """Order of the symplectic stabilizer of the fiducial's ray.

    Counts the determinant-1 matrices leaving the overlap table invariant,
    identity included (_table_stabilizers).
    """
    v, _ = _vector_of(f)
    return sum(1 for _ in _table_stabilizers(overlap_table(v)))
