"""Symplectic (metaplectic) unitaries over Z_d for odd d.

For F = [[a, b], [g, e]] in SL(2, Z_d) there is a unitary U_F, unique up to
a global phase, with

    U_F D_p U_F^dag = D_{F p}   exactly (no extra phase in odd d).

When b is invertible mod d the standard closed form applies,

    (U_F)[r, s] = tau^( b^{-1} (e r^2 - 2 r s + a s^2) ) / sqrt(d),

otherwise F is factored as [[0,-1],[1,x]] * [[xa+g, xb+e],[-a,-b]] with x
chosen so both factors have invertible upper-right entries, and the two
closed forms are multiplied. Covariance is exact either way; the global
phase is then pinned, where needed, to a prescribed eigenvalue-multiplicity
pattern (fix_phase_to_table) or to the principal root (fix_phase_principal).
"""
import functools

import numpy as np

from .errors import SicladderError
from .heisenberg import _check_dim, tau_powers
from .linalg import eig_unitary


def _as_modmatrix(F, d):
    F = np.asarray(F, dtype=int) % d
    if F.shape != (2, 2):
        raise SicladderError(f"expected a 2x2 integer matrix, got shape {F.shape}")
    return F


def is_symplectic(F, d):
    F = np.asarray(F, dtype=int)
    return int(F[0, 0] * F[1, 1] - F[0, 1] * F[1, 0]) % d == 1


def _closed_form(F, d):
    # requires gcd(F[0,1], d) == 1
    a, b = int(F[0, 0]), int(F[0, 1])
    g, e = int(F[1, 0]), int(F[1, 1])
    binv = pow(b, -1, d)
    r = np.arange(d)
    expo = (binv * (e * r[:, None] ** 2 - 2 * np.outer(r, r) + a * r[None, :] ** 2)) % (2 * d)
    return tau_powers(d)[expo] / np.sqrt(d)


def symplectic_unitary(F, d):
    """Unitary representative of F in SL(2, Z_d), exact covariance, d odd."""
    _check_dim(d)
    F = _as_modmatrix(F, d)
    if not is_symplectic(F, d):
        raise SicladderError(f"det != 1 mod {d}: {F.tolist()}")
    a, b, g, e = int(F[0, 0]), int(F[0, 1]), int(F[1, 0]), int(F[1, 1])
    if np.gcd(b, d) == 1:
        return _closed_form(F, d)
    # upper-right entry not invertible: peel off one shear
    for x in range(d):
        if np.gcd((x * b + e) % d, d) == 1:
            break
    else:  # unreachable for det 1: some residue avoids every prime factor
        raise SicladderError(f"no valid shear for {F.tolist()} mod {d}")
    F1 = np.array([[0, d - 1], [1, x]])
    F2 = np.array([[(x * a + g) % d, (x * b + e) % d], [(-a) % d, (-b) % d]])
    return _closed_form(F1, d) @ _closed_form(F2, d)


def _expected_multiplicities(d, order):
    if order == 2:
        return ((d + 1) // 2, (d - 1) // 2)
    if order == 3:
        k, r = divmod(d, 6)
        if r == 1:
            return (2 * k + 1, 2 * k, 2 * k)
        if r == 3:
            return (2 * k + 2, 2 * k + 1, 2 * k)
        if r == 5:
            return (2 * k + 1, 2 * k + 2, 2 * k + 2)
        raise SicladderError(f"no multiplicity pattern for even d={d}")
    raise ValueError(f"no multiplicity table for order {order}")


def _scalar_of_power(U, order):
    Up = np.linalg.matrix_power(U, order)
    c = Up[0, 0]
    if not np.abs(Up - c * np.eye(len(U))).max() <= 1e-8:
        raise SicladderError("U^order is not a scalar matrix")
    return c


def fix_phase_to_table(U, order):
    """Rescale U so U^order = 1 with the prescribed eigenvalue multiplicities.

    The multiplicity pattern is the standard one for order 3 (the three
    residue classes of d mod 6) and ((d+1)/2, (d-1)/2) for order 2. The
    rescaling must reproduce the pattern's eigenvalue-1 multiplicity and the
    remaining multiplicities as a multiset; that pins it uniquely, since the
    eigenvalue-1 entry differs from the others in every pattern.
    SicladderError if no rescaling works (symplectics whose spectrum is
    shaped differently, e.g. most involutions other than parity).
    """
    d = len(U)
    expected = _expected_multiplicities(d, order)
    c = _scalar_of_power(U, order)
    base = (1.0 / c) ** (1.0 / order)  # principal branch
    lam = np.linalg.eigvals(U)
    for k in range(order):
        r = base * np.exp(2j * np.pi * k / order)
        lr = lam * r
        m = np.round(np.angle(lr) * order / (2 * np.pi)).astype(int) % order
        if np.abs(lr - np.exp(2j * np.pi * m / order)).max() > 1e-6:
            continue
        counts = tuple(int(np.sum(m == q)) for q in range(order))
        if counts[0] == expected[0] and sorted(counts) == sorted(expected):
            return r * U
    raise SicladderError(
        f"no global phase gives multiplicities {expected} at order {order}")


def fix_phase_principal(U, order):
    """Rescale U so U^order = 1, taking the principal root of the scalar."""
    c = _scalar_of_power(U, order)
    return (1.0 / c) ** (1.0 / order) * U


def parity_matrix(d):
    """Minus the identity in SL(2, Z_d), i.e. diag(d-1, d-1)."""
    return np.array([[d - 1, 0], [0, d - 1]])


def parity_operator(d):
    """The permutation r -> -r mod d, the phase-fixed representative of parity."""
    P = np.zeros((d, d))
    P[(-np.arange(d)) % d, np.arange(d)] = 1.0
    return P


def zauner_matrix_standard(d):
    """The standard order-3 element [[0, -1], [1, -1]] mod d."""
    return np.array([[0, d - 1], [1, d - 1]])


def order3_elements(d):
    """All order-3 elements of SL(2, Z_d), lexicographic in (a, b, g, e).

    With det 1 and trace t, Cayley-Hamilton gives M^3 = (t^2-1) M - t I over
    any commutative ring, so M^3 = I exactly when (t^2-1) M = (t+1) I mod d.
    (t = -1 alone misses the unipotent elements mod 3 when 3 divides d.)
    """
    r = np.arange(d)
    a, e = np.divmod(np.arange(d * d), d)
    c, t1 = ((a + e) ** 2 - 1) % d, (a + e + 1) % d
    keep = (c * a % d == t1) & (c * e % d == t1)
    rows = []
    for ai, ei, ci in zip(a[keep], e[keep], c[keep]):
        bg = r[ci * r % d == 0]
        b, g = np.repeat(bg, len(bg)), np.tile(bg, len(bg))
        ok = (ai * ei - b * g) % d == 1
        rows.append(np.stack(np.broadcast_arrays(ai, b[ok], g[ok], ei), axis=1))
    M = np.concatenate(rows)
    M = M[np.any(M != [1, 0, 0, 1], axis=1)]
    return list(M[np.lexsort(M.T[::-1])].reshape(-1, 2, 2))


@functools.lru_cache(maxsize=None)
def canonical_order3(d):
    """Preferred order-3 symplectic for dimension d.

    The first order-3 element, in lexicographic order, whose unitary is
    monomial and admits the tabulated phase fix; if no such element exists
    (true already at d=5) the standard [[0,-1],[1,-1]] is used. Monomial
    representatives keep eigenbases sparse and reproducible.

    U_F is monomial exactly when F[0, 1] = 0 mod d, so the rest are skipped
    unbuilt: a monomial U_F maps diagonal matrices to diagonal ones, so F
    maps (0, 1) into <(0, 1)>; conversely U_F then maps Z's nondegenerate
    eigenbasis, the standard one, to an eigenbasis of the diagonal Z^e.
    """
    for F in order3_elements(d):
        if F[0, 1]:
            continue
        U = symplectic_unitary(F, d)
        try:
            fix_phase_to_table(U, 3)
        except SicladderError:
            continue
        F.setflags(write=False)
        return F
    F = zauner_matrix_standard(d)
    F.setflags(write=False)
    return F


def eigenspace_basis(U, eigenvalue, tol=1e-8):
    """Orthonormal basis (columns) of the eigenvalue's eigenspace of unitary U."""
    dec = eig_unitary(U)
    mask = np.abs(dec.eigenvalues - eigenvalue) <= tol
    if not np.any(mask):
        raise SicladderError(f"no eigenvalue within {tol} of {eigenvalue}")
    return dec.eigenvectors[:, mask]
