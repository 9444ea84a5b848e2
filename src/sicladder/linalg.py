"""Dense complex linear algebra used by every other module.

All functions are pure and operate on plain numpy arrays. Vectors are 1-d
complex arrays, matrices 2-d with column eigenvectors. The tolerance of
eig_unitary is a parameter with default 1e-10 (a well-conditioned
desk-scale check); phase_fix_columns uses a fixed 1e-8.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import SicladderError


class EigenDecomposition(NamedTuple):
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, orthonormal for normal input


def phase_fix_columns(B: np.ndarray) -> np.ndarray:
    """Rescale each column so its first component of magnitude > 1e-8 is real positive."""
    B = np.array(B, dtype=complex, copy=True)
    for k in range(B.shape[1]):
        col = B[:, k]
        sig = np.nonzero(np.abs(col) > 1e-8)[0]
        if sig.size:
            z = col[sig[0]]
            B[:, k] = col * (np.conj(z) / abs(z))
    return B


def eig_unitary(A: np.ndarray, tol: float = 1e-10) -> EigenDecomposition:
    """Eigendecomposition of a unitary matrix with deterministic ordering.

    Eigenvalues are sorted by phase ascending in [0, 2pi). Eigenvalues closer
    than the grouping tolerance 1e-8 are treated as one degenerate group; each
    group gets a canonical orthonormal basis built by projecting the standard
    basis vectors onto the eigenspace and orthogonalizing in index order, so
    the result does not depend on LAPACK internals. Columns are phase fixed
    (first significant component real positive).
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    if A.shape != (n, n):
        raise SicladderError(f"square matrix required, got {A.shape}")
    herm_err = np.abs(A @ A.conj().T - np.eye(n)).max()
    if not herm_err <= tol:
        raise SicladderError(f"||A A^dag - 1||_max = {herm_err:.3e} > {tol:.1e}")

    vals, vecs = np.linalg.eig(A)
    order = np.argsort(np.angle(vals) % (2 * np.pi), kind="stable")
    vals, vecs = vals[order], vecs[:, order]

    # cluster by distance on the unit circle, including the 0 / 2pi seam
    group_tol = 1e-8
    groups: list[list[int]] = []
    for k in range(n):
        if groups and abs(vals[k] - vals[groups[-1][-1]]) < group_tol:
            groups[-1].append(k)
        else:
            groups.append([k])
    if len(groups) > 1 and abs(vals[groups[0][0]] - vals[groups[-1][-1]]) < group_tol:
        groups[0] = groups.pop() + groups[0]

    out_vals = np.empty(n, dtype=complex)
    out_vecs = np.empty((n, n), dtype=complex)
    pos = 0
    for idx in groups:
        block = vecs[:, idx]
        q, _ = np.linalg.qr(block)
        basis = _canonical_eigenbasis(q)
        m = len(idx)
        rep = vals[idx].mean()
        out_vals[pos:pos + m] = rep
        out_vecs[:, pos:pos + m] = basis
        pos += m
    # re-sort groups by phase of representative (seam merge can disorder them)
    order = np.argsort(np.angle(out_vals) % (2 * np.pi), kind="stable")
    return EigenDecomposition(out_vals[order], phase_fix_columns(out_vecs[:, order]))


def _canonical_eigenbasis(q: np.ndarray) -> np.ndarray:
    """Canonical orthonormal basis of span(q): project standard basis vectors
    onto the span and keep the ones with nonnegligible residual, in index order."""
    n, m = q.shape
    proj = q @ q.conj().T
    basis: list[np.ndarray] = []
    for i in range(n):
        v = proj[:, i].copy()
        for b in basis:
            v -= b * (b.conj() @ v)
        nv = np.linalg.norm(v)
        if nv > 1e-6:
            v /= nv
            for b in basis:  # one reorthogonalization pass
                v -= b * (b.conj() @ v)
            basis.append(v / np.linalg.norm(v))
        if len(basis) == m:
            break
    if len(basis) != m:
        raise SicladderError("could not span eigenspace from standard basis projections")
    return np.column_stack(basis)
