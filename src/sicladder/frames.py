"""Finite tight frames: tightness/equiangularity certificates, group-covariant
generator matrices, Naimark complements, and Grassmannian equidistance.

A frame is stored as its generator matrix (vectors as columns). For N
unit-norm columns in ambient dimension r, tightness means M M^dag = (N/r) 1,
and an equiangular tight frame has all off-diagonal Gram moduli squared equal
to (N - r)/(r (N - 1)).
"""
from dataclasses import dataclass

import numpy as np

from .errors import SicladderError
from .heisenberg import wh_orbit
from .linalg import eig_unitary, principal_angles


@dataclass
class EtfCertificate:
    is_tight: bool
    is_equiangular: bool
    common_overlap_sq: float
    max_deviation: float


def check_tight(M):
    """Tightness and equiangularity certificate, within 1e-8, of a frame's generator M.

    Columns are normalized before testing, so the certificate describes the
    frame of unit vectors along the column directions; stacked-block
    generators carry norm sqrt(k) columns and are handled transparently.
    For a tight frame the constant is then N/r exactly.
    """
    M = np.asarray(M)
    r, N = M.shape
    norms = np.linalg.norm(M, axis=0)
    if np.min(norms) < 1e-14:
        return EtfCertificate(is_tight=False, is_equiangular=False,
                              common_overlap_sq=0.0, max_deviation=float("inf"))
    M = M / norms
    dev_tight = np.abs(M @ M.conj().T - (N / r) * np.eye(r)).max()
    G = M.conj().T @ M
    off = np.abs(G[~np.eye(N, dtype=bool)]) ** 2 if N > 1 else np.array([0.0])
    common = float(np.mean(off))
    dev_ang = float(np.max(np.abs(off - common))) if N > 1 else 0.0
    return EtfCertificate(
        is_tight=bool(dev_tight <= 1e-8),
        is_equiangular=bool(dev_ang <= 1e-8),
        common_overlap_sq=common,
        max_deviation=float(max(dev_tight, dev_ang)),
    )


def covariant_generator(x_blocks, d):
    """Stacked displacement orbit of several blocks as one frame.

    Column p (lexicographic in (i, j)) is the concatenation of D_p x_0, ...,
    D_p x_{k-1}; a kd x d^2 matrix. Tight iff the blocks are orthonormal.
    """
    blocks = [np.asarray(x, dtype=complex) for x in x_blocks]
    if len(blocks) < 1 or any(len(x) != d for x in blocks):
        raise SicladderError(f"blocks must each live in C^{d}")
    return wh_orbit(np.array(blocks)).reshape(d * d, -1).T


def _check_blocks_orthonormal(blocks):
    B = np.column_stack(blocks)
    dev = np.abs(B.conj().T @ B - np.eye(B.shape[1])).max()
    if not dev <= 1e-10:
        raise SicladderError(f"blocks deviate from orthonormality by {dev:.3e}")
    return B


def naimark_complement(x_blocks, d):
    """Generator of the frame that an orthonormal completion of the given
    blocks spans.

    The blocks must be orthonormal within 1e-10 (SicladderError otherwise).
    The completing vectors are the canonical eigenbasis of the rank-deficient
    direction of the projector sum_r |x_r><x_r| (its eigenvalue -1 sector
    after reflection), which keeps the output reproducible.

    Stacked under the blocks' own covariant generator and scaled by
    1/sqrt(d), the result forms a d^2 x d^2 unitary for any orthonormal
    blocks: blocks and completion together are an orthonormal basis of C^d,
    and covariant_generator is tight exactly when its blocks are orthonormal
    (tests/test_frames.py::TestTightnessBlockEquivalence). A check of that
    stack would read roundoff, so none is made.
    """
    blocks = [np.asarray(x, dtype=complex) for x in x_blocks]
    if any(len(x) != d for x in blocks):
        raise SicladderError(f"blocks must each live in C^{d}")
    B = _check_blocks_orthonormal(blocks)
    k = B.shape[1]
    refl = 2 * (B @ B.conj().T) - np.eye(d)  # unitary reflection
    dec = eig_unitary(refl, tol=1e-8)
    comp = dec.eigenvectors[:, np.abs(dec.eigenvalues + 1) <= 1e-8]
    comp_blocks = [comp[:, c] for c in range(comp.shape[1])]
    if len(comp_blocks) != d - k:
        raise SicladderError(f"expected {d - k} completing vectors, got {len(comp_blocks)}")
    return covariant_generator(comp_blocks, d)


def grassmann_equidistance(subspace_bases):
    """Whether all pairwise chordal distances of subspaces agree within 1e-8.

    Distance from principal angles: sqrt(sum sin^2 theta_i). Returns
    (equidistant, common distance); the common value is the pairwise mean.
    """
    bases = [np.asarray(b) for b in subspace_bases]
    dists = []
    for a in range(len(bases)):
        for b in range(a + 1, len(bases)):
            ang = principal_angles(bases[a], bases[b])
            dists.append(np.sqrt(np.sum(np.sin(ang) ** 2)))
    dists = np.array(dists)
    if len(dists) == 0:
        return True, 0.0
    common = float(np.mean(dists))
    return bool(np.max(np.abs(dists - common)) <= 1e-8), common


def restrict_to_span(generator):
    """Orthonormal span basis and in-span coordinates of a frame's columns;
    the span keeps the singular values above 1e-8 of the largest."""
    q, s, _ = np.linalg.svd(generator, full_matrices=False)
    keep = s > 1e-8 * s[0]
    span = q[:, keep]
    return span, span.conj().T @ generator
