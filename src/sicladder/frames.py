"""Finite tight frames: tightness/equiangularity certificates, group-covariant
generator matrices, Naimark complements, and Grassmannian equidistance.

A frame is stored as its generator matrix (vectors as columns). For N
unit-norm columns in ambient dimension r, tightness means M M^dag = (N/r) 1,
and an equiangular tight frame has all off-diagonal Gram moduli squared equal
to (N - r)/(r (N - 1)).
"""
from dataclasses import dataclass

import numpy as np

from .errors import BadCompletion, DimensionMismatch, NotOrthonormal, SicladderError
from .heisenberg import displaced_vector
from .linalg import eig_unitary, principal_angles


@dataclass
class FrameSpec:
    ambient_dim: int
    n_vectors: int
    generator: np.ndarray  # ambient_dim x n_vectors
    covariance: tuple = None  # optional (group tag, fiducial blocks)


@dataclass
class EtfCertificate:
    is_tight: bool
    tight_constant: float
    is_equiangular: bool
    common_overlap_sq: float
    max_deviation: float


def _generator_of(frame):
    return frame.generator if isinstance(frame, FrameSpec) else np.asarray(frame)


def check_tight(frame, tol=1e-8):
    """Tightness and equiangularity certificate for a frame.

    Columns are normalized before testing, so the certificate describes the
    frame of unit vectors along the column directions; stacked-block
    generators carry norm sqrt(k) columns and are handled transparently.
    For a tight frame the constant is then N/r exactly.
    """
    M = _generator_of(frame)
    r, N = M.shape
    norms = np.linalg.norm(M, axis=0)
    if np.min(norms) < 1e-14:
        return EtfCertificate(is_tight=False, tight_constant=0.0,
                              is_equiangular=False, common_overlap_sq=0.0,
                              max_deviation=float("inf"))
    M = M / norms
    alpha = N / r
    dev_tight = np.abs(M @ M.conj().T - alpha * np.eye(r)).max()
    G = M.conj().T @ M
    off = np.abs(G[~np.eye(N, dtype=bool)]) ** 2 if N > 1 else np.array([0.0])
    common = float(np.mean(off))
    dev_ang = float(np.max(np.abs(off - common))) if N > 1 else 0.0
    return EtfCertificate(
        is_tight=bool(dev_tight <= tol),
        tight_constant=float(alpha),
        is_equiangular=bool(dev_ang <= tol),
        common_overlap_sq=common,
        max_deviation=float(max(dev_tight, dev_ang)),
    )


def covariant_generator(x_blocks, d):
    """Stacked displacement orbit of several blocks as one frame.

    Column p (lexicographic in (i, j)) is the concatenation of D_p x_0, ...,
    D_p x_{k-1}; a kd x d^2 matrix. Tight iff the blocks are orthonormal.
    """
    blocks = [np.asarray(x, dtype=complex) for x in x_blocks]
    k = len(blocks)
    if k < 1 or any(len(x) != d for x in blocks):
        raise DimensionMismatch(f"blocks must each live in C^{d}")
    M = np.empty((k * d, d * d), dtype=complex)
    col = 0
    for i in range(d):
        for j in range(d):
            for r, x in enumerate(blocks):
                M[r * d:(r + 1) * d, col] = displaced_vector(x, i, j)
            col += 1
    return FrameSpec(ambient_dim=k * d, n_vectors=d * d, generator=M,
                     covariance=("weyl-heisenberg", tuple(blocks)))


def _check_blocks_orthonormal(blocks, d, tol=1e-10):
    B = np.column_stack(blocks)
    dev = np.abs(B.conj().T @ B - np.eye(B.shape[1])).max()
    if not dev <= tol:
        raise NotOrthonormal(f"blocks deviate from orthonormality by {dev:.3e}")
    return B


def naimark_complement(x_blocks, d, completion="auto"):
    """Frame generated by an orthonormal completion of the given blocks.

    Stacking the covariant generators of the blocks and of the completion and
    scaling by 1/sqrt(d) forms a d^2 x d^2 unitary; the complement frame is
    the lower block. With completion="auto" the completing vectors are the
    canonical eigenbasis of the rank-deficient direction of the projector
    sum_r |x_r><x_r| (its eigenvalue -1 sector after reflection), which keeps
    the output reproducible.
    """
    blocks = [np.asarray(x, dtype=complex) for x in x_blocks]
    if any(len(x) != d for x in blocks):
        raise DimensionMismatch(f"blocks must each live in C^{d}")
    B = _check_blocks_orthonormal(blocks, d)
    k = B.shape[1]
    if isinstance(completion, str) and completion == "auto":
        refl = 2 * (B @ B.conj().T) - np.eye(d)  # unitary reflection
        dec = eig_unitary(refl, tol=1e-8)
        comp = dec.eigenvectors[:, np.abs(dec.eigenvalues + 1) <= 1e-8]
        comp_blocks = [comp[:, c] for c in range(comp.shape[1])]
    else:
        comp_blocks = [np.asarray(y, dtype=complex) for y in completion]
        full = np.column_stack([B] + [y[:, None] for y in comp_blocks])
        if full.shape[1] != d:
            raise BadCompletion(f"completion has {full.shape[1] - k} vectors, need {d - k}")
        dev = np.abs(full.conj().T @ full - np.eye(d)).max()
        if not dev <= 1e-10:
            raise BadCompletion(f"completion not an orthonormal extension: {dev:.3e}")
    if len(comp_blocks) != d - k:
        raise BadCompletion(f"expected {d - k} completing vectors, got {len(comp_blocks)}")
    frame = covariant_generator(comp_blocks, d)
    stacked = np.vstack([covariant_generator(blocks, d).generator,
                         frame.generator]) / np.sqrt(d)
    dev = np.abs(stacked @ stacked.conj().T - np.eye(d * d)).max()
    if not dev <= 1e-10:
        raise SicladderError(f"stacked-unitary certificate failed: {dev:.3e}")
    return frame


def grassmann_equidistance(subspace_bases, tol=1e-8):
    """Whether all pairwise chordal distances between subspaces coincide.

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
    return bool(np.max(np.abs(dists - common)) <= tol), common


def restrict_to_span(generator, tol=1e-8):
    """Orthonormal span basis and in-span coordinates of a frame's columns."""
    M = _generator_of(generator)
    q, s, _ = np.linalg.svd(M, full_matrices=False)
    keep = s > tol * s[0]
    span = q[:, keep]
    return span, span.conj().T @ M
