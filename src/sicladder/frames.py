"""Finite tight frames: tightness/equiangularity certificates, group-covariant
generator matrices, span restriction, and Grassmannian equidistance.

A frame is stored as its generator matrix (vectors as columns). For N
unit-norm columns in ambient dimension r, tightness means M M^dag = (N/r) 1,
and an equiangular tight frame has all off-diagonal Gram moduli squared equal
to (N - r)/(r (N - 1)). The Naimark complement of a frame of orthonormal
blocks is the covariant generator of the -1 eigenspace of their reflection
(ladder._lift_reflection for the lift blocks of a SIC fiducial).
"""
from dataclasses import dataclass

import numpy as np

from .errors import SicladderError
from .heisenberg import wh_orbit


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


def grassmann_equidistance(subspace_bases):
    """Whether all pairwise chordal distances of subspaces agree within 1e-8.

    The bases must have orthonormal columns within 1e-8 and one rank r
    (SicladderError otherwise). The chordal distance sqrt(sum sin^2 theta_i)
    over the principal angles is sqrt(r - ||U1^dag U2||_F^2), since the
    cos theta_i are the singular values of U1^dag U2. Returns (equidistant,
    common distance); the common value is the pairwise mean.
    """
    bases = [np.asarray(b) for b in subspace_bases]
    for U in bases:
        err = np.abs(U.conj().T @ U - np.eye(U.shape[1])).max()
        if not err <= 1e-8:
            raise SicladderError(f"columns not orthonormal, deviation {err:.3e}")
    if len({U.shape[1] for U in bases}) > 1:
        raise SicladderError("subspaces must have equal dimension")
    dists = np.array([
        np.sqrt(max(0.0, U1.shape[1] - np.linalg.norm(U1.conj().T @ U2) ** 2))
        for a, U1 in enumerate(bases) for U2 in bases[a + 1:]])
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
