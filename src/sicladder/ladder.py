"""The dimension ladder d -> d(d-2): symmetric-subspace lift, generalized
parity, paired labeled eigenbases, proto families, and alignment checking.

Conventions. The big space C^{d(d-2)} is identified with C^{d-2} (x) C^d by
the Chinese-remainder permutation V = crt_permutation(d-2, d); every vector
this module hands out publicly lives in the global (unpermuted) indexing, so
plain displacement operators of dimension d(d-2) act on it directly. A proto
vector is

    Psi = sqrt(2/(d-1)) sum U[a,b] |f_a> (x) |e_b>

with f_a an eigenbasis of the even-parity subspace of C^{d-2}, e_b an
eigenbasis of the odd generalized-parity subspace of C^d, U block-unitary
over groups of equal symmetry-label product, and the label products all
equal to one target eigenvalue. Alignment of Psi means

    (d-1) <Psi| D_q (x) 1 |Psi> = 1                      (every q != 0)
    (d-1) <Psi| 1 (x) D_p |Psi> = -e^{2 i theta_{M p'}}   (every p != 0)

with theta the source SIC's overlap phases, p' the kappa-reindexed p
(kappa = (d-1)/2, the clock twist the index split introduces), and M some
integer matrix of determinant +-1 mod d.

build_proto is the inner loop of every climb search. Like the heisenberg
kernels, any rewrite of it must return bit-identical vectors (see the
heisenberg module docstring): the same products, summed in the same order.
"""
import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .clifford import (eigenspace_basis, fix_phase_principal,
                       fix_phase_to_table, parity_operator, symplectic_unitary)
from .errors import (AlignmentRequired, BadPairing, DimensionMismatch,
                     NoMatchingPhase, NotASic, ParamCountMismatch,
                     SicladderError)
from .fiducials import (OverlapTable, SicFiducial, detect_scalar_symmetry,
                        overlap_phases, verify_sic)
from .frames import FrameSpec
from .heisenberg import crt_index, crt_to_tensor, displacement
from .linalg import eig_unitary, phase_fix_columns


def h_matrix(d):
    """diag(1, 2^{-1}) mod d; conjugation by it moves symmetries across the lift."""
    return np.array([[1, 0], [0, (d + 1) // 2]])


def h_conjugate(F, d):
    """H^{-1} F H mod d."""
    h = (d + 1) // 2
    Hinv = np.array([[1, 0], [0, 2]])
    H = np.array([[1, 0], [0, h]])
    return (Hinv @ (np.asarray(F, dtype=int) % d) @ H) % d


# ---------------------------------------------------------------------------
# symmetric-subspace machinery


def symmetric_reindex(d):
    """Unitary W on C^d (x) C^d with W (D_{Hp} (x) D_{Hp}) W^dag = 1 (x) D_p.

    Rows come in d blocks of size d. Basis pairs (u, v) with v - u = x are
    relabeled (x, i) via u = x(d-1)/2 + i; the swap u <-> v fixes (x, i) up
    to x -> -x, so symmetric/antisymmetric combinations of the x and -x
    blocks diagonalize the exchange while the displacement action on i is
    block-independent. Symmetric blocks come first: x = 0, then (d-1)/2
    symmetric pairs, then the antisymmetric pairs.
    """
    half, kap = (d - 1) // 2, (d + 1) // 2
    W = np.zeros((d * d, d * d), dtype=complex)
    row = 0
    for x in range(kap):
        for i in range(d):
            u, v = (x * half + i) % d, (x * kap + i) % d
            if x == 0:
                W[row, u * d + v] = 1.0
            else:
                W[row, u * d + v] += 1 / np.sqrt(2)
                W[row, v * d + u] += 1 / np.sqrt(2)
            row += 1
    for x in range(1, kap):
        for i in range(d):
            u, v = (x * half + i) % d, (x * kap + i) % d
            W[row, u * d + v] += 1 / np.sqrt(2)
            W[row, v * d + u] -= 1 / np.sqrt(2)
            row += 1
    return W


@dataclass
class SymLiftBlocks:
    d: int
    blocks: list  # (d+1)/2 orthonormal vectors in C^d


def lift_fiducial(f):
    """Blocks of the doubled fiducial in the block basis of symmetric_reindex.

    sqrt((d+1)/2) |psi> (x) |psi> decomposes over the (d+1)/2 symmetric
    blocks into vectors x_r that turn out orthonormal exactly when psi is a
    SIC fiducial; the antisymmetric part vanishes identically.
    """
    if not verify_sic(f, tol=1e-8):
        raise NotASic("lift requires a verified SIC fiducial")
    d, psi = f.d, np.asarray(f.vector, dtype=complex)
    kap = (d + 1) // 2
    L = np.sqrt(kap) * (symmetric_reindex(d) @ np.kron(psi, psi))
    blocks = [L[x * d:(x + 1) * d] for x in range(kap)]
    tail = L[kap * d:]
    if not np.abs(tail).max() <= 1e-10:
        raise SicladderError("antisymmetric residue in the doubled fiducial")
    B = np.column_stack(blocks)
    dev = np.abs(B.conj().T @ B - np.eye(kap)).max()
    if not dev <= 1e-8:
        raise SicladderError(f"lift blocks deviate from orthonormality by {dev:.3e}")
    return SymLiftBlocks(d=d, blocks=blocks)


@dataclass
class GeneralizedParity:
    d: int
    matrix: np.ndarray
    source: str = ""
    dual_deviation: float = 0.0


def generalized_parity(f):
    """The involution (1/d) sum_p e^{2 i theta_{Hp}} D_{-p}, certified twice.

    The phase-sum route and the lift route (twice the even-subspace
    projector minus one) must agree to 1e-9; their maximum deviation is
    recorded on the result.
    """
    d = f.d
    table = overlap_phases(f)
    h = (d + 1) // 2
    P = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            P += (table.phases[i, (h * j) % d] ** 2) * displacement(d, -i, -j)
    P /= d
    lift = lift_fiducial(f)
    B = np.column_stack(lift.blocks)
    P2 = 2 * (B @ B.conj().T) - np.eye(d)
    dev = float(np.abs(P - P2).max())
    if not dev <= 1e-9:
        raise SicladderError(f"generalized-parity routes disagree by {dev:.3e}")
    return GeneralizedParity(d=d, matrix=P, source=f.label, dual_deviation=dev)


# ---------------------------------------------------------------------------
# paired labeled bases and proto families


@dataclass
class LabeledBasis:
    vectors: np.ndarray  # dim x m, orthonormal columns
    labels: list         # integer exponents: eigenvalue = exp(2 pi i label / order)
    order: int = 3


def _snap_root(x, order):
    k = int(np.round(np.angle(x) * order / (2 * np.pi))) % order
    if not abs(x - np.exp(2j * np.pi * k / order)) <= 1e-6:
        raise SicladderError(f"eigenvalue {x} not near an order-{order} root")
    return k


def _fix_order3(U):
    try:
        return fix_phase_to_table(U, 3)
    except NoMatchingPhase:
        # other conjugacy class: no tabulated pattern, take the principal root
        return fix_phase_principal(U, 3)


def root_of_parity(n):
    """The smallest diagonal symplectic diag(a, -a) squaring to -identity mod n.

    Exists exactly when -1 is a quadratic residue mod n; its unitary is a
    fourth root of one that squares to the parity operator, so it restricts
    to an involution on either parity eigenspace.
    """
    for a in range(2, n):
        if (a * a) % n == n - 1:
            return np.array([[a, 0], [0, n - a]])
    raise SicladderError(f"-1 has no square root mod {n}")


def refining_involutions(f):
    """The (small, big) involution pair that refines the step from f to
    order-6 labels, or None when the refined step cannot be built.

    The small side needs root_of_parity(d-2), which exists exactly when -1
    is a square mod d-2; the big side needs a scalar involution symmetry of
    f. The root is checked first because it costs no overlap table.
    """
    try:
        invol_small = root_of_parity(f.d - 2)
    except SicladderError:
        return None
    invol_big = detect_scalar_symmetry(f)
    return None if invol_big is None else (invol_small, invol_big)


def _fix_involution(R, tol=1e-7):
    # square must be a scalar phase; divide by its principal root
    n = R.shape[0]
    S = R @ R
    c = complex(np.trace(S)) / n
    if not (abs(abs(c) - 1) <= tol and np.abs(S - c * np.eye(n)).max() <= tol):
        raise SicladderError("square of the restricted involution is not a scalar phase")
    return R * np.exp(-0.5j * np.angle(c))


def _restricted_basis(B, U3, US=None, tol=1e-7):
    """Eigenbasis of the order-3 symmetry U3 restricted to span(B), labeled
    by third-root exponents.

    With an involution US commuting with U3, the joint eigenbasis of the
    pair instead, labeled by sixth-root exponents of the product's
    eigenvalues; the order-3 exponent survives mod 3 and the involution
    sign mod 2, so the pair is recoverable from the label.
    """
    R = B.conj().T @ U3 @ B
    order = 3
    if US is not None:
        RS = B.conj().T @ US @ B
        for name, U, Rn in (("order-3", U3, R), ("involution", US, RS)):
            dev = np.abs(U @ B - B @ Rn).max()
            if not dev <= tol:
                raise SicladderError(f"{name} symmetry does not preserve the subspace ({dev:.3e})")
        RS = _fix_involution(RS, tol=tol)
        comm = np.abs(R @ RS - RS @ R).max()
        if not comm <= tol:
            raise SicladderError(f"restricted symmetries do not commute ({comm:.3e})")
        R, order = R @ RS, 6
    dec = eig_unitary(R, tol=tol)
    vecs = phase_fix_columns(B @ dec.eigenvectors)
    labels = [_snap_root(x, order) for x in dec.eigenvalues]
    return LabeledBasis(vectors=vecs, labels=labels, order=order)


def paired_bases(f, zauner_small, P_theta, involutions=None):
    """Labeled eigenbases on both sides of the ladder step.

    e-side: the odd subspace of the generalized parity, split by the
    H-conjugate of the source's symmetry. f-side: the even-parity subspace
    of C^{d-2}, split by the given small symplectic. Labels are the
    symmetry eigenvalues as third-root exponents; both bases have (d-1)/2
    vectors.

    involutions=(invol_small, invol_big), as refining_involutions returns
    it, splits each side by a commuting symmetry pair instead and gives
    sixth-root labels. Small side: a square root of parity, involutive on
    the even-parity subspace. Big side: a scalar symplectic squaring to
    one, taken across the step by the same H-conjugation as the order-3
    part (scalars are fixed points of it). The finer labels cut the block
    sizes and with them the search dimension.
    """
    d = f.d
    if f.symmetry is None:
        raise SicladderError("source fiducial carries no symmetry matrix")
    half = (d - 1) // 2
    n1 = d - 2
    Us_big = Us_small = None
    if involutions is not None:
        invol_small, invol_big = involutions
        Us_big = symplectic_unitary(h_conjugate(invol_big, d), d)
        Us_small = symplectic_unitary(invol_small, n1)

    Pmat = (P_theta.matrix + P_theta.matrix.conj().T) / 2
    Bm = eigenspace_basis(Pmat, -1.0, tol=1e-6)
    Uz_big = _fix_order3(symplectic_unitary(h_conjugate(f.symmetry, d), d))
    e_basis = _restricted_basis(Bm, Uz_big, Us_big)

    Bp = eigenspace_basis(parity_operator(n1), 1.0, tol=1e-6)
    Uz_small = _fix_order3(symplectic_unitary(zauner_small, n1))
    f_basis = _restricted_basis(Bp, Uz_small, Us_small)

    if len(e_basis.labels) != half or len(f_basis.labels) != half:
        raise DimensionMismatch(
            f"expected {half} vectors per side, got e={len(e_basis.labels)} f={len(f_basis.labels)}")
    return e_basis, f_basis


def paired_bases_refined(f, zauner_small, invol_small, invol_big, P_theta):
    """paired_bases with order-6 labels, under the name perfbench times.

    A function of its own rather than an alias: perfbench wraps each listed
    name, and an alias of paired_bases would be wrapped twice.
    """
    return paired_bases(f, zauner_small, P_theta, (invol_small, invol_big))


def feasible_targets(f_basis, e_basis):
    """Label-product targets for which a full pairing exists (multiset match)."""
    order = f_basis.order
    out = []
    for t in range(order):
        if sorted((t - a) % order for a in f_basis.labels) == sorted(e_basis.labels):
            out.append(t)
    return out


@dataclass
class ProtoFamily:
    d: int                    # source dimension; the family lives in C^{d(d-2)}
    e_basis: LabeledBasis
    f_basis: LabeledBasis
    blocks: list              # [(f_indices, e_indices)] sorted by f label
    target_exponent: int
    conjugate: bool = False
    source_table: OverlapTable = None

    @property
    def block_sizes(self):
        return [len(fi) for fi, _ in self.blocks]

    @property
    def n_params(self):
        if self.conjugate:
            return 1
        sizes = self.block_sizes
        return (sizes[0] ** 2 - 1) + sum(s * s for s in sizes[1:])

    @property
    def param_kinds(self):
        """'polar' for SU(2) mixing angles (clamped to [0, pi]), 'phase' otherwise."""
        if self.conjugate:
            return ["phase"]
        kinds = []
        for bi, s in enumerate(self.block_sizes):
            n = s * s - 1 if bi == 0 else s * s
            if s == 1:
                kinds += ["phase"] * n
            elif s == 2:
                kinds += ["polar", "phase", "phase"] + (["phase"] if bi > 0 else [])
            else:
                raise SicladderError(f"blocks of size {s} not supported")
        return kinds

    @functools.cached_property
    def kron_rows(self):
        """Per block, the tensor rows kron(f_a, e_b) stacked in the order of
        the block's coefficient matrix flattened row-major (a slow, b fast)."""
        fv, ev = self.f_basis.vectors, self.e_basis.vectors
        return [np.array([np.kron(fv[:, a], ev[:, b]) for a in fi for b in ei])
                for fi, ei in self.blocks]

    @property
    def pairing(self):
        out = []
        for bid, (fi, ei) in enumerate(self.blocks):
            for a in fi:
                for b in ei:
                    out.append((a, b, bid))
        return out


def make_pairing(f_basis, e_basis, target_exponent):
    """Pair label groups so each product hits the target; sorted by f label."""
    order = f_basis.order
    blocks = []
    for lab in sorted(set(f_basis.labels)):
        fi = [i for i, l in enumerate(f_basis.labels) if l == lab]
        ei = [i for i, l in enumerate(e_basis.labels)
              if l == (target_exponent - lab) % order]
        if len(fi) != len(ei):
            raise BadPairing(
                f"label {lab}: {len(fi)} f-vectors vs {len(ei)} e-vectors at target {target_exponent}")
        blocks.append((fi, ei))
    return blocks


def make_proto_family(f, e_basis, f_basis, target_exponent, conjugate=False):
    blocks = make_pairing(f_basis, e_basis, target_exponent)
    if conjugate:
        sizes = [len(fi) for fi, _ in blocks]
        if sizes != [1, 1, 1]:
            raise BadPairing(f"conjugate pairing needs three singleton blocks, got {sizes}")
    return ProtoFamily(d=f.d, e_basis=e_basis, f_basis=f_basis, blocks=blocks,
                       target_exponent=target_exponent, conjugate=conjugate,
                       source_table=overlap_phases(f))


def _su2(theta, s0, s1):
    return np.array([
        [np.cos(theta / 2) * np.exp(1j * s0), np.sin(theta / 2) * np.exp(1j * s1)],
        [-np.sin(theta / 2) * np.exp(-1j * s1), np.cos(theta / 2) * np.exp(-1j * s0)]])


def _block_unitary(size, pars, special):
    if size == 1:
        return np.array([[1.0 + 0j]]) if special else np.array([[np.exp(1j * pars[0])]])
    if size == 2:
        U = _su2(pars[0], pars[1], pars[2])
        return U if special else U * np.exp(1j * pars[3])
    raise SicladderError(f"blocks of size {size} not supported")


def block_coefficients(family, params):
    """Per-block coefficient unitaries of a family member.

    The first block is special (det 1, and for size 1 frozen to 1), later
    blocks are full unitaries; with conjugate=True the three singleton
    blocks carry 1, e^{i s}, e^{-i s}.
    """
    params = np.atleast_1d(np.asarray(params, dtype=float))
    if len(params) != family.n_params:
        raise ParamCountMismatch(f"need {family.n_params} parameters, got {len(params)}")
    if family.conjugate:
        s = params[0]
        return [np.array([[c]], dtype=complex)
                for c in (1.0, np.exp(1j * s), np.exp(-1j * s))]
    out, k = [], 0
    for bi, (fi, _) in enumerate(family.blocks):
        n = len(fi)
        take = n * n - 1 if bi == 0 else n * n
        out.append(_block_unitary(n, params[k:k + take], special=(bi == 0)))
        k += take
    return out


def build_proto(family, params):
    """The family member at the given parameters, as a global unit vector.

    Output is V^T applied to the tensor combination of the block
    coefficients with the paired basis vectors, so it lives in global
    C^{d(d-2)} indexing.
    """
    d = family.d
    half = (d - 1) // 2
    psi = np.zeros((d - 2) * d, dtype=complex)
    for U, rows in zip(block_coefficients(family, params), family.kron_rows):
        for c, row in zip(U.flat, rows):
            psi += c * row
    return (psi / np.sqrt(half))[crt_index(d - 2, d)]


def to_tensor(psi, d):
    """Global vector of C^{d(d-2)} as a (d-2) x d coefficient matrix."""
    return crt_to_tensor(np.asarray(psi, dtype=complex), d - 2, d).reshape(d - 2, d)


def from_tensor(A):
    n1, n2 = A.shape
    return A.ravel()[crt_index(n1, n2)]


# ---------------------------------------------------------------------------
# alignment


@dataclass
class AlignmentCertificate:
    passes: bool
    matrix_M: np.ndarray = None
    max_err_phase_condition: float = np.inf  # the -e^{2 i theta} overlaps
    max_err_unit_condition: float = np.inf   # the identically-1 overlaps


def _side_overlaps(M, dim, scale):
    """scale * sum(D_p * M) for every p of Z_dim^2."""
    out = np.empty((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            out[i, j] = scale * np.sum(displacement(dim, i, j) * M)
    return out


def verify_alignment(psi, theta_table, tol=1e-8):
    """Alignment certificate of a unit vector against a source overlap table.

    The unit condition is direct. For the phase condition the reindexing
    matrix M is searched exhaustively over determinant +-1 mod d,
    lexicographically, against the kappa-twisted index (see module
    docstring); the first full match is reported.
    """
    d = theta_table.d
    n1 = d - 2
    psi = np.asarray(psi, dtype=complex)
    if len(psi) != n1 * d:
        raise DimensionMismatch(f"expected a vector of length {n1 * d}")
    A = to_tensor(psi, d)

    small = _side_overlaps((A @ A.conj().T).T, n1, d - 1)
    small[0, 0] = 1.0
    err_unit = float(np.abs(small - 1).max())

    big = _side_overlaps(A.conj().T @ A, d, d - 1)
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
    return AlignmentCertificate(
        passes=bool(err_unit <= tol and found is not None),
        matrix_M=found,
        max_err_phase_condition=err_phase,
        max_err_unit_condition=err_unit)


def embedded_etf(psi, d, tol=1e-8):
    """Orbit of the big-side displacements through psi, with its span rank.

    The d^2 columns (1 (x) D_p) psi span d(d-1)/2 dimensions for aligned
    vectors and restrict to an equiangular tight frame there with squared
    overlap 1/(d-1)^2. Requires the unit condition to hold (the cheap
    alignment gate computable from psi alone).
    """
    n1 = d - 2
    A = to_tensor(psi, d)
    small = _side_overlaps((A @ A.conj().T).T, n1, d - 1)
    small[0, 0] = 1.0
    if not np.abs(small - 1).max() <= tol:
        raise AlignmentRequired("unit-overlap condition fails; not a proto vector")
    g = crt_index(n1, d)
    cols = np.empty((n1 * d, d * d), dtype=complex)
    c = 0
    for i in range(d):
        for j in range(d):
            cols[:, c] = (A @ displacement(d, i, j).T).ravel()[g]
            c += 1
    s = np.linalg.svd(cols, compute_uv=False)
    rank = int(np.sum(s > 1e-8 * s[0]))
    frame = FrameSpec(ambient_dim=n1 * d, n_vectors=d * d, generator=cols,
                      covariance=("big-side displacements", None))
    return frame, rank


def translated_subspaces(psi, d):
    """Spans of (D_q (x) 1) . orbit-span for all q, as orthonormal bases."""
    n1 = d - 2
    frame, _ = embedded_etf(psi, d)
    q, s, _ = np.linalg.svd(frame.generator, full_matrices=False)
    span = q[:, s > 1e-8 * s[0]]
    g = crt_index(n1, d)
    tensor_span = crt_to_tensor(span, n1, d)
    out = []
    for a in range(n1):
        for b in range(n1):
            DD = np.kron(displacement(n1, a, b), np.eye(d))
            out.append((DD @ tensor_span)[g])
    return out
