"""The dimension ladder d -> d(d-2): symmetric-subspace lift, generalized
parity, paired labeled eigenbases, proto families, alignment checking, and
certificate_rows, the print-free rows of `sicladder verify`.

Conventions. The big space C^{d(d-2)} is identified with C^{d-2} (x) C^d by
the Chinese-remainder permutation V, applied as the index array
crt_index(d-2, d); every vector this module hands out publicly lives in the
global (unpermuted) indexing, so plain displacement operators of dimension
d(d-2) act on it directly. A proto vector is

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
It takes all coefficients from one set of ufunc calls (np.cos, np.sin and
exp(1j x) over arrays match their scalar calls bit for bit) and sums them
against ProtoFamily.rows row by row. Those rows must be C-contiguous: the
column gather R[:, g] is F-contiguous, and np.add.reduce(axis=0) over it
sums in another order (3000 of 3000 random N=195 samples changed bits).
"""
import functools
from dataclasses import dataclass

import numpy as np

from .clifford import (eigenspace_basis, fix_phase_principal,
                       fix_phase_to_table, parity_operator, symplectic_unitary)
from .errors import SicladderError
from .fiducials import (_table_image, _table_maps, detect_scalar_symmetry,
                        overlap_phases, two_design_deviation, verify_sic)
from .frames import check_tight, covariant_generator, restrict_to_span
from .heisenberg import (_phase_gather, crt_index, crt_to_tensor, wh_orbit,
                         wh_traces)
from .linalg import eig_unitary, phase_fix_columns


def h_conjugate(F, d):
    """H^{-1} F H mod d for H = diag(1, 2^{-1}); conjugation by H moves
    symmetries across the lift."""
    h = (d + 1) // 2
    Hinv = np.array([[1, 0], [0, 2]])
    H = np.array([[1, 0], [0, h]])
    return (Hinv @ (np.asarray(F, dtype=int) % d) @ H) % d


# ---------------------------------------------------------------------------
# symmetric-subspace machinery


def lift_fiducial(f):
    """Blocks of the doubled fiducial sqrt((d+1)/2) |psi> (x) |psi> over the
    (d+1)/2 symmetric blocks of C^d (x) C^d, as the rows of a ((d+1)/2, d)
    array.

    Basis pairs (u, v) with v - u = x are relabeled (x, i) by u = x(d-1)/2
    + i, and block x >= 1 is the symmetric combination of the pairs at x and
    -x, so its entry i is sqrt(2) psi_u psi_v (block 0 has psi_i^2). In
    that basis D_{Hp} (x) D_{Hp} acts as D_p on every block alike. The
    blocks are orthonormal exactly when psi is a SIC fiducial; psi (x) psi is
    symmetric, so the antisymmetric blocks vanish identically.
    """
    if not verify_sic(f, tol=1e-8):
        raise SicladderError("lift requires a verified SIC fiducial")
    d, psi = f.d, np.asarray(f.vector, dtype=complex)
    half, kap = (d - 1) // 2, (d + 1) // 2
    x, i = np.arange(kap)[:, None], np.arange(d)
    c = np.where(x == 0, 1.0, np.sqrt(2))
    L = np.sqrt(kap) * c * psi[(x * half + i) % d] * psi[(x * kap + i) % d]
    dev = np.abs(L.conj() @ L.T - np.eye(kap)).max()
    if not dev <= 1e-8:
        raise SicladderError(f"lift blocks deviate from orthonormality by {dev:.3e}")
    return L


def _lift_reflection(f):
    """2 B B^dag - 1 for B the lift blocks as columns: the reflection that
    is +1 on their span and -1 on its complement."""
    B = lift_fiducial(f).T
    return 2 * (B @ B.conj().T) - np.eye(f.d)


@dataclass
class GeneralizedParity:
    matrix: np.ndarray
    dual_deviation: float = 0.0


def generalized_parity(f):
    """The involution (1/d) sum_p e^{2 i theta_{Hp}} D_{-p}, certified twice.

    The phase-sum route and the lift route (_lift_reflection) must agree
    to 1e-9; their maximum deviation is recorded on the result.
    """
    d = f.d
    table = overlap_phases(f)
    h = (d + 1) // 2
    P = np.zeros((d, d), dtype=complex)
    s = np.arange(d)
    for i in range(d):
        for j in range(d):
            dest, ph = _phase_gather(d, -i % d, -j % d)
            P[dest, s] += (table.phases[i, (h * j) % d] ** 2) * ph
    P /= d
    dev = float(np.abs(P - _lift_reflection(f)).max())
    if not dev <= 1e-9:
        raise SicladderError(f"generalized-parity routes disagree by {dev:.3e}")
    return GeneralizedParity(matrix=P, dual_deviation=dev)


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
    except SicladderError:
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


def _fix_involution(R):
    # square must be a scalar phase within 1e-7; divide by its principal root
    n = R.shape[0]
    S = R @ R
    c = complex(np.trace(S)) / n
    if not (abs(abs(c) - 1) <= 1e-7 and np.abs(S - c * np.eye(n)).max() <= 1e-7):
        raise SicladderError("square of the restricted involution is not a scalar phase")
    return R * np.exp(-0.5j * np.angle(c))


def _restricted_basis(B, U3, US=None):
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
            if not dev <= 1e-7:
                raise SicladderError(f"{name} symmetry does not preserve the subspace ({dev:.3e})")
        RS = _fix_involution(RS)
        comm = np.abs(R @ RS - RS @ R).max()
        if not comm <= 1e-7:
            raise SicladderError(f"restricted symmetries do not commute ({comm:.3e})")
        R, order = R @ RS, 6
    dec = eig_unitary(R, tol=1e-7)
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
        raise SicladderError(
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
    conjugate: bool = False

    @property
    def block_sizes(self):
        return [len(fi) for fi, _ in self.blocks]

    @property
    def n_params(self):
        return self.coefficient_plan[-1]

    @functools.cached_property
    def scale(self):
        """sqrt((d-1)/2), the norm build_proto divides by."""
        return np.sqrt((self.d - 1) // 2)

    @functools.cached_property
    def rows(self):
        """The rows kron(f_a, e_b) of every block in coefficient order (a
        slow, b fast), gathered into global indexing; C-contiguous and
        read-only (see the module docstring)."""
        fv, ev = self.f_basis.vectors, self.e_basis.vectors
        R = np.array([np.kron(fv[:, a], ev[:, b])
                      for fi, ei in self.blocks for a in fi for b in ei])
        R = np.ascontiguousarray(R[:, crt_index(self.d - 2, self.d)])
        R.setflags(write=False)
        return R

    @functools.cached_property
    def coefficient_plan(self):
        """The parameter layout and the index arrays of _coefficient_vector,
        built once per family: (arg, mult, polar, su2, scale, scaled,
        n_params). The one place that reads the layout off the block sizes:
        params[polar] are the SU(2) angles, each followed by its block's two
        diagonal phases, and every other parameter is a phase.
        exp(params[arg] * mult) is each coefficient's phase factor (mult 0: a
        special singleton's frozen 1). The size-2 entries su2, by position in
        the block, take (cos, sin, -sin, cos) of the half angles
        params[polar]; those scaled of non-special blocks take the U(2) phase
        exp(1j params[scale])."""
        if self.conjugate:
            none = np.zeros(0, dtype=np.intp)
            return (np.zeros(3, dtype=np.intp), np.array([0, 1j, -1j]),
                    none, none, none, none, 1)
        arg, mult, polar, su2, scale, scaled = [], [], [], [], [], []
        k = 0
        for bi, s in enumerate(self.block_sizes):
            o = len(arg)
            if s == 1:
                arg.append(k)
                mult.append(1j if bi else 0)
            elif s == 2:
                polar.append(k)
                su2.append(o)
                arg += [k + 1, k + 2, k + 2, k + 1]
                mult += [1j, 1j, -1j, -1j]
                if bi:
                    scale += [k + 3] * 4
                    scaled += range(o, o + 4)
            else:
                raise SicladderError(f"blocks of size {s} not supported")
            k += s * s - (bi == 0)
        su2 = [o + t for t in range(4) for o in su2]
        return (np.array(arg), np.array(mult, dtype=complex),
                *(np.array(x, dtype=np.intp) for x in (polar, su2, scale, scaled)), k)


def make_pairing(f_basis, e_basis, target_exponent):
    """Pair label groups so each product hits the target; sorted by f label."""
    order = f_basis.order
    blocks = []
    for lab in sorted(set(f_basis.labels)):
        fi = [i for i, l in enumerate(f_basis.labels) if l == lab]
        ei = [i for i, l in enumerate(e_basis.labels)
              if l == (target_exponent - lab) % order]
        if len(fi) != len(ei):
            raise SicladderError(
                f"label {lab}: {len(fi)} f-vectors vs {len(ei)} e-vectors at target {target_exponent}")
        blocks.append((fi, ei))
    return blocks


def make_proto_family(f, e_basis, f_basis, target_exponent, conjugate=False):
    fam = ProtoFamily(d=f.d, e_basis=e_basis, f_basis=f_basis,
                      blocks=make_pairing(f_basis, e_basis, target_exponent),
                      conjugate=conjugate)
    if conjugate and fam.block_sizes != [1, 1, 1]:
        raise SicladderError(
            f"conjugate pairing needs three singleton blocks, got {fam.block_sizes}")
    return fam


def _coefficient_vector(family, params):
    """The block unitaries of a family member, flattened row-major and
    concatenated: every coefficient at once, from the same ufunc calls as
    one SU(2) or U(1) block at a time (see the module docstring)."""
    params = np.asarray(params, dtype=float)
    arg, mult, polar, su2, scale, scaled, n = family.coefficient_plan
    if params.shape != (n,):
        raise SicladderError(f"need {n} parameters, got {params.size}")
    co = np.exp(params[arg] * mult)
    if len(polar):
        h = params[polar] / 2
        c, s = np.cos(h), np.sin(h)
        co[su2] = np.concatenate((c, s, -s, c)) * co[su2]
        if len(scaled):
            co[scaled] = co[scaled] * np.exp(params[scale] * 1j)
    return co


def canonical_params(family, params):
    """params wrapped into [0, 2pi), each SU(2) angle theta > pi reflected
    to 2pi - theta and the phase alpha after it advanced by pi.

    The vector is unchanged: the half angle goes to pi - h, so c = cos h
    turns into -c while sin h stays, and c multiplies e^{+-i alpha}; c -> -c
    together with alpha -> alpha + pi leaves the block the same.
    """
    p = np.array(params, dtype=float) % (2 * np.pi)
    polar = family.coefficient_plan[2]
    k = polar[p[polar] > np.pi]
    p[k] = 2 * np.pi - p[k]
    p[k + 1] = (p[k + 1] + np.pi) % (2 * np.pi)
    return p


def build_proto(family, params):
    """The family member at the given parameters, as a global unit vector:
    the coefficients times the stacked rows, summed row by row in
    coefficient order."""
    co = _coefficient_vector(family, params)
    return np.add.reduce(co[:, None] * family.rows, axis=0, initial=0j) / family.scale


def to_tensor(psi, d):
    """Global vector of C^{d(d-2)} as a (d-2) x d coefficient matrix."""
    return crt_to_tensor(np.asarray(psi, dtype=complex), d - 2, d).reshape(d - 2, d)


# ---------------------------------------------------------------------------
# alignment


@dataclass
class AlignmentCertificate:
    passes: bool
    matrix_M: np.ndarray = None
    max_err_phase_condition: float = np.inf  # the -e^{2 i theta} overlaps
    max_err_unit_condition: float = np.inf   # the identically-1 overlaps


def _unit_condition_error(A, d):
    """Max deviation of (d-1) <Psi| D_q (x) 1 |Psi> from 1 over q != 0,
    for Psi given as its (d-2) x d tensor A."""
    small = (d - 1) * wh_traces(A @ A.conj().T)
    small[0, 0] = 1.0
    return float(np.abs(small - 1).max())


def verify_alignment(psi, theta_table, tol=1e-8):
    """Alignment certificate of a unit vector against a source overlap table.

    The unit condition is direct. For the phase condition the big-side
    overlaps at (1, 0) and (0, 1) are matched against the targets
    -e^{2 i theta} (fiducials._table_maps). The condition reads
    M (kappa i, j), which is F (i, j) for the matched F, so M is F with its
    first column scaled by kappa^{-1} mod d. Candidates with M of
    determinant +-1 mod d are checked with F on every p != 0 and the
    lexicographically smallest full match M is reported.
    """
    d = theta_table.d
    n1 = d - 2
    psi = np.asarray(psi, dtype=complex)
    if len(psi) != n1 * d:
        raise SicladderError(f"expected a vector of length {n1 * d}")
    A = to_tensor(psi, d)
    err_unit = _unit_condition_error(A, d)

    big = (d - 1) * wh_traces(A.T @ A.conj())
    targets = -(theta_table.phases ** 2)
    mask = np.ones((d, d), dtype=bool)
    mask[0, 0] = False

    found, err_phase = None, np.inf
    kappa_inv = pow((d - 1) // 2, -1, d)
    for F in _table_maps(big, targets, tol):
        M = (F * [[kappa_inv, 1]]) % d
        det = (M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]) % d
        if det != 1 and det != d - 1:
            continue
        err = np.abs(big - _table_image(targets, F))[mask].max()
        if err <= tol and (found is None or tuple(M.ravel()) < tuple(found.ravel())):
            found, err_phase = M, float(err)
    return AlignmentCertificate(
        passes=bool(err_unit <= tol and found is not None),
        matrix_M=found,
        max_err_phase_condition=err_phase,
        max_err_unit_condition=err_unit)


def embedded_etf(psi, d):
    """Orbit of the big-side displacements through psi.

    The d^2 columns (1 (x) D_p) psi, in global indexing, span d(d-1)/2
    dimensions for aligned vectors and restrict to an equiangular tight
    frame there with squared overlap 1/(d-1)^2; frames.restrict_to_span
    gives the span. Requires the unit condition to hold within 1e-8 (the
    cheap alignment gate computable from psi alone).
    """
    n1 = d - 2
    A = to_tensor(psi, d)
    if not _unit_condition_error(A, d) <= 1e-8:
        raise SicladderError("unit-overlap condition fails; not a proto vector")
    return covariant_generator(A, d)[crt_index(n1, d)]


def translated_subspaces(psi, d):
    """Spans of (D_q (x) 1) . orbit-span for all q, as orthonormal bases."""
    n1 = d - 2
    span, _ = restrict_to_span(embedded_etf(psi, d))
    r = span.shape[1]
    # D_q acts on the slow tensor index: orbit the span's (d r) columns in C^{n1}
    orbit = wh_orbit(crt_to_tensor(span, n1, d).reshape(n1, d * r).T)
    g = crt_index(n1, d)
    return [Y.T.reshape(n1 * d, r)[g] for Y in orbit]


# ---------------------------------------------------------------------------
# certificate rows

PASS_TOL = 1e-8  # a row passes when its error is at most this


def equator_geometry_check(solutions, generator, d):
    """The three solutions of a branch sit equidistantly and are permuted
    by the branch's own order-3 generator F of the small factor.

    True iff all pairwise Fubini-Study distances agree within 1e-8 and
    U_F (x) 1 cyclically permutes the three rays within 1e-8.
    """
    if len(solutions) != 3:
        raise SicladderError(f"expected 3 solutions, got {len(solutions)}")
    sols = [np.asarray(s, dtype=complex) for s in solutions]
    dists = [np.arccos(min(1.0, abs(np.vdot(sols[a], sols[b]))))
             for a, b in ((0, 1), (0, 2), (1, 2))]
    if max(dists) - min(dists) > 1e-8:
        return False
    U = symplectic_unitary(generator, d - 2)
    g = crt_index(d - 2, d)
    # the rays each image matches: one apiece, and not each its own
    perm = [[j for j, q in enumerate(sols) if abs(np.vdot(q, img)) > 1 - 1e-8]
            for img in ((U @ to_tensor(s, d)).ravel()[g] for s in sols)]
    return sorted(perm) == [[0], [1], [2]] and perm != [[0], [1], [2]]


def _etf_frame(generator, d):
    """The span width of a frame, and its deviation, restricted to that
    span, from a tight frame with common overlap^2 1/(d-1)^2."""
    span, coords = restrict_to_span(generator)
    cert = check_tight(coords)
    return span.shape[1], max(cert.max_deviation,
                              abs(cert.common_overlap_sq - 1.0 / (d - 1) ** 2))


def _vector_rows(f, source, levels, prefix):
    explicit = len(levels) == 1
    rows = []
    if "sic" in levels:
        rows.append((prefix + "sic", overlap_phases(f).defect, None))
    if "design" in levels:
        rows.append((prefix + "design", two_design_deviation(f), None))
    if "alignment" in levels:
        if source is None:
            if explicit:
                raise SicladderError(
                    "alignment verification needs a file with an embedded source")
        else:
            try:
                cert = verify_alignment(f.vector, overlap_phases(source), tol=PASS_TOL)
            except SicladderError:
                cert = AlignmentCertificate(passes=False)
            err = max(cert.max_err_unit_condition, cert.max_err_phase_condition)
            rows.append((prefix + "alignment", err, cert.matrix_M))
    if "etf" in levels:
        # N = d(d-2) has the integer solution d = 1 + sqrt(N+1) when it exists
        r = int(round(np.sqrt(f.d + 1)))
        if r * r != f.d + 1 or r < 2:
            if explicit:
                raise SicladderError(
                    f"dimension {f.d} is not of the laddered form d(d-2)")
        else:
            d = 1 + r
            try:
                rank, err = _etf_frame(embedded_etf(f.vector, d), d)
                rank_err = float(abs(rank - d * (d - 1) // 2))
            except SicladderError:
                rank_err = err = np.inf
            rows += [(prefix + "etf-rank", rank_err, None), (prefix + "etf-frame", err, None)]
    return rows


def certificate_rows(f, source, branches, levels):
    """The rows of `sicladder verify`, as records (name, error, passed, M),
    with M the alignment reindexing matrix or None. Prints nothing.

    f: a stored fiducial or None; source: the fiducial it (or the climb
    report) was climbed from, or None; branches: a climb report's
    (generator, solutions) pairs. A level of levels that does not apply to
    a vector is skipped, or an error when it is the only level asked for.
    A kernel that refuses its input fails its row with error inf.
    """
    rows = [] if f is None else _vector_rows(f, source, levels, "")
    for bi, (generator, sols) in enumerate(branches):
        for si, s in enumerate(sols):
            rows += _vector_rows(s, source, levels, f"branch{bi}-sic{si}:")
        if "alignment" in levels and len(sols) == 3:
            # three solutions of one branch: an orbit of the branch's
            # small-side generator, equidistant on the family's equator
            try:
                held = equator_geometry_check([s.vector for s in sols], generator, source.d)
            except SicladderError:
                held = False
            rows.append((f"branch{bi}:equator", 0.0 if held else np.inf, None))
    if "etf" in levels and source is not None:
        # the source's side of the embedded ETF: the Naimark complement of its
        # lift blocks, the orbit of the -1 eigenspace of their reflection; a
        # source that is not a SIC fails the row
        try:
            comp = eigenspace_basis(_lift_reflection(source), -1.0)
            err = _etf_frame(covariant_generator(comp.T, source.d), source.d)[1]
        except SicladderError:
            err = np.inf
        rows.append(("etf-naimark", err, None))
    return [(name, err, err <= PASS_TOL, M) for name, err, M in rows]
