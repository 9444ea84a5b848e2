"""Weyl-Heisenberg group in odd dimension d.

Conventions, used consistently everywhere:

    omega = exp(2 pi i / d),   tau = -exp(i pi / d) = omega^((d+1)/2)

    (D_{i,j})[r, s] = tau^(i j + 2 j s) delta_{r, s+i}   (indices mod d)

so D_{0,0} = 1, D_{1,0} = X (cyclic shift), D_{0,1} = Z = diag(omega^s),
D_p is unitary and D_p^dagger = D_{-p}. Exponents of tau live mod 2d. The
product of D_p D_q D_p^dag D_q^dag is the scalar omega^(j_p i_q - i_p j_q);
that exponent is determined numerically by weyl_commutation_check, never
assumed.

Tensor products are row major (left factor slow), matching numpy.kron; the
Chinese-remainder permutation V maps the global index r to the tensor index
(r mod n1, r mod n2) and satisfies V D^(n1 n2)_p V^dag = D_{p'} (x) D_{p''}
with global phase +1; the code applies V as the index array of crt_index,
never as a matrix.

Kernel rewrites must return bit-identical arrays, not merely close ones:
the searches are Nelder-Mead runs, which turn a one-ulp change in the
objective into a different restart history. Keep the arithmetic operation
for operation (same products, same summation order) and check new code
against the old with np.array_equal. Pitfalls: numpy multiplies in place
into a large temporary (over 256 KiB), so `a * (b * c)` can round
differently from the same product on a named array; np.abs over an array
(SIMD hypot) differs from scalar abs in about a third of random complex
values, so absolute values in the searches stay scalar; a reduction over
an F-contiguous array sums in another order (see the ladder module); and
np.vecdot(psi, stack) calls zdotc per row, matching np.vdot row by row,
while stack @ conj(psi) is a zgemv and sums in another order. One
np.fft.ifft(rows, axis=-1) over a (d, d) array matches d one-row calls bit
for bit, but its product with the phase table must be taken on a named
array: in ph * (ifft(rows) * d) numpy reuses the large temporary and
multiplies into it in place, which changed the last bit at d = 195. Real
squares and differences taken in place (out=) round as fresh arrays do,
which the defect uses; conjugating before a gather equals conjugating
after it.
The gather tables of displaced_vector are cached on the raw (i, j): tau^d
= 1, yet t[k + d] and t[k] differ in the last bit, so reducing i or j mod d
would change the phase row.
"""
import functools

import numpy as np

from .errors import SicladderError


def _check_dim(d):
    if d < 3 or d % 2 == 0:
        raise SicladderError(f"odd dimension >= 3 required, got {d}")


def omega(d):
    return np.exp(2j * np.pi / d)


def tau(d):
    return -np.exp(1j * np.pi / d)


@functools.lru_cache(maxsize=None)
def tau_powers(d):
    """tau^k for k = 0 .. 2d-1, as a read-only array."""
    t = tau(d) ** np.arange(2 * d)
    t.setflags(write=False)
    return t


def _phase_gather(d, i, j):
    """(dest, ph) with (D_{i,j} psi)[dest] = ph * psi: dest[s] = s + i and
    ph[s] = tau^(ij + 2js), taken from tau_powers as given (unreduced i, j)."""
    t = tau_powers(d)
    s = np.arange(d)
    return (s + i) % d, t[(i * j + 2 * j * s) % (2 * d)]


@functools.lru_cache(maxsize=4096)
def displacement(d, i, j):
    """The d x d displacement matrix D_{i,j}. Cached and read-only."""
    _check_dim(d)
    dest, ph = _phase_gather(d, i % d, j % d)
    M = np.zeros((d, d), dtype=complex)
    M[dest, np.arange(d)] = ph
    M.setflags(write=False)
    return M


@functools.lru_cache(maxsize=1024)
def _displacement_gather(d, pairs):
    """(src, ph), each (k, d), with (D_p psi)[r] = ph[r] * psi[src[r]] for
    the k pairs p = (i, j). Keyed on the raw pairs: see the module docstring."""
    src = np.array([(np.arange(d) - i) % d for i, _ in pairs])
    ph = np.array([_phase_gather(d, i, j)[1][r] for (i, j), r in zip(pairs, src)])
    src.setflags(write=False)
    ph.setflags(write=False)
    return src, ph


def displaced_vector(psi, pairs):
    """The (k, d) stack of D_p psi over a tuple of k pairs p = (i, j),
    without forming the matrices."""
    src, ph = _displacement_gather(len(psi), pairs)
    moved = psi[src]   # named, so the product is not done in place
    return ph * moved


def wh_orbit(psi):
    """All d^2 orbit vectors D_p psi, p lexicographic in (i, j): a (d^2, d)
    array for one vector, a (d^2, k, d) array for a (k, d) stack of them.
    One product per shift i, by the phase block ph[j, s] = tau^(ij + 2js)."""
    psi = np.asarray(psi)
    d = psi.shape[-1]
    V, r = np.atleast_2d(psi), np.arange(d)
    out = np.empty((d * d,) + V.shape, dtype=complex)
    for i in range(d):
        ph = tau_powers(d)[(r[:, None] * (i + 2 * r)) % (2 * d)]
        out[i * d:(i + 1) * d][..., (r + i) % d] = ph[:, None] * V
    return out.reshape((d * d,) + psi.shape)


@functools.lru_cache(maxsize=16)
def _diagonal_tables(d):
    """(idx, ph), each (d, d) and read-only: the cyclic-diagonal gather
    idx[i, s] = (s + i) mod d and the phase ph[i, j] = tau^(ij)."""
    r = np.arange(d)
    idx, ph = (r + r[:, None]) % d, tau_powers(d)[(r[:, None] * r) % (2 * d)]
    for a in (idx, ph):
        a.setflags(write=False)
    return idx, ph


def _diagonal_transform(rows):
    """out[i, j] = tau^(ij) sum_s rows[i, s] omega^(js) for a (d, d) array:
    one inverse FFT along the last axis, equal bit for bit to one call per
    row. With rows[i, s] = X[s, s+i] this is tr(D_{i,j} X)."""
    f = np.fft.ifft(rows, axis=-1) * len(rows)   # named: see the module docstring
    return _diagonal_tables(len(rows))[1] * f


def wh_traces(X):
    """The trace table tr(D_{i,j} X) of a d x d matrix X, by FFT along its
    cyclic diagonals. For X = |psi><psi| it is overlap_table(psi)."""
    d = len(X)
    return _diagonal_transform(X[np.arange(d), _diagonal_tables(d)[0]])


def overlap_table(psi):
    """All overlaps <psi|D_{i,j}|psi> as a d x d array, computed by FFT.

    <psi|D_{i,j}|psi> = tau^(ij) sum_s conj(psi_{s+i}) psi_s omega^(js),
    the diagonal transform of the rows conj(psi)[idx] * psi: the conjugate
    is taken before the gather, on d entries rather than d^2, which is exact.
    """
    return _diagonal_transform(np.conj(psi)[_diagonal_tables(len(psi))[0]] * psi)


def weyl_commutation_check(d):
    """True iff ZX = omega XZ, X^d = Z^d = 1, and every D_p D_q D_p^dag D_q^dag
    is the scalar omega^<p,q> for a single bilinear form <p,q>, all within
    1e-12 (the scalar tests within 1e-11 d).

    The symplectic-form exponent is fitted from the computed scalars and then
    verified against all pairs, not assumed.
    """
    _check_dim(d)
    tol = 1e-12
    w = omega(d)
    X = displacement(d, 1, 0)
    Z = displacement(d, 0, 1)
    if np.abs(Z @ X - w * X @ Z).max() > tol:
        return False
    if np.abs(np.linalg.matrix_power(X, d) - np.eye(d)).max() > tol:
        return False
    if np.abs(np.linalg.matrix_power(Z, d) - np.eye(d)).max() > tol:
        return False

    Ds = np.stack([displacement(d, i, j) for i in range(d) for j in range(d)])
    scal = np.empty((d * d, d * d), dtype=complex)
    for a in range(d * d):
        A = Ds[a]
        AB = np.einsum("ij,qjk->qik", A, Ds)
        ABAd = AB @ A.conj().T
        E = np.einsum("qik,qjk->qij", ABAd, Ds.conj())
        # scalar matrix: all diagonal entries equal, off-diagonal zero
        off = np.abs(E - E[:, 0, 0][:, None, None] * np.eye(d)).max()
        if off > 10 * tol * d:
            return False
        scal[a] = E[:, 0, 0]
    # fit the exponent from the (1,0) x (0,1) pair and verify bilinearity
    exps = np.round(np.angle(scal) / (2 * np.pi / d)).astype(int) % d
    idx = np.arange(d * d)
    ip, jp = idx // d, idx % d
    predicted = (jp[:, None] * ip[None, :] - ip[:, None] * jp[None, :]) % d
    if not np.array_equal(exps, predicted):
        return False
    return bool(np.abs(scal - w ** predicted).max() <= 10 * tol * d)


@functools.lru_cache(maxsize=16)
def crt_index(n1, n2):
    """Index array g with g[r] = n2*(r mod n1) + (r mod n2).

    Realizes the ring isomorphism Z_{n1 n2} -> Z_{n1} x Z_{n2}: the global
    index r sits at the row-major tensor index g[r]. This is the CRT
    permutation V with V[g[r], r] = 1, which the package never forms:
    V.T @ x is the gather x[g] and V @ y is the scatter out[g] = y (see
    crt_to_tensor); both are exact, where a matmul by V would cost O(N^2).
    Cached and read-only.
    """
    if np.gcd(n1, n2) != 1:
        raise SicladderError(f"gcd({n1},{n2}) != 1")
    r = np.arange(n1 * n2)
    g = n2 * (r % n1) + r % n2
    g.setflags(write=False)
    return g


def crt_to_tensor(x, n1, n2):
    """V @ x for the CRT permutation V: moves the rows of x (a vector, or a
    matrix of column vectors) from global to tensor order. The inverse,
    V.T @ y, is the gather y[crt_index(n1, n2)].
    """
    x = np.asarray(x)
    out = np.empty_like(x)
    out[crt_index(n1, n2)] = x
    return out


def crt_split_index(p, n1, n2):
    """Split a displacement index of dimension n1*n2 into tensor factor indices.

    Returns (p', p'') with V D^(n1 n2)_p V^dag = D^(n1)_{p'} (x) D^(n2)_{p''},
    global phase +1. The shift component follows the residues; the clock
    component picks up the inverse of the complementary modulus.
    """
    if np.gcd(n1, n2) != 1:
        raise SicladderError(f"gcd({n1},{n2}) != 1")
    i, j = p
    q1 = pow(n2, -1, n1) if n1 > 1 else 0
    q2 = pow(n1, -1, n2) if n2 > 1 else 0
    return (i % n1, (q1 * j) % n1), (i % n2, (q2 * j) % n2)


def crt_split_certificate(n1, n2):
    """Max deviation of V D_p V^dag from D_{p'} (x) D_{p''} over every index
    p. Returns (max_err, max_phase_dev) where max_phase_dev measures how far
    the implied global phase is from +1.
    """
    g = crt_index(n1, n2)
    N = n1 * n2
    max_err = 0.0
    max_ph = 0.0
    for p in np.ndindex(N, N):
        lhs = np.empty((N, N), dtype=complex)
        lhs[np.ix_(g, g)] = displacement(N, *p)   # V D_p V^T
        pa, pb = crt_split_index(p, n1, n2)
        rhs = np.kron(displacement(n1, *pa), displacement(n2, *pb))
        max_err = max(max_err, np.abs(lhs - rhs).max())
        k = np.unravel_index(np.argmax(np.abs(rhs)), rhs.shape)
        max_ph = max(max_ph, abs(lhs[k] / rhs[k] - 1.0))
    return max_err, max_ph
