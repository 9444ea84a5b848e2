"""Reference constructions shared by several test files.

The package applies the Chinese-remainder permutation as the index array
heisenberg.crt_index and never forms the matrix, and it keeps a family
member's coefficients as one flat vector; the tests compare against the
matrix and the per-block unitaries. Its 2-design certificate reads the
trace table of psi psi^T; the tests compare against the dense doubled frame
operator and, above d of about 35 where that is out of reach, against the
fourth-moment table route.
"""
import functools

import numpy as np

from sicladder import ladder as lad
from sicladder.heisenberg import crt_index, wh_orbit


@functools.lru_cache(maxsize=16)
def crt_permutation(n1, n2):
    """Permutation matrix V with V[n2*(r mod n1) + (r mod n2), r] = 1.

    V D^(n1 n2)_p V^dag is a pure tensor for every p. Cached; treat the
    result as read-only.
    """
    g = crt_index(n1, n2)
    V = np.zeros((len(g), len(g)))
    V[g, np.arange(len(g))] = 1.0
    V.setflags(write=False)
    return V


def coefficient_blocks(family, params):
    """Per-block coefficient unitaries of a family member, as views of the
    flat vector ladder._coefficient_vector, in block order."""
    co, sizes = lad._coefficient_vector(family, params), family.block_sizes
    ends = np.cumsum([n * n for n in sizes])
    assert ends[-1] == len(co)
    return [co[e - n * n:e].reshape(n, n) for n, e in zip(sizes, ends)]


def two_design_deviation_dense(v):
    """Max deviation of the orbit's doubled frame operator V2^T conj(V2),
    formed as a d^2 x d^2 matrix, from (2d/(d+1)) Pi_sym, with the swap
    built as a dense permutation."""
    v = np.asarray(v, dtype=complex)
    d = len(v)
    orb = wh_orbit(v)
    V2 = np.einsum("Ia,Ib->Iab", orb, orb).reshape(d * d, d * d)
    S2 = V2.T @ V2.conj()
    swap = np.zeros((d * d, d * d))
    r, s = np.divmod(np.arange(d * d), d)
    swap[s * d + r, np.arange(d * d)] = 1.0
    sym_proj = (np.eye(d * d) + swap) / 2
    return float(np.abs(S2 - 2 * d / (d + 1) * sym_proj).max())


def two_design_deviation_table(v):
    """The same deviation from the fourth-moment table
    G[k,l] = sum_t v_t v_{t+k} conj(v_{t+l} v_{t+k-l}), by a (d, d, d)
    gather: S2[(a,b),(c,e)] = d [a+b = c+e mod d] G[b-a, c-a], where
    (2d/(d+1)) Pi_sym is d/(d+1) (delta_{l,0} + delta_{k,l}) and both vanish
    elsewhere. Any v, any d; d^3 memory."""
    v = np.asarray(v, dtype=complex)
    d = len(v)
    r = np.arange(d)
    idx = (r + r[:, None]) % d                # idx[k, t] = (t + k) mod d
    P = v * v[idx]                            # P[k, t] = v_t v_{t+k}
    rows = idx[:, (-2 * r) % d]               # rows[k, l] = (k - 2l) mod d
    G = np.einsum("kt,klt->kl", P, P.conj()[rows[:, :, None], idx])
    sym2 = np.eye(d) + np.eye(d)[:1]          # delta_{k,l} + delta_{l,0}
    return float(np.abs(d * G - d / (d + 1) * sym2).max())
