"""Reference constructions shared by several test files.

The package applies the Chinese-remainder permutation as the index array
heisenberg.crt_index and never forms the matrix, and it keeps a family
member's coefficients as one flat vector; the tests compare against the
matrix and the per-block unitaries.
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
