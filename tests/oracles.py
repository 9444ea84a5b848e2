"""Reference constructions shared by several test files.

The package applies the Chinese-remainder permutation as the index array
heisenberg.crt_index and never forms the matrix, and it keeps a family
member's coefficients as one flat vector; the tests compare against the
matrix and the per-block unitaries.
"""
import functools

import numpy as np

from sicladder import ladder as lad
from sicladder.heisenberg import crt_index


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
