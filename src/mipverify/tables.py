"""Builders for explicit Cayley tables usable as the K factor.

The regular wreath product C_p wr C_p (order p^(p+1)) is the canonical
maximal-class p-group with an abelian maximal subgroup whose nilpotency class
exceeds 2; it is the smallest such example for p = 3 (order 81, class 3).
The ``heisenberg`` built-in, by contrast, has class 2, which matters for the
odd-p invariants: class 2 forces the derived subgroup to be central.
"""

from __future__ import annotations

import numpy as np

from .ambient import GuardExceeded
from .groups import TABLE_BUDGET_BYTES


def wreath_cyclic_table(p: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Cayley table of C_p wr C_p = (C_p)^p : C_p, with a generating pair.

    Elements are (v, j) with v in (Z/p)^p and j in Z/p, multiplied by
    (v1, j1)(v2, j2) = (v1 + shift^j1(v2), j1 + j2) where shift rotates
    coordinates.  Index 0 is the identity; the returned generator pair is
    (top cycle, first base coordinate), which generates the whole group.
    Raises :class:`GuardExceeded` before building anything when the int64
    table would take more than ``TABLE_BUDGET_BYTES``.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    size = p ** (p + 1)
    if size * size * 8 > TABLE_BUDGET_BYTES:
        raise GuardExceeded(
            f"the table of C_{p} wr C_{p} (order {size}) needs "
            f"{size * size * 8} bytes, above the table budget of "
            f"{TABLE_BUDGET_BYTES}")
    # index = (v_0 ... v_(p-1) j) read in base p; digits[:, c] is digit c
    digits = np.stack(np.unravel_index(np.arange(size), (p,) * (p + 1)), axis=1)
    v, j = digits[:, :p], digits[:, p]
    # coordinate idx of v1 + shift^j1(v2) is v1[idx] + v2[(idx - j1) % p]:
    # row i reads v2's coordinate (idx - j1[i]) % p for every column at once
    key = np.zeros((size, size), dtype=np.int64)
    for idx in range(p):
        shifted = v.T[(idx - j) % p]
        key = key * p + (v[:, idx, None] + shifted) % p
    table = key * p + (j[:, None] + j[None, :]) % p
    # sigma = (0, ..., 0; 1) and e0 = (1, 0, ..., 0; 0)
    return table, (1, p ** p)


def semidirect_c9c9_table() -> tuple[np.ndarray, tuple[int, int]]:
    """Cayley table of (C9 x C9) : C3, maximal class of order 3^5.

    The C3 on top acts on (Z/9)^2 by the companion matrix of x^2 + x + 1
    ((i, j) -> (-j, i - j), which has multiplicative order 3).  The result has
    nilpotency class 4 and an abelian maximal subgroup C9 x C9 of exponent 9,
    so cubes of its elements need not be central -- unlike any maximal-class
    group of order p^4 or the wreath product, whose abelian maximal subgroups
    have exponent p.  Generators returned: (top generator, first C9 factor).
    """
    # index = (i * 9 + j) * 3 + e; the (243, 243) intermediates are int16
    # (every value lies in [-16, 242]), a quarter of their int64 size
    i, j, e = (a.astype(np.int16)
               for a in np.unravel_index(np.arange(243), (9, 9, 3)))
    companion = np.array([[0, -1], [1, -1]], dtype=np.int16)
    powers = np.stack([np.linalg.matrix_power(companion, r) for r in range(3)])
    # (v1, e1)(v2, e2) = (v1 + act^e1(v2), e1 + e2), with act^e1 the matrix
    # power picked by every row and applied to every column's v2
    acted = np.einsum("arc,cb->rab", powers[e], np.stack([i, j]))
    i3 = (i[:, None] + acted[0]) % 9
    j3 = (j[:, None] + acted[1]) % 9
    table = (i3 * 9 + j3) * 3 + (e[:, None] + e[None, :]) % 3
    # t = (0, 0; 1) and a = (1, 0; 0)
    return table.astype(np.int64), (1, 27)


__all__ = ["wreath_cyclic_table", "semidirect_c9c9_table"]
