"""Builders for explicit Cayley tables usable as the K factor.

The regular wreath product C_p wr C_p (order p^(p+1)) is the canonical
maximal-class p-group with an abelian maximal subgroup whose nilpotency class
exceeds 2; it is the smallest such example for p = 3 (order 81, class 3).
The ``heisenberg`` built-in, by contrast, has class 2, which matters for the
odd-p invariants: class 2 forces the derived subgroup to be central.
"""

from __future__ import annotations

from itertools import product as iter_product

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
    elems = [v + (j,) for v in iter_product(range(p), repeat=p) for j in range(p)]
    index = {e: i for i, e in enumerate(elems)}
    table = np.empty((size, size), dtype=np.int64)
    for i, e1 in enumerate(elems):
        v1, j1 = e1[:p], e1[p]
        for jdx, e2 in enumerate(elems):
            v2, j2 = e2[:p], e2[p]
            w = tuple((v1[idx] + v2[(idx - j1) % p]) % p for idx in range(p))
            table[i, jdx] = index[w + ((j1 + j2) % p,)]
    sigma = index[(0,) * p + (1,)]
    e0 = index[(1,) + (0,) * (p - 1) + (0,)]
    return table, (sigma, e0)


def semidirect_c9c9_table() -> tuple[np.ndarray, tuple[int, int]]:
    """Cayley table of (C9 x C9) : C3, maximal class of order 3^5.

    The C3 on top acts on (Z/9)^2 by the companion matrix of x^2 + x + 1
    ((i, j) -> (-j, i - j), which has multiplicative order 3).  The result has
    nilpotency class 4 and an abelian maximal subgroup C9 x C9 of exponent 9,
    so cubes of its elements need not be central -- unlike any maximal-class
    group of order p^4 or the wreath product, whose abelian maximal subgroups
    have exponent p.  Generators returned: (top generator, first C9 factor).
    """
    elems = [(i, j, e) for i in range(9) for j in range(9) for e in range(3)]
    index = {v: i for i, v in enumerate(elems)}

    def act(i: int, j: int, e: int) -> tuple[int, int]:
        # companion-matrix action applied e times
        for _ in range(e % 3):
            i, j = -j % 9, (i - j) % 9
        return i, j

    size = len(elems)
    table = np.empty((size, size), dtype=np.int64)
    for a, (i1, j1, e1) in enumerate(elems):
        for b, (i2, j2, e2) in enumerate(elems):
            # (v1, e1)(v2, e2) = (v1 + act^e1(v2), e1 + e2)
            i3, j3 = act(i2, j2, e1)
            table[a, b] = index[((i1 + i3) % 9, (j1 + j3) % 9, (e1 + e2) % 3)]
    t = index[(0, 0, 1)]
    a = index[(1, 0, 0)]
    return table, (t, a)


__all__ = ["wreath_cyclic_table", "semidirect_c9c9_table"]
