"""Dense F_2[P] products on the two-generator ambients, by an exact
number-theoretic transform over the abelian M = <r, c, d>.

P is M and tM, and t^e r^i c^a d^b has ambient key e |M| + key_M: F_2[P] is
0/1 arrays of shape (|K|, 2^n, 2^m).  For y = t m in tM, x y = (x t) m, so
a b = a * b0 + (a t) * b1, with b0, b1 the e-halves of b and * the 3-D
cyclic convolution over M on each e-half of the left factor.  Right
multiplication by t swaps the e-halves and permutes the rotation axis, as
``mul_array`` gives it on the rows (e, i, 0, 0) t; C x D, which it adds
coordinate-wise, stays.  Six forward transforms and two inverse ones.

Exact: an output entry counts the support pairs with that product, at most
min(|supp a|, |supp b|) <= |G| < Q.  Each axis length L divides 2^23 | Q - 1
and 3 generates the units mod Q, so 3^((Q - 1)/L) is a primitive L-th root
of unity.  :func:`product` checks both, and returns None outside them.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

Q = 998244353  # 119 * 2^23 + 1, a prime
ROOT_ORDER = 2 ** 23  # the largest power of 2 that divides Q - 1


@lru_cache(maxsize=None)
def _plan(length: int, inverse: bool) -> tuple[np.ndarray, np.ndarray]:
    """The bit-reversal permutation of an axis of ``length``, and the powers
    w^j, j < length/2, of its root w (of w^-1 for the inverse)."""
    perm = np.zeros(1, dtype=np.int64)
    while perm.size < length:
        perm = np.concatenate((2 * perm, 2 * perm + 1))
    w = pow(3, (Q - 1) // length * (length - 1 if inverse else 1), Q)
    powers = np.ones(1, dtype=np.int64)
    while 2 * powers.size < length:
        powers = np.concatenate((powers, powers * pow(w, powers.size, Q) % Q))
    return perm, powers


def _transform(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """The cyclic transform over every axis of ``x`` but the first, unscaled:
    radix-2 decimation in time on bit-reversed input."""
    for axis in range(1, x.ndim):
        length, pre = x.shape[axis], math.prod(x.shape[:axis])
        perm, powers = _plan(length, inverse)
        y = x.reshape(pre, length, -1)[:, perm]
        for half in (1 << s for s in range(length.bit_length() - 1)):
            y = y.reshape(pre, length // (2 * half), 2, half, -1)
            v = y[:, :, 1] * powers[::length // (2 * half), None] % Q
            y[:, :, 1] = y[:, :, 0] - v
            y[:, :, 0] += v
            y %= Q
        x = y.reshape(x.shape)
    return x


def product(group, ia: np.ndarray, ib: np.ndarray) -> np.ndarray | None:
    """The 0/1 coefficient vector of the F_2 product of the elements with
    supports ``ia`` and ``ib`` in ``group``, a subgroup of a two-generator
    ambient; None outside the exactness conditions."""
    amb = group.ambient
    if group.order >= Q or max(amb.radices[1:]) > ROOT_ORDER:
        return None
    keys, rot = group.keys(), amb.radices[1]
    shape = (2 * rot,) + amb.radices[2:]
    rows = np.zeros((2 * rot, amb.width), dtype=np.int64)
    rows[:, 0], rows[:, 1] = np.divmod(np.arange(2 * rot), rot)
    xt = amb.mul_cols(rows, amb.standard_generators()["t"])
    a, b = np.zeros((2, amb.order), dtype=np.int64)
    a[keys[ia]] = b[keys[ib]] = 1
    a, b = a.reshape(shape), b.reshape((2, rot) + shape[1:])
    at = np.empty_like(a)
    at[xt[:, 0] * rot + xt[:, 1]] = a
    f = _transform(np.stack((a[:rot], a[rot:], at[:rot], at[rot:], b[0], b[1])))
    out = _transform((f[:2] * f[4] + f[2:4] * f[5]) % Q, inverse=True)
    return (out.reshape(-1)[keys] * pow(amb.order // 2, -1, Q) % Q & 1).astype(np.uint8)
