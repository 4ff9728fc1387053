"""Ambient direct products P = K x C x D and their element arithmetic.

K is one of five finite p-group kinds:

* ``dihedral``      -- order 2^(k+1), presentation <r, t | r^(2^k), t^2, r^t = r^-1>
* ``semidihedral``  -- order 2^(k+1), r^t = r^(2^(k-1) - 1)
* ``quaternion``    -- generalized quaternion of order 2^(k+1), t^2 = r^(2^(k-1))
* ``heisenberg``    -- order p^3 (p odd), unitriangular 3x3 matrices over F_p
* ``table``         -- any finite p-group given by an explicit Cayley table

C and D are cyclic of order p^n and p^m.  Elements are plain int tuples:

* two-generator K kinds:  (eps, i, a, b)      meaning t^eps r^i * c^a * d^b
* heisenberg:             (h1, h2, h3, a, b)  rows of a unitriangular matrix
* table:                  (idx, a, b)         idx indexes the Cayley table

Tuple comparison gives the canonical element order used everywhere else.
All arithmetic is exact integer arithmetic.  Each kind's law is written
once, on int64 numpy arrays with one row per element: the broadcasting
product :meth:`AmbientDescriptor.mul_array` and the closed-form inverse
:meth:`AmbientDescriptor.inv_array`.  Everything else is built on them, on
rows: ``power_array``, ``comm_array``, ``conj_array``, ``orders_array``,
``mul_rows`` and ``mul_cols``; and the one-element ``mul``, ``inv``,
``power`` and ``comm``, which are one-row calls of the row law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

Element = tuple[int, ...]

TWO_GENERATOR_VARIANTS = ("dihedral", "semidihedral", "quaternion")
ODD_VARIANTS = ("heisenberg", "table")
VARIANTS = TWO_GENERATOR_VARIANTS + ODD_VARIANTS

DEFAULT_GUARD = 2 ** 22


class GuardExceeded(RuntimeError):
    """Raised when a construction would exceed the configured size guard."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class AmbientDescriptor:
    """Arithmetic context for a product P = K x C x D."""

    p: int
    variant: str
    k: int
    n: int
    m: int
    radices: tuple[int, ...]
    order: int
    # two-generator kinds: rotation twist theta (as a nonnegative residue) and
    # whether t^2 contributes a central rotation carry (quaternion only)
    theta: int = 0
    carry: bool = False
    table: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    table_inv: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    table_generators: tuple[int, ...] = ()

    # -- basic accessors ---------------------------------------------------

    @property
    def width(self) -> int:
        return len(self.radices)

    @property
    def identity(self) -> Element:
        return (0,) * self.width

    @property
    def k_order(self) -> int:
        if self.variant in TWO_GENERATOR_VARIANTS:
            return 2 ** (self.k + 1)
        if self.variant == "heisenberg":
            return self.p ** 3
        return int(self.table.shape[0])

    def standard_generators(self) -> dict[str, Element]:
        """Named generators of the three factors.

        Two-generator kinds: t (reflection), r (rotation, r = ts), c, d.
        Odd kinds: s, s1 (generators of K), c, d.
        """
        zc = (0, 0)
        if self.variant in TWO_GENERATOR_VARIANTS:
            return {
                "t": (1, 0) + zc,
                "r": (0, 1) + zc,
                "c": (0, 0, 1 % self.radices[2], 0),
                "d": (0, 0, 0, 1 % self.radices[3]),
            }
        if self.variant == "heisenberg":
            return {
                "s": (1, 0, 0) + zc,
                "s1": (0, 1, 0) + zc,
                "c": (0, 0, 0, 1 % self.radices[3], 0),
                "d": (0, 0, 0, 0, 1 % self.radices[4]),
            }
        g0, g1 = self.table_generators
        return {
            "s": (g0,) + zc,
            "s1": (g1,) + zc,
            "c": (0, 1 % self.radices[1], 0),
            "d": (0, 0, 1 % self.radices[2]),
        }

    # -- arithmetic: the law on rows, and one-row calls of it ----------------

    def mul_array(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        """Row-wise products lefts[i] * rights[i] of int64 element rows.

        Either side has shape (N, width) or (1, width); a single row is
        broadcast against the other side.
        """
        out = np.empty((max(lefts.shape[0], rights.shape[0]), self.width),
                       dtype=np.int64)
        if self.variant in TWO_GENERATOR_VARIANTS:
            rot = self.radices[1]
            e1, e2 = lefts[:, 0], rights[:, 0]
            i = np.where(e2 == 1, self.theta * lefts[:, 1], lefts[:, 1]) + rights[:, 1]
            if self.carry:
                i = i + (rot >> 1) * (e1 & e2)
            out[:, 0] = e1 ^ e2
            out[:, 1] = i % rot
        elif self.variant == "heisenberg":
            p = self.p
            out[:, 0] = (lefts[:, 0] + rights[:, 0]) % p
            out[:, 1] = (lefts[:, 1] + rights[:, 1]) % p
            out[:, 2] = (lefts[:, 2] + rights[:, 2] + lefts[:, 0] * rights[:, 1]) % p
        else:
            out[:, 0] = self.table[lefts[:, 0], rights[:, 0]]
        for j in (-2, -1):  # C x D: the last two coordinates add
            out[:, j] = (lefts[:, j] + rights[:, j]) % self.radices[j]
        return out

    def inv_array(self, rows: np.ndarray) -> np.ndarray:
        """Row-wise inverses of int64 element rows, in closed form.

        (t^e r^i)^-1 is r^-i for e = 0, and t r^(-theta i) for e = 1, less
        the central rotation r^(rot/2) that t^2 carries in the quaternion
        kind; a unitriangular matrix (h1, h2, h3) has inverse (-h1, -h2,
        h1 h2 - h3); a table index has the inverse its row's identity entry
        marks.  A residue x is negated as (radix - x) % radix, not by
        numpy's unary negative, whose first call in a process adds 64 KB
        to its resident memory.
        """
        out = np.empty(rows.shape, dtype=np.int64)
        if self.variant in TWO_GENERATOR_VARIANTS:
            rot = self.radices[1]
            e = rows[:, 0]
            i = np.where(e == 1, self.theta * rows[:, 1], rows[:, 1])
            if self.carry:
                i = i + (rot >> 1) * e
            out[:, 0] = e
            out[:, 1] = (rot - i % rot) % rot
        elif self.variant == "heisenberg":
            p = self.p
            out[:, 0] = (p - rows[:, 0]) % p
            out[:, 1] = (p - rows[:, 1]) % p
            out[:, 2] = (rows[:, 0] * rows[:, 1] + p - rows[:, 2]) % p
        else:
            out[:, 0] = self.table_inv[rows[:, 0]]
        for j in (-2, -1):
            out[:, j] = (self.radices[j] - rows[:, j]) % self.radices[j]
        return out

    def power_array(self, rows: np.ndarray, e: int) -> np.ndarray:
        """Every row raised to the power e >= 0, by repeated squaring."""
        acc = np.zeros_like(rows)
        base = rows
        while e:
            if e & 1:
                acc = self.mul_array(acc, base)
            e >>= 1
            if e:
                base = self.mul_array(base, base)
        return acc

    def comm_array(self, lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
        """Row-wise commutators [g, h] = g^-1 h^-1 g h = (h g)^-1 (g h);
        broadcasts like :meth:`mul_array`."""
        return self.mul_array(self.inv_array(self.mul_array(rights, lefts)),
                              self.mul_array(lefts, rights))

    def conj_array(self, rows: np.ndarray, by: np.ndarray) -> np.ndarray:
        """Row-wise conjugates g^h = h^-1 g h of the rows g by the rows h of
        ``by``; broadcasts like :meth:`mul_array`."""
        return self.mul_array(self.mul_array(self.inv_array(by), rows), by)

    def orders_array(self, rows: np.ndarray) -> np.ndarray:
        """Row-wise element orders: p-th powers until each row is the zero
        row, the identity."""
        orders = np.ones(rows.shape[0], dtype=np.int64)
        live = np.arange(rows.shape[0])
        q = 1
        while (pending := rows.any(axis=1)).any():
            live, rows = live[pending], rows[pending]
            q *= self.p
            if q > self.order:
                raise RuntimeError("element order exceeds group order")
            orders[live] = q
            rows = self.power_array(rows, self.p)
        return orders

    def mul_rows(self, g: Element, rights: np.ndarray) -> np.ndarray:
        """Products g * h for every row h of ``rights`` (int64, shape (N, width))."""
        return self.mul_array(_row(g), rights)

    def mul_cols(self, lefts: np.ndarray, h: Element) -> np.ndarray:
        """Products g * h for every row g of ``lefts``."""
        return self.mul_array(lefts, _row(h))

    def mul(self, g: Element, h: Element) -> Element:
        return _element(self.mul_array(_row(g), _row(h)))

    def inv(self, g: Element) -> Element:
        return _element(self.inv_array(_row(g)))

    def power(self, g: Element, e: int) -> Element:
        row = _row(g)
        if e < 0:
            row, e = self.inv_array(row), -e
        return _element(self.power_array(row, e))

    def comm(self, g: Element, h: Element) -> Element:
        """[g, h] = g^-1 h^-1 g h."""
        return _element(self.comm_array(_row(g), _row(h)))

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """Mixed-radix keys of element rows; monotone in tuple order."""
        keys = rows[:, 0].astype(np.int64)
        for j in range(1, self.width):
            keys = keys * self.radices[j] + rows[:, j]
        return keys

    def key(self, g: Element) -> int:
        key = g[0]
        for j in range(1, self.width):
            key = key * self.radices[j] + g[j]
        return key


def _row(g: Element) -> np.ndarray:
    return np.array([g], dtype=np.int64)


def _element(rows: np.ndarray) -> Element:
    return tuple(rows[0].tolist())


def _validate_table(table: np.ndarray, generators: Sequence[int], p: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Check that ``table`` is the Cayley table of a p-group that the two
    ``generators`` generate, with identity 0; return it in its narrowest
    index type (cast once its entries index its rows) and each inverse.

    Associativity is proved by Light's test (Clifford and Preston, *The
    Algebraic Theory of Semigroups* I, section 1.2) on the generators only:
    for each generator s, (x*s)*y == x*(s*y) for all x and y, as the two
    (size, size) arrays ``table[table[:, s]]`` and ``table[:, table[s]]``.
    The elements a that pass, (x*a)*y == x*(a*y) for all x and y, are closed
    under products: if a and b pass, then (x*(a*b))*y = ((x*a)*b)*y =
    (x*a)*(b*y) = x*(a*(b*y)) = x*((a*b)*y).  The identity passes, since row
    0 and column 0 are the identity.  The generation check below reaches
    every element as a left-normed product ((s_1*s_2)*...)*s_r of
    generators, so every element passes, and the table is associative.  It
    counts as associative only once both checks have passed: a table whose
    generators pass but do not generate it is refused.  The cost is
    2 size^2 lookups per generator instead of size^3.
    """
    size = table.shape[0]
    if table.ndim != 2 or table.shape[1] != size:
        raise ValueError("Cayley table must be square")
    q = size
    while q % p == 0:
        q //= p
    if q != 1 or size == 1:
        raise ValueError(f"table size {size} is not a positive power of p={p}")
    if table.min() < 0 or table.max() >= size:
        raise ValueError("table entries must index table rows")
    table = table.astype(np.min_scalar_type(size - 1))
    if not (np.array_equal(table[0], np.arange(size)) and
            np.array_equal(table[:, 0], np.arange(size))):
        raise ValueError("table row/column 0 must be the identity")
    gens = tuple(int(g) for g in generators)
    if len(gens) != 2 or not all(0 <= g < size for g in gens):
        raise ValueError("table_generators must be two valid indices")
    for s in gens:
        if not np.array_equal(table[table[:, s]], table[:, table[s]]):
            raise ValueError("table is not associative")
    is_identity = table == 0
    if not np.all(is_identity.sum(axis=1) == 1):
        raise ValueError("table rows must contain the identity exactly once")
    inv = is_identity.argmax(axis=1)
    reached = np.zeros(size, dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        frontier = sorted_distinct(table[frontier][:, gens])
        frontier = frontier[~reached[frontier]]
        reached[frontier] = True
    if not reached.all():
        raise ValueError("table_generators do not generate the table group")
    return table, inv


def make_ambient(p: int, variant: str, k: int, n: int, m: int,
                 guard: int = DEFAULT_GUARD,
                 table: Optional[Sequence[Sequence[int]]] = None,
                 table_generators: Optional[Sequence[int]] = None) -> AmbientDescriptor:
    """Build the descriptor for P = K x C x D with |C| = p^n, |D| = p^m.

    ``guard`` bounds |P|; exceeding it raises :class:`GuardExceeded`.
    """
    if not _is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if n < 0 or m < 0:
        raise ValueError("cyclic exponents n, m must be nonnegative")

    if variant in TWO_GENERATOR_VARIANTS:
        if p != 2:
            raise ValueError(f"variant {variant!r} requires p = 2")
        kmin = {"dihedral": 1, "quaternion": 2, "semidihedral": 3}[variant]
        if k < kmin:
            raise ValueError(f"variant {variant!r} requires k >= {kmin}")
        rot = 2 ** k
        theta = {"dihedral": rot - 1,
                 "semidihedral": (rot >> 1) - 1,
                 "quaternion": rot - 1}[variant]
        radices = (2, rot, 2 ** n, 2 ** m)
        order = 2 * rot * radices[2] * radices[3]
        if order > guard:
            raise GuardExceeded(f"|P| = {order} exceeds guard {guard}")
        return AmbientDescriptor(p=2, variant=variant, k=k, n=n, m=m,
                                 radices=radices, order=order, theta=theta,
                                 carry=(variant == "quaternion"))

    if variant == "heisenberg":
        if p == 2:
            raise ValueError("variant 'heisenberg' requires an odd prime p")
        if table is not None or table_generators is not None:
            raise ValueError("heisenberg variant does not accept a table")
        radices = (p, p, p, p ** n, p ** m)
        order = p ** 3 * radices[3] * radices[4]
        if order > guard:
            raise GuardExceeded(f"|P| = {order} exceeds guard {guard}")
        return AmbientDescriptor(p=p, variant=variant, k=k, n=n, m=m,
                                 radices=radices, order=order)

    if table is None or table_generators is None:
        raise ValueError("table variant requires table and table_generators")
    tarr = np.asarray(table, dtype=np.int64)
    tarr, tinv = _validate_table(tarr, table_generators, p)
    size = int(tarr.shape[0])
    radices = (size, p ** n, p ** m)
    order = size * radices[1] * radices[2]
    if order > guard:
        raise GuardExceeded(f"|P| = {order} exceeds guard {guard}")
    tarr.setflags(write=False)
    tinv.setflags(write=False)
    return AmbientDescriptor(p=p, variant=variant, k=k, n=n, m=m,
                             radices=radices, order=order, table=tarr,
                             table_inv=tinv,
                             table_generators=tuple(int(g) for g in table_generators))


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values``, ascending, by sort and compare.

    Same result as ``np.unique(values)``, whose plain form imports
    ``numpy.ma`` (23-40 ms) on first call in numpy 2.x.
    """
    flat = np.sort(values, axis=None)
    keep = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


def round_up_power(p: int, bound: int) -> int:
    """Smallest e with p**e >= bound (used for nilpotency/guard heuristics)."""
    e = 0
    v = 1
    while v < bound:
        v *= p
        e += 1
    return e


def int_log(p: int, q: int) -> int:
    """Exact logarithm: e with p**e == q, or ValueError."""
    e = round_up_power(p, q)
    if p ** e != q:
        raise ValueError(f"{q} is not a power of {p}")
    return e


__all__ = [
    "AmbientDescriptor", "Element", "GuardExceeded", "DEFAULT_GUARD",
    "VARIANTS", "TWO_GENERATOR_VARIANTS", "ODD_VARIANTS",
    "make_ambient", "int_log", "round_up_power",
    "sorted_distinct",
]
