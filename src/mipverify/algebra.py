"""Modular group algebras F_p[G] with exact coefficient arithmetic.

Elements carry their coefficient vector in a compact immutable key: an int
bitmask over the canonical basis for p = 2 (so addition is XOR and basis-row
reduction is word-parallel), or a bytes string of residues for odd p.
Multiplication iterates over the sparser operand's support and accumulates
translated coefficient vectors through the group's Cayley table; left and
right translations are permutations, so the scatter updates never collide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .ambient import Element, round_up_power
from .groups import FiniteGroup, conjugacy_classes

RowLike = Union[int, np.ndarray, "AlgebraElement"]


class GroupAlgebra:
    """F_p[G] over the prime field, basis indexed by canonical element order."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.p = group.p
        self.dim = group.order
        self._nbytes = (self.dim + 7) // 8
        self._class_sums: Optional[list[AlgebraElement]] = None
        self._aug_power_bases: dict[int, FpMatrix] = {}

    # -- constructors --------------------------------------------------------

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, 0 if self.p == 2 else bytes(self.dim))

    def one(self) -> "AlgebraElement":
        return self.embed(self.group.identity)

    def embed(self, g: Element) -> "AlgebraElement":
        """The group element g as a basis vector."""
        if g not in self.group:
            raise ValueError(f"element {g} is not in the group")
        i = self.group.index(g)
        if self.p == 2:
            return AlgebraElement(self, 1 << i)
        buf = bytearray(self.dim)
        buf[i] = 1
        return AlgebraElement(self, bytes(buf))

    def from_indices(self, indices: Iterable[int]) -> "AlgebraElement":
        """Sum of basis elements (mod-p multiplicity) by canonical index."""
        counts: dict[int, int] = {}
        for i in indices:
            if not 0 <= i < self.dim:
                raise ValueError(f"basis index {i} out of range")
            counts[i] = counts.get(i, 0) + 1
        if self.p == 2:
            key = 0
            for i, c in counts.items():
                if c & 1:
                    key |= 1 << i
            return AlgebraElement(self, key)
        buf = bytearray(self.dim)
        for i, c in counts.items():
            buf[i] = c % self.p
        return AlgebraElement(self, bytes(buf))

    def from_elements(self, elements: Iterable[Element]) -> "AlgebraElement":
        return self.from_indices(self.group.index(g) for g in elements)

    def from_vec(self, vec: np.ndarray) -> "AlgebraElement":
        v = np.asarray(vec, dtype=np.int64) % self.p
        if v.shape != (self.dim,):
            raise ValueError("coefficient vector has wrong length")
        if self.p == 2:
            return AlgebraElement(self, pack_bits(v.astype(np.uint8)))
        return AlgebraElement(self, bytes(v.astype(np.uint8).tobytes()))

    # -- class sums ------------------------------------------------------------

    def class_sums(self) -> list["AlgebraElement"]:
        """One sum per conjugacy class, ordered by minimal class element."""
        if self._class_sums is None:
            self._class_sums = [self.from_indices(cls)
                                for cls in conjugacy_classes(self.group)]
        return list(self._class_sums)

    def class_sum_pth_power_count(self) -> int:
        """Number of class sums equal to the p-th power of a different class sum."""
        sums = self.class_sums()
        keys = {u.key: i for i, u in enumerate(sums)}
        hit: set[int] = set()
        for i, u in enumerate(sums):
            j = keys.get((u ** self.p).key)
            if j is not None and j != i:
                hit.add(j)
        return len(hit)

    # -- augmentation-ideal filtration ------------------------------------------

    def aug_ideal_power_basis(self, q: int) -> "FpMatrix":
        """Row basis of A^q, the q-th power of the augmentation ideal.

        A^1 is spanned by {g - 1}; A^q by {(a - 1) v} for generators a and
        basis rows v of A^(q-1) (left multiplication by the ideal generators
        a - 1 spans the product because F_p[G] (a - 1) translates within the
        same row family).
        """
        if q < 1:
            raise ValueError("power must be >= 1")
        for step in range(1, q + 1):
            if step in self._aug_power_bases:
                continue
            mx = FpMatrix(self.p, self.dim)
            if step == 1:
                one = self.one()
                for g in self.group.elements:
                    if g == self.group.identity:
                        continue
                    mx.add_row(self.embed(g) - one)
            else:
                prev = self._aug_power_bases[step - 1]
                gens = [g for g in self.group.generators
                        if g != self.group.identity]
                table = self.group.cayley_table()
                for a in gens:
                    row_perm = table[self.group.index(a)]
                    for v in prev.basis_rows():
                        vec = self._as_vec(v)
                        translated = np.zeros(self.dim, dtype=np.uint8)
                        translated[row_perm] = vec
                        if self.p == 2:
                            mx.add_row(pack_bits(translated ^ vec))
                        else:
                            mx.add_row((translated.astype(np.int64) - vec) % self.p)
            self._aug_power_bases[step] = mx
        return self._aug_power_bases[q]

    def aug_quotient_dims(self, upto: Optional[int] = None) -> list[int]:
        """dim(A^q / A^(q+1)) for q = 0, 1, ... until A^q = 0 (A^0 = algebra)."""
        dims = []
        prev = self.dim
        q = 1
        while prev > 0:
            cur = self.aug_ideal_power_basis(q).rank()
            dims.append(prev - cur)
            prev = cur
            q += 1
            if upto is not None and q > upto:
                break
        return dims

    def _as_vec(self, row: RowLike) -> np.ndarray:
        if isinstance(row, AlgebraElement):
            return row.vec()
        if isinstance(row, (int,)):
            return unpack_bits(row, self.dim)
        return np.asarray(row, dtype=np.uint8)


class AlgebraElement:
    """Immutable element of a :class:`GroupAlgebra`."""

    __slots__ = ("algebra", "key")

    def __init__(self, algebra: GroupAlgebra, key: Union[int, bytes]):
        self.algebra = algebra
        self.key = key

    # -- views ---------------------------------------------------------------

    def vec(self) -> np.ndarray:
        """Coefficient vector as uint8 of length dim."""
        if self.algebra.p == 2:
            return unpack_bits(self.key, self.algebra.dim)
        return np.frombuffer(self.key, dtype=np.uint8).copy()

    def support(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.vec()))

    def coeff(self, i: int) -> int:
        if self.algebra.p == 2:
            return (self.key >> i) & 1
        return self.key[i]

    def support_size(self) -> int:
        if self.algebra.p == 2:
            return self.key.bit_count()
        return int(np.count_nonzero(self.vec()))

    def is_zero(self) -> bool:
        return (self.key == 0) if self.algebra.p == 2 else not any(self.key)

    def augmentation(self) -> int:
        if self.algebra.p == 2:
            return self.key.bit_count() & 1
        return int(self.vec().sum() % self.algebra.p)

    # -- ring operations --------------------------------------------------------

    def _require_same(self, other: "AlgebraElement") -> None:
        if self.algebra is not other.algebra:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same(other)
        if self.algebra.p == 2:
            return AlgebraElement(self.algebra, self.key ^ other.key)
        s = (self.vec().astype(np.int64) + other.vec()) % self.algebra.p
        return AlgebraElement(self.algebra, bytes(s.astype(np.uint8).tobytes()))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same(other)
        if self.algebra.p == 2:
            return AlgebraElement(self.algebra, self.key ^ other.key)
        s = (self.vec().astype(np.int64) - other.vec()) % self.algebra.p
        return AlgebraElement(self.algebra, bytes(s.astype(np.uint8).tobytes()))

    def scale(self, c: int) -> "AlgebraElement":
        c %= self.algebra.p
        if self.algebra.p == 2:
            return self if c else self.algebra.zero()
        s = (self.vec().astype(np.int64) * c) % self.algebra.p
        return AlgebraElement(self.algebra, bytes(s.astype(np.uint8).tobytes()))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same(other)
        alg = self.algebra
        table = alg.group.cayley_table()
        if alg.p == 2:
            a, b = self, other
            if a.support_size() > b.support_size():
                # accumulate over right support using table columns instead
                acc = np.zeros(alg.dim, dtype=np.uint8)
                avec = a.vec()
                for j in np.flatnonzero(b.vec()):
                    acc[table[:, j]] ^= avec
                return AlgebraElement(alg, pack_bits(acc))
            acc = np.zeros(alg.dim, dtype=np.uint8)
            bvec = b.vec()
            for i in np.flatnonzero(a.vec()):
                acc[table[i]] ^= bvec
            return AlgebraElement(alg, pack_bits(acc))
        avec, bvec = self.vec(), other.vec()
        acc = np.zeros(alg.dim, dtype=np.int64)
        if np.count_nonzero(avec) <= np.count_nonzero(bvec):
            for i in np.flatnonzero(avec):
                acc[table[i]] += int(avec[i]) * bvec
        else:
            for j in np.flatnonzero(bvec):
                acc[table[:, j]] += int(bvec[j]) * avec
        acc %= alg.p
        return AlgebraElement(alg, bytes(acc.astype(np.uint8).tobytes()))

    def __pow__(self, e: int) -> "AlgebraElement":
        if e < 0:
            raise ValueError("negative powers: use unit_inverse")
        acc = self.algebra.one()
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AlgebraElement) and
                self.algebra is other.algebra and self.key == other.key)

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        sup = self.support()
        return f"AlgebraElement(dim={self.algebra.dim}, support={len(sup)})"

    def is_central(self) -> bool:
        for a in self.algebra.group.generators:
            ea = self.algebra.embed(a)
            if ea * self != self * ea:
                return False
        return True


# -- unit arithmetic ----------------------------------------------------------


def augmentation(u: AlgebraElement) -> int:
    return u.augmentation()


def is_unit(u: AlgebraElement) -> bool:
    """Units of F_p[G] (G a finite p-group) are exactly aug != 0."""
    return u.augmentation() != 0


def _normalized_p_power_order(u: AlgebraElement) -> int:
    """Smallest s with u^(p^s) = 1, for u of augmentation 1."""
    alg = u.algebra
    one = alg.one()
    s = 0
    cur = u
    stop = round_up_power(alg.p, alg.dim) + 1
    while cur != one:
        cur = cur ** alg.p
        s += 1
        if s > stop:
            raise ArithmeticError(
                "unit power order exceeded the nilpotency hard stop; arithmetic bug")
    return s


def unit_order(u: AlgebraElement) -> int:
    """Multiplicative order of a unit."""
    if not is_unit(u):
        raise ValueError("unit_order requires a unit (augmentation != 0)")
    alg = u.algebra
    p = alg.p
    alpha = u.augmentation()
    d = 1
    acc = alpha
    while acc != 1:
        acc = acc * alpha % p
        d += 1
    u1 = u.scale(pow(alpha, -1, p)) if p != 2 else u
    s = _normalized_p_power_order(u1)
    return d * p ** s  # lcm(d, p^s): d | p-1 is coprime to p


def unit_inverse(u: AlgebraElement) -> AlgebraElement:
    """Inverse of a unit via nilpotency of the augmentation ideal."""
    if not is_unit(u):
        raise ValueError("unit_inverse requires a unit (augmentation != 0)")
    alg = u.algebra
    p = alg.p
    alpha = u.augmentation()
    inv_alpha = pow(alpha, -1, p)
    u1 = u.scale(inv_alpha) if p != 2 else u
    s = _normalized_p_power_order(u1)
    inv1 = u1 ** (p ** s - 1)
    return inv1.scale(inv_alpha) if p != 2 else inv1


def jennings_dimension_polynomial(factor_orders: Sequence[int], p: int) -> list[int]:
    """Coefficients of prod_i (1 + X^i + ... + X^((p-1)i))^(d_i).

    ``factor_orders`` are the Jennings factor orders |M_i / M_{i+1}| in order
    (i = 1, 2, ...); d_i = log_p of each.  The coefficient of X^q equals
    dim A^q / A^(q+1).
    """
    poly = [1]
    for i, order in enumerate(factor_orders, start=1):
        d = 0
        o = order
        while o > 1:
            if o % p:
                raise ValueError("factor order is not a power of p")
            o //= p
            d += 1
        base = [0] * ((p - 1) * i + 1)
        for j in range(p):
            base[j * i] = 1
        for _ in range(d):
            out = [0] * (len(poly) + len(base) - 1)
            for ii, cv in enumerate(poly):
                if cv:
                    for jj, cb in enumerate(base):
                        if cb:
                            out[ii + jj] += cv * cb
            poly = out
    return poly


# -- GF(p) row spaces ----------------------------------------------------------


def pack_bits(vec: np.ndarray) -> int:
    """uint8 0/1 vector -> little-endian int bitmask."""
    return int.from_bytes(np.packbits(vec, bitorder="little").tobytes(), "little")


def unpack_bits(key: int, dim: int) -> np.ndarray:
    nbytes = (dim + 7) // 8
    raw = np.frombuffer(key.to_bytes(nbytes, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little", count=dim)


class FpMatrix:
    """Row space over F_p with deterministic online elimination.

    Pivots are chosen at the lowest available column index; among rows the
    earliest added row wins (ascending row index).  Each reduced row carries
    the combination of original rows that produced it, so membership returns
    exact coordinates over the rows as added.
    """

    def __init__(self, p: int, ncols: int, rows: Iterable[RowLike] = ()):
        self.p = p
        self.ncols = ncols
        self.row_count = 0
        # pivot column -> (reduced row, combination over original rows)
        if p == 2:
            self._pivots: dict[int, tuple[int, int]] = {}
        else:
            self._pivots_odd: dict[int, tuple[np.ndarray, dict[int, int]]] = {}
        for r in rows:
            self.add_row(r)

    # -- p = 2 ----------------------------------------------------------------

    def _coerce2(self, row: RowLike) -> int:
        if isinstance(row, AlgebraElement):
            return int(row.key)
        if isinstance(row, (int, np.integer)):
            return int(row)
        return pack_bits(np.asarray(row, dtype=np.uint8) % 2)

    def _reduce2(self, r: int, combo: int) -> tuple[int, int]:
        while r:
            col = (r & -r).bit_length() - 1
            piv = self._pivots.get(col)
            if piv is None:
                return r, combo
            r ^= piv[0]
            combo ^= piv[1]
        return 0, combo

    # -- odd p ------------------------------------------------------------------

    def _coerce_odd(self, row: RowLike) -> np.ndarray:
        if isinstance(row, AlgebraElement):
            return row.vec().astype(np.int64) % self.p
        return np.asarray(row, dtype=np.int64) % self.p

    def _reduce_odd(self, r: np.ndarray, combo: dict[int, int]) -> tuple[np.ndarray, dict[int, int]]:
        while True:
            nz = np.flatnonzero(r)
            if nz.size == 0:
                return r, combo
            col = int(nz[0])
            piv = self._pivots_odd.get(col)
            if piv is None:
                return r, combo
            f = int(r[col]) % self.p  # pivot rows are normalized to leading 1
            r = (r - f * piv[0]) % self.p
            for idx, cf in piv[1].items():
                combo[idx] = (combo.get(idx, 0) - f * cf) % self.p
        # unreachable

    # -- public API ----------------------------------------------------------------

    def add_row(self, row: RowLike) -> bool:
        """Add a row; returns True if it increased the rank."""
        idx = self.row_count
        self.row_count += 1
        if self.p == 2:
            r, combo = self._reduce2(self._coerce2(row), 1 << idx)
            if r == 0:
                return False
            col = (r & -r).bit_length() - 1
            self._pivots[col] = (r, combo)
            return True
        r, combo = self._reduce_odd(self._coerce_odd(row), {idx: 1})
        nz = np.flatnonzero(r)
        if nz.size == 0:
            return False
        col = int(nz[0])
        lead = int(r[col])
        inv = pow(lead, -1, self.p)
        r = (r * inv) % self.p
        combo = {i: (c * inv) % self.p for i, c in combo.items()}
        self._pivots_odd[col] = (r, combo)
        return True

    def rank(self) -> int:
        return len(self._pivots) if self.p == 2 else len(self._pivots_odd)

    def basis_rows(self) -> list[RowLike]:
        """Reduced pivot rows in ascending pivot-column order."""
        if self.p == 2:
            return [self._pivots[c][0] for c in sorted(self._pivots)]
        return [self._pivots_odd[c][0].copy() for c in sorted(self._pivots_odd)]

    def contains(self, row: RowLike) -> bool:
        return self.membership(row) is not None

    def membership(self, row: RowLike) -> Optional[tuple[tuple[int, int], ...]]:
        """Coordinates of ``row`` over the added rows, or None if outside.

        Returns ((row_index, coefficient), ...) with sum_i c_i * rows[i] = row.
        """
        if self.p == 2:
            r, combo = self._reduce2(self._coerce2(row), 0)
            if r:
                return None
            return tuple((i, 1) for i in sorted(_bit_indices(combo)))
        r, combo = self._reduce_odd(self._coerce_odd(row), {})
        if np.flatnonzero(r).size:
            return None
        return tuple((i, (-c) % self.p) for i, c in sorted(combo.items()) if c % self.p)


def _bit_indices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


__all__ = [
    "GroupAlgebra", "AlgebraElement", "FpMatrix",
    "augmentation", "is_unit", "unit_order", "unit_inverse",
    "jennings_dimension_polynomial", "pack_bits", "unpack_bits",
]
