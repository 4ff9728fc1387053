"""Modular group algebras F_p[G] with exact coefficient arithmetic.

Elements carry their coefficient vector in a compact immutable key: an int
bitmask over the canonical basis for p = 2 (so addition is XOR and basis-row
reduction is word-parallel), or a bytes string of residues for odd p.
Products take one of two paths.  On support pairs, with no Cayley table, the
group elements of all support pairs are multiplied by the ambient's
broadcasting product, in blocks of pairs of bounded size, located by their
keys, and their coefficient products are summed exactly as integers and
reduced mod p.  At p = 2 on the two-generator ambients, once the pairs cost
more than the transforms, :mod:`mipverify.ntt` convolves over the abelian
M = <r, c, d> by an exact number-theoretic transform mod 998244353: each
output counts at most |G| < 998244353 pairs, so its parity is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union

import numpy as np

from .ambient import (TWO_GENERATOR_VARIANTS, Element, round_up_power,
                      sorted_distinct)
from .groups import FiniteGroup, conjugacy_classes

RowLike = Union[int, np.ndarray, "AlgebraElement"]

# Bytes of int64 element rows (two factors and their product per pair) in
# one block of support-pair products.
_PRODUCT_BLOCK_BYTES = 2 ** 20
# The transform path does eight transforms of |P|/2 entries, O(|P| log2 |P|);
# measured, it costs as much as |P| log2 |P| / 4 support pairs at (5,4,3) and
# (6,5,4), and a third at (4,3,3).  It runs when the support pairs cost more.
_NTT_PAIRS_PER_PLOGP = 0.25


def _pair_blocks(group: FiniteGroup,
                 reps: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every pair (item i, offset 0 <= o < reps[i]), in blocks.

    A block holds as many pairs as two factor rows and a product row each
    fit in ``_PRODUCT_BLOCK_BYTES``; yields the items and offsets of one
    block at a time.
    """
    step = max(1, _PRODUCT_BLOCK_BYTES // (24 * group.ambient.width))
    ends = np.cumsum(reps)
    total = int(ends[-1]) if reps.size else 0
    for lo in range(0, total, step):
        pair = np.arange(lo, min(lo + step, total))
        item = np.searchsorted(ends, pair, side="right")
        yield item, pair - (ends[item] - reps[item])


def _reduce_terms(keys: np.ndarray, coeffs: np.ndarray,
                  p: int) -> tuple[np.ndarray, np.ndarray]:
    """Sum the coefficients (residues 0..p-1) of equal keys mod p.

    Returns the keys in ascending order with their nonzero sums.  Each
    distinct (key, coefficient) pair is counted by ``np.unique``, so the sums
    are exact integers.
    """
    if not keys.size:
        return keys, coeffs
    combined, counts = np.unique(keys * p + coeffs, return_counts=True)
    keys, coeffs = np.divmod(combined, p)
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sums = np.add.reduceat(coeffs * counts, first) % p
    keep = sums != 0
    return keys[first][keep], sums[keep]


def _class_sum_matches(owners: np.ndarray, elems: np.ndarray,
                       coeffs: np.ndarray, count: int, class_of: np.ndarray,
                       class_sizes: np.ndarray) -> np.ndarray:
    """For each of ``count`` owners, the class whose sum its terms form, or -1.

    The terms (owner, element, coefficient) are sorted by owner, with
    distinct elements per owner.  Owner o's terms are the class sum of C_j
    when every coefficient is 1, every element lies in C_j and there are
    exactly |C_j| terms.
    """
    out = np.full(count, -1, dtype=np.int64)
    if not owners.size:
        return out
    first = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1]])
    target = class_of[elems]
    lo = np.minimum.reduceat(target, first)
    hi = np.maximum.reduceat(target, first)
    ones = np.logical_and.reduceat(coeffs == 1, first)
    terms = np.diff(np.r_[first, owners.size])
    ok = (lo == hi) & ones & (terms == class_sizes[lo])
    out[owners[first[ok]]] = lo[ok]
    return out


class GroupAlgebra:
    """F_p[G] over the prime field, basis indexed by canonical element order."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.p = group.p
        self.dim = group.order
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
        for i in map(int, indices):
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
            label = conjugacy_classes(self.group)
            members = np.argsort(label, kind="stable")
            starts = np.flatnonzero(np.diff(label[members])) + 1
            self._class_sums = [self.from_indices(cls.tolist())
                                for cls in np.split(members, starts)]
        return list(self._class_sums)

    def class_sum_pth_power_count(self) -> int:
        """Number of class sums equal to the p-th power of a different class sum.

        The p-th powers of all class sums are built in one batched pass:
        the terms (class i, element g, coefficient) of every class's current
        power are multiplied on the right by each member of class i, p - 1
        times, and equal (class, product) keys are summed mod p.
        """
        p, dim = self.p, self.dim
        _, class_of, sizes = np.unique(conjugacy_classes(self.group),
                                       return_inverse=True, return_counts=True)
        members = np.argsort(class_of, kind="stable")
        starts = np.cumsum(sizes) - sizes
        owners, elems = class_of[members], members
        coeffs = np.ones(dim, dtype=np.int64)
        arr = self.group.array()
        for _ in range(p - 1):
            # term t meets every member of its owner's class
            keys, sums = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
            for term, offset in _pair_blocks(self.group, sizes[owners]):
                prods = self.group.indices_of_rows(self.group.ambient.mul_array(
                    arr[elems[term]], arr[members[starts[owners[term]] + offset]]))
                block = _reduce_terms(owners[term] * dim + prods, coeffs[term], p)
                keys.append(block[0])
                sums.append(block[1])
            merged, coeffs = _reduce_terms(np.concatenate(keys),
                                           np.concatenate(sums), p)
            owners, elems = np.divmod(merged, dim)
        matches = _class_sum_matches(owners, elems, coeffs, sizes.size,
                                     class_of, sizes)
        hits = matches[(matches >= 0) & (matches != np.arange(sizes.size))]
        return int(sorted_distinct(hits).size)

    # -- augmentation-ideal filtration ------------------------------------------

    def aug_ideal_power_basis(self, q: int) -> "FpMatrix":
        """Row basis of A^q, the q-th power of the augmentation ideal.

        A^1 is spanned by {g - 1}; A^q by {(a - 1) v} for the small
        generators a and basis rows v of A^(q-1).  gh - 1 = (g - 1)(h - 1) +
        (g - 1) + (h - 1) and a^-1 - 1 = a^(|a| - 1) - 1 make every g - 1 a
        sum of products (a - 1) r, and r v lies in the ideal A^(q-1).
        """
        if q < 1:
            raise ValueError("power must be >= 1")
        for step in range(1, q + 1):
            if step in self._aug_power_bases:
                continue
            mx = FpMatrix(self.p, self.dim)
            if step == 1:
                one = self.one()
                for i in range(1, self.dim):  # element 0 is the identity
                    mx.add_row(self.from_indices((i,)) - one)
            else:
                prev = self._aug_power_bases[step - 1]
                gens = [g for g in self.group.small_generators()
                        if g != self.group.identity]
                arr = self.group.array()
                for a in gens:
                    # left translation by a: i -> index(a * elements[i])
                    row_perm = self.group.indices_of_rows(
                        self.group.ambient.mul_rows(a, arr))
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
        return self + other.scale(-1)

    def scale(self, c: int) -> "AlgebraElement":
        c %= self.algebra.p
        if self.algebra.p == 2:
            return self if c else self.algebra.zero()
        s = (self.vec().astype(np.int64) * c) % self.algebra.p
        return AlgebraElement(self.algebra, bytes(s.astype(np.uint8).tobytes()))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Product by the transforms of :mod:`mipverify.ntt` when they apply
        (p = 2, a two-generator ambient, more support pairs than the
        transforms cost, and the kernel's exactness conditions), else over
        support pairs: the group products of a block of pairs at a time,
        with the coefficient products counted per product element."""
        self._require_same(other)
        alg = self.algebra
        p, dim, group = alg.p, alg.dim, alg.group
        avec, bvec = self.vec(), other.vec()
        ia, ib = np.flatnonzero(avec), np.flatnonzero(bvec)
        amb = group.ambient
        if (p == 2 and amb.variant in TWO_GENERATOR_VARIANTS and ia.size * ib.size >
                _NTT_PAIRS_PER_PLOGP * amb.order * (amb.order.bit_length() - 1)):
            from .ntt import product
            if (vec := product(group, ia, ib)) is not None:
                return AlgebraElement(alg, pack_bits(vec))
        arr = group.array()
        ca, cb = avec[ia].astype(np.int64), bvec[ib].astype(np.int64)
        # counts[p * g + c]: pairs with product g and coefficient product c
        counts = np.zeros(dim * p, dtype=np.int64)
        for i, j in _pair_blocks(group, np.full(ia.size, ib.size)):
            prods = group.indices_of_rows(group.ambient.mul_array(arr[ia[i]], arr[ib[j]]))
            counts += np.bincount(prods * p + ca[i] * cb[j] % p, minlength=dim * p)
        coeffs = (counts.reshape(dim, p) @ np.arange(p)) % p
        if p == 2:
            return AlgebraElement(alg, pack_bits(coeffs.astype(np.uint8)))
        return AlgebraElement(alg, bytes(coeffs.astype(np.uint8).tobytes()))

    def __pow__(self, e: int) -> "AlgebraElement":
        """Repeated squaring from the lowest set bit of e, with no squaring
        after the highest: u ** 2 takes one product, u ** 3 two."""
        if e < 0:
            raise ValueError("negative powers are not supported")
        if e == 0:
            return self.algebra.one()
        base = self
        while not e & 1:
            base = base * base
            e >>= 1
        acc = base
        e >>= 1
        while e:
            base = base * base
            if e & 1:
                acc = acc * base
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
    "is_unit", "unit_order", "pack_bits", "unpack_bits",
]
