"""Concrete finite p-groups inside an ambient product, and subgroup machinery.

A :class:`FiniteGroup` stores its elements only as int64 rows sorted by
mixed-radix key (canonical order = tuple order) and their keys; the
generating set; and, as int32 arrays, each element's breadth-first
derivation over the generators with the closure's level boundaries.
Element tuples are built only when :attr:`FiniteGroup.elements` is read.
All subgroup constructions (derived subgroup, lower central series,
Frattini and power subgroups, centralizers, Jennings series)
reduce to breadth-first closure over explicit generator sets, so every
returned group carries valid words by construction.  A normal closure
needs only the generators of the normalizing group and a bound on its
order, not its elements, so the derived and Frattini subgroups of a group
that is never enumerated, such as the whole ambient, are normal closures
too.

The layer works on the ambient's broadcasting product of rows: closure
runs one breadth-first level at a time, a seed set is absorbed into one
subgroup grown seed by seed, element orders come from repeated p-th
powers, conjugacy-class labels from orbit minima under permutation
columns, and coordinates in G/Phi(G) from the letter counts of the
breadth-first words.  A group caches its Frattini subgroup, its conjugacy
classes, and the small generators it was built from.  No O(|G|^2) Cayley
table is built here, nor by the group algebra, whose products run on the
same rows; :meth:`FiniteGroup.cayley_table` exists for the exports and the
isomorphism tooling, stores its entries in the narrowest unsigned type, and
refuses a table above ``TABLE_BUDGET_BYTES``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as iter_product
from typing import Iterable, Optional, Sequence

import numpy as np

from .ambient import AmbientDescriptor, Element, GuardExceeded

Word = tuple[int, ...]

# Largest Cayley table, in bytes, that FiniteGroup.cayley_table builds.
TABLE_BUDGET_BYTES = 2 ** 30
# Table entries filled, and left-column products taken, in one block.
_BLOCK_ENTRIES = 2 ** 18


@dataclass
class FiniteGroup:
    """A subgroup of an ambient product, with canonical element order."""

    ambient: AmbientDescriptor
    _array: np.ndarray = field(repr=False)
    _keys: np.ndarray = field(repr=False)
    # breadth-first derivation, as int32 indices: element i (other than the
    # identity) equals elements[bfs_parent[i]] * generators[bfs_gen[i]];
    # the elements of level l are bfs_order[bfs_levels[l]:bfs_levels[l + 1]],
    # and every parent lies on an earlier level
    bfs_order: np.ndarray
    bfs_parent: np.ndarray
    bfs_gen: np.ndarray
    bfs_levels: tuple[int, ...]
    # None when wrapped from an element set: every element is a generator
    _generators: Optional[tuple[Element, ...]] = field(repr=False, default=None)
    _words: Optional[tuple[Word, ...]] = field(repr=False, default=None)
    _table: Optional[np.ndarray] = field(repr=False, default=None)
    _orders: Optional[np.ndarray] = field(repr=False, default=None)
    _central_mask: Optional[np.ndarray] = field(repr=False, default=None)
    _small_gens: Optional[tuple[Element, ...]] = field(repr=False, default=None)
    _frattini: Optional["FiniteGroup"] = field(repr=False, default=None)
    _class_label: Optional[np.ndarray] = field(repr=False, default=None)
    _abelian_maximal: Optional[tuple["FiniteGroup", ...]] = field(repr=False,
                                                                  default=None)

    # -- basics --------------------------------------------------------------

    @property
    def order(self) -> int:
        return self._array.shape[0]

    @property
    def p(self) -> int:
        return self.ambient.p

    @property
    def identity(self) -> Element:
        return self.ambient.identity

    @property
    def identity_index(self) -> int:
        return 0  # the identity (the zero row) has key 0, the smallest

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        """Element tuples in canonical order, built on first access."""
        return tuple(map(tuple, self._array.tolist()))

    @property
    def generators(self) -> tuple[Element, ...]:
        return self.elements if self._generators is None else self._generators

    def element(self, i: int) -> Element:
        """Element i as a tuple, read from its row."""
        return tuple(self._array[i].tolist())

    def _find(self, g: Element) -> int:
        """Index of g, or -1.  A tuple of the wrong width or with a digit
        outside its radix is refused: its key could be another element's."""
        amb = self.ambient
        if len(g) != amb.width or not all(0 <= v < r for v, r in zip(g, amb.radices)):
            return -1
        i = int(self._keys.searchsorted(key := amb.key(g)))
        return i if i < self.order and self._keys[i] == key else -1

    def __contains__(self, g: Element) -> bool:
        return self._find(g) >= 0

    def index(self, g: Element) -> int:
        if (i := self._find(g)) < 0:
            raise KeyError(g)
        return i

    @property
    def words(self) -> tuple[Word, ...]:
        """Derivation word of every element, read off the breadth-first tree."""
        if self._words is None:
            parent, via = self.bfs_parent.tolist(), self.bfs_gen.tolist()
            words: list[Word] = [()] * self.order
            for i in self.bfs_order[1:].tolist():
                words[i] = words[parent[i]] + (via[i],)
            self._words = tuple(words)
        return self._words

    def element_set(self) -> frozenset[Element]:
        return frozenset(map(tuple, self._array.tolist()))

    def array(self) -> np.ndarray:
        """The elements as int64 rows, one row per element."""
        return self._array

    # -- derived data ----------------------------------------------------------

    def keys(self) -> np.ndarray:
        """Mixed-radix keys of the elements (ascending, like the elements)."""
        return self._keys

    def indices_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Element indices of product rows known to lie in the group."""
        keys = self.ambient.encode(rows)
        idx = np.searchsorted(self._keys, keys)
        if idx.size and (idx.max() >= self.order or
                         not np.array_equal(self._keys[idx], keys)):
            raise KeyError("row outside the group")
        return idx

    def has_keys(self, keys: np.ndarray) -> np.ndarray:
        """Mask of the entries of ``keys`` (repeats allowed) that are keys
        of this group's elements, by search in the sorted keys."""
        idx = np.searchsorted(self._keys, keys)
        return self._keys[np.minimum(idx, self.order - 1)] == keys

    def contains(self, other: "FiniteGroup") -> bool:
        """Whether every element of ``other``, a group in the same ambient,
        lies in this group (compared on keys)."""
        return bool(self.has_keys(other.keys()).all())

    def cayley_table(self) -> np.ndarray:
        """Full multiplication table T[i, j] = index(elements[i] * elements[j]).

        Filled one breadth-first level at a time, whole rows at once: the
        identity's row is the identity permutation, and elements[i] =
        elements[parent] * generator gives row i = row(parent) read at the
        generator's left column j -> index(generator * elements[j]).
        Entries take the narrowest unsigned type that holds order - 1
        (uint8, uint16 up to order 2^16, then uint32); readers index with
        them and compare them, and do no arithmetic on them.  Raises
        :class:`GuardExceeded` before allocating when the table would take
        more than ``TABLE_BUDGET_BYTES``.
        """
        if self._table is None:
            size = self.order
            dtype = np.min_scalar_type(size - 1)
            nbytes = size * size * dtype.itemsize
            if nbytes > TABLE_BUDGET_BYTES:
                raise GuardExceeded(
                    f"Cayley table of a group of order {size} needs {nbytes} "
                    f"bytes, above the table budget of {TABLE_BUDGET_BYTES}")
            table = np.empty((size, size), dtype=dtype)
            order, parent, via = self.bfs_order, self.bfs_parent, self.bfs_gen
            table[order[0]] = np.arange(size)
            step = max(1, _BLOCK_ENTRIES // size)
            # element-set groups have |G| generators: their left columns
            # are taken block by block, like the rows they become
            gen_rows = (self._array if self._generators is None
                        else _rows(self.ambient, self._generators))
            gen_left = self.left_columns(gen_rows) if len(gen_rows) <= step else None
            for lo, hi in zip(self.bfs_levels[1:-1], self.bfs_levels[2:]):
                for start in range(lo, hi, step):
                    rows = order[start:min(hi, start + step)]
                    left = (gen_left[via[rows]] if gen_left is not None else
                            self.left_columns(gen_rows[via[rows]]))
                    table[rows] = table[parent[rows][:, None], left]
            table.setflags(write=False)
            self._table = table
        return self._table

    def left_columns(self, factors: Sequence[Element] | np.ndarray) -> np.ndarray:
        """Row r is the permutation j -> index(factors[r] * elements[j]), in
        the table's index type; ``factors`` are tuples or int64 rows."""
        arr = self.array()
        lefts = np.array(factors, dtype=np.int64).reshape(-1, arr.shape[1])
        rows = self.ambient.mul_array(np.repeat(lefts, self.order, axis=0),
                                      np.tile(arr, (lefts.shape[0], 1)))
        return self.indices_of_rows(rows).astype(
            np.min_scalar_type(self.order - 1)).reshape(-1, self.order)

    def transport(self, columns: np.ndarray, origin: int | np.ndarray) -> np.ndarray:
        """Every element's word read from ``origin`` along ``columns``.

        ``columns[j]`` is a permutation of some target's points standing for
        generator j.  Returns pi with pi[identity] = origin and pi[i] =
        columns[bfs_gen[i]][pi[bfs_parent[i]]], one level at a time.  A vector
        ``origin`` is read from each of its points: from arange(order) along
        the generators' right columns, row i is the right product by i.
        """
        columns, origin = np.asarray(columns), np.asarray(origin)
        order, parent, via = self.bfs_order, self.bfs_parent, self.bfs_gen
        pi = np.empty((self.order, *origin.shape), dtype=columns.dtype)
        pi[order[0]] = origin
        for lo, hi in zip(self.bfs_levels[1:-1], self.bfs_levels[2:]):
            level = order[lo:hi]
            pi[level] = columns[via[level].reshape(-1, *[1] * origin.ndim),
                                pi[parent[level]]]
        return pi

    def walk(self, columns: np.ndarray, starts: np.ndarray,
             targets: np.ndarray) -> np.ndarray:
        """Each ``starts[c]`` read along the word of element ``targets[c]``.

        Like :meth:`transport` with one origin per target: the word is
        walked from the target back to the identity on the breadth-first
        tree, then its columns are applied from the identity's end.  Along
        the generators' right columns, the result is index(g_s g_t).
        """
        columns = np.asarray(columns)
        node, steps = np.asarray(targets), []
        while (live := node != self.bfs_order[0]).any():
            steps.append((live, self.bfs_gen[node]))
            node = np.where(live, self.bfs_parent[node], node)
        cur = np.array(starts, dtype=columns.dtype)
        for live, via in reversed(steps):
            cur[live] = columns[via[live], cur[live]]
        return cur

    def right_columns(self, factors: Sequence[Element]) -> list[np.ndarray]:
        """For each a in ``factors``, the permutation i -> index(elements[i] * a)."""
        arr = self.array()
        return [self.indices_of_rows(self.ambient.mul_cols(arr, a)).astype(np.int32)
                for a in factors]

    def inverse_permutation(self) -> np.ndarray:
        """i -> index(elements[i]^-1)."""
        return self.indices_of_rows(self.ambient.inv_array(self.array())).astype(np.int32)

    def element_orders(self) -> np.ndarray:
        """Orders of all elements, by :meth:`AmbientDescriptor.orders_array`."""
        if self._orders is None:
            orders = self.ambient.orders_array(self.array())
            orders.setflags(write=False)
            self._orders = orders
        return self._orders

    def small_generators(self) -> tuple[Element, ...]:
        """A short generating sequence (cached).

        Groups built by closure keep the generators they were built from,
        and maximal subgroups carry theirs.  Groups wrapped from other
        explicit element sets (intersections, centralizers, centers) store
        every element as a generator; for them this is the greedy sequence
        over canonical order (:func:`_absorb`).  Structural operations reduce
        to this sequence so that conjugation and commutator seed sets stay
        proportional to log|G| instead of |G|.
        """
        if self._small_gens is None:
            count = self.order if self._generators is None else len(self._generators)
            self._small_gens = (tuple(self.generators) if count <= 3 else
                                _absorb(self.ambient, self._array, self.order, self))
        return self._small_gens

    def central_mask(self) -> np.ndarray:
        """Boolean mask of elements commuting with every generator."""
        if self._central_mask is None:
            arr = self.array()
            mask = np.ones(self.order, dtype=bool)
            for a in self.small_generators():
                left = self.ambient.encode(self.ambient.mul_cols(arr, a))
                right = self.ambient.encode(self.ambient.mul_rows(a, arr))
                mask &= left == right
            mask.setflags(write=False)
            self._central_mask = mask
        return self._central_mask

    def is_abelian(self) -> bool:
        return not pair_commutators(self.ambient, self.small_generators()).any()

    def exponent(self) -> int:
        return int(self.element_orders().max()) if self.order > 1 else 1


def _rows(ambient: AmbientDescriptor,
          elements: Iterable[Element] | np.ndarray) -> np.ndarray:
    """Element tuples or rows as int64 rows; ValueError on a non-element."""
    rows = np.asarray(elements if isinstance(elements, np.ndarray) else list(elements),
                      dtype=np.int64)
    if rows.size and (rows.shape[-1] != ambient.width or (rows < 0).any()
                      or (rows >= np.array(ambient.radices)).any()):
        raise ValueError("rows are not ambient elements")
    return rows.reshape(-1, ambient.width)


def _bfs(ambient: AmbientDescriptor, gens: Sequence[Element],
         bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """Breadth-first closure, one whole level at a time.

    Returns the element rows in discovery order with, for each, the
    discovery number of its parent and the generator that led to it (0 and
    0 for the identity), and the level boundaries: level l holds discovery
    numbers levels[l] to levels[l + 1] - 1.  Within a level the candidates
    are ordered by parent and then by generator, and each new element keeps
    its first candidate, so the order is the FIFO order of a one-at-a-time
    search.
    """
    width = ambient.width
    gen_rows = _rows(ambient, gens)
    seen = np.zeros(ambient.order, dtype=bool)
    seen[0] = True  # the identity, key 0
    # first candidate position of a key within the current level
    first = np.empty(ambient.order, dtype=np.int64)
    frontier = np.zeros((1, width), dtype=np.int64)
    rows, parents, via = [frontier], [np.zeros(1, np.int64)], [np.zeros(1, np.int64)]
    levels = [0, 1]
    while frontier.shape[0] and len(gens):
        cand = ambient.mul_array(np.repeat(frontier, len(gens), axis=0),
                                 np.tile(gen_rows, (frontier.shape[0], 1)))
        keys = ambient.encode(cand)
        fresh = np.flatnonzero(~seen[keys])
        first[keys[fresh[::-1]]] = fresh[::-1]
        new = fresh[first[keys[fresh]] == fresh]
        if levels[-1] + new.size > bound:
            raise GuardExceeded(f"closure exceeded guard {bound}")
        seen[keys[new]] = True
        parents.append(levels[-2] + new // len(gens))
        via.append(new % len(gens))
        frontier = cand[new]
        rows.append(frontier)
        if new.size:
            levels.append(levels[-1] + new.size)
    return (np.concatenate(rows), np.concatenate(parents), np.concatenate(via),
            tuple(levels))


def _absorb(ambient: AmbientDescriptor, candidates: np.ndarray, bound: int,
            within: Optional[FiniteGroup] = None) -> tuple[Element, ...]:
    """Candidate rows taken in order, each one outside the subgroup E = <S>
    of those taken before, until E holds every candidate.  E is grown, not
    closed again: taking g adds E g minus E, then what new elements reach by
    right products with S and g (E itself is closed under S).  Raises
    GuardExceeded past ``bound`` elements, KeyError on leaving ``within``.
    """
    keys = ambient.encode(candidates)
    seen = np.zeros(ambient.order, dtype=bool)
    seen[0] = True  # the identity, key 0
    members, taken = [np.zeros((1, ambient.width), dtype=np.int64)], []
    while not (have := seen[keys]).all():
        taken.append(candidates[int(np.argmin(have))])
        gens = np.stack(taken)
        cand = ambient.mul_array(np.concatenate(members), gens[-1:])
        while cand.size:
            cand_keys = ambient.encode(cand)
            fresh = np.flatnonzero(~seen[cand_keys])
            new_keys, first = np.unique(cand_keys[fresh], return_index=True)
            if sum(map(len, members)) + new_keys.size > bound:
                raise GuardExceeded(f"closure exceeded guard {bound}")
            seen[new_keys] = True
            members.append(cand[fresh[first]])
            if within is not None:
                within.indices_of_rows(members[-1])
            cand = ambient.mul_array(np.repeat(members[-1], len(gens), axis=0),
                                     np.tile(gens, (len(members[-1]), 1)))
    return tuple(map(tuple, np.array(taken).tolist()))


def _from_bfs(ambient: AmbientDescriptor, gens: tuple[Element, ...],
              bfs: tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]
              ) -> FiniteGroup:
    """The group found by a breadth-first closure, in canonical order.

    ``gens`` are kept as the group's small generators as well.
    """
    rows, parent, via, levels = bfs
    keys = ambient.encode(rows)
    order = np.argsort(keys)
    # discovery number -> canonical index
    index_of = np.empty(order.size, dtype=np.int32)
    index_of[order] = np.arange(order.size)
    fields = (rows[order], keys[order], index_of, index_of[parent[order]],
              via[order].astype(np.int32))
    for arr in fields:
        arr.setflags(write=False)
    return FiniteGroup(ambient, *fields, bfs_levels=levels,
                       _generators=gens, _small_gens=gens)


def closure(ambient: AmbientDescriptor, generators: Sequence[Element],
            guard: Optional[int] = None) -> FiniteGroup:
    """Subgroup generated by ``generators``, by breadth-first multiplication.

    Elements are discovered FIFO with generators tried in the given order, so
    the derivation words are deterministic; the stored element list is then
    sorted into canonical (tuple) order.  ``guard`` bounds the subgroup size
    (default: ambient order).  The generators are also the group's small
    generators.
    """
    gens = tuple(generators)
    bound = ambient.order if guard is None else min(guard, ambient.order)
    return _from_bfs(ambient, gens, _bfs(ambient, gens, bound))


def generated_subgroup(ambient: AmbientDescriptor,
                       seeds: Iterable[Element] | np.ndarray,
                       guard: Optional[int] = None) -> FiniteGroup:
    """Subgroup generated by a (possibly large, redundant) seed set, given as
    element tuples or as int64 element rows.

    Absorbs seeds one at a time in canonical order, skipping those already
    contained in the subgroup so far, which grows by each absorbed seed
    (:func:`_absorb`); the essential seeds become the generating set, and
    :func:`closure` on them gives the result and its words.  This
    keeps closure cheap when the seed set is much larger than a minimal
    generating set (powers of all elements, commutator seeds, ...).
    """
    bound = ambient.order if guard is None else min(guard, ambient.order)
    rows = _rows(ambient, seeds)
    # keys ascend with tuple order: the distinct seeds, sorted
    first = np.unique(ambient.encode(rows), return_index=True)[1]
    return closure(ambient, _absorb(ambient, rows[first], bound), bound)


def subgroup_from_elements(ambient: AmbientDescriptor,
                           elements: Iterable[Element] | np.ndarray,
                           verify: bool = True) -> FiniteGroup:
    """Wrap a set already known (or verified) to be closed as a FiniteGroup.

    ``elements`` are tuples or int64 rows.  Every element is its own
    generator (identity gets the empty word), which keeps stored words
    trivially valid.  With ``verify`` the set S is proved closed at linear
    cost, and ValueError means the precondition was violated: the greedy
    generators T of :meth:`FiniteGroup.small_generators` are taken from S,
    and the subgroup generated by each prefix of T is grown with guard |S|
    and must lie in S.  So <T> <= S, and T covers S,
    so S <= <T>: S = <T> is a subgroup.  T is kept as the group's small
    generators.
    """
    rows = _rows(ambient, elements)
    keys, first = np.unique(ambient.encode(rows), return_index=True)
    if not keys.size or keys[0] != 0:
        raise ValueError("element set must contain the identity")
    arr, steps = rows[first], np.arange(keys.size, dtype=np.int32)
    parent = np.zeros(keys.size, np.int32)
    for a in (arr, keys, steps, parent):
        a.setflags(write=False)
    # every element on one level below the identity
    levels = (0, 1, keys.size) if keys.size > 1 else (0, 1)
    group = FiniteGroup(ambient, arr, keys, bfs_order=steps, bfs_parent=parent,
                        bfs_gen=steps, bfs_levels=levels)
    if verify:
        try:
            gens = _absorb(ambient, arr, keys.size, within=group)
        except (GuardExceeded, KeyError):
            raise ValueError("element set is not closed under multiplication") from None
        if keys.size > 3:
            group._small_gens = gens
    return group


# -- classical subgroups -----------------------------------------------------


def pair_commutators(ambient: AmbientDescriptor,
                     gens: Sequence[Element] | np.ndarray) -> np.ndarray:
    """[s, t] for every pair s before t of ``gens`` (tuples or rows), as
    rows: all are trivial iff the group the gens generate is abelian, and
    its derived subgroup is their normal closure."""
    gens = _rows(ambient, gens)
    pairs = [(i, j) for i in range(len(gens)) for j in range(i + 1, len(gens))]
    i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return ambient.comm_array(gens[i], gens[j])


def frattini_seeds(ambient: AmbientDescriptor,
                   gens: Sequence[Element] | np.ndarray) -> np.ndarray:
    """s^p for every s in ``gens`` (tuples or rows), then
    :func:`pair_commutators`: the seeds whose normal closure is the
    Frattini subgroup of the group they generate (:func:`frattini`)."""
    gens = _rows(ambient, gens)
    return np.concatenate([ambient.power_array(gens, ambient.p),
                           pair_commutators(ambient, gens)])


def normal_closure(ambient: AmbientDescriptor,
                   generators: Sequence[Element] | np.ndarray,
                   seeds: Sequence[Element] | np.ndarray,
                   guard: int) -> FiniteGroup:
    """Smallest subgroup containing ``seeds`` normalized by the group the
    ``generators`` generate, which has at most ``guard`` elements;
    ``generators`` and ``seeds`` are tuples or element rows.

    The conjugation orbit of the nontrivial seeds under the generators
    grows one level at a time on rows, deduplicated on keys, and the orbit
    is the seed set of :func:`generated_subgroup`.
    """
    gen_rows = _rows(ambient, generators)
    rows = _rows(ambient, seeds)
    keys, first = np.unique(ambient.encode(rows), return_index=True)
    frontier = rows[first[keys != 0]]  # the identity has key 0
    seen = np.zeros(ambient.order, dtype=bool)
    seen[keys] = True
    orbit = [frontier]
    while frontier.shape[0] and len(gen_rows):
        # h^a for every generator a and frontier row h
        cand = ambient.conj_array(np.tile(frontier, (len(gen_rows), 1)),
                                  np.repeat(gen_rows, frontier.shape[0], axis=0))
        keys, first = np.unique(ambient.encode(cand), return_index=True)
        fresh = ~seen[keys]
        seen[keys[fresh]] = True
        frontier = cand[first[fresh]]
        orbit.append(frontier)
    return generated_subgroup(ambient, np.concatenate(orbit), guard=guard)


def commutator_subgroup(group: FiniteGroup, left: FiniteGroup) -> FiniteGroup:
    """[left, group] for left a subgroup of group (both sharing the ambient),
    the normal closure of [h, a] over the small generators h of left and a
    of group."""
    amb = group.ambient
    hs, gens = _rows(amb, left.small_generators()), _rows(amb, group.small_generators())
    return normal_closure(amb, gens, amb.comm_array(np.repeat(hs, len(gens), axis=0),
                                                    np.tile(gens, (len(hs), 1))),
                          group.order)


def derived_subgroup(group: FiniteGroup) -> FiniteGroup:
    return commutator_subgroup(group, group)


def lower_central_series(group: FiniteGroup) -> list[FiniteGroup]:
    """gamma_1 = G >= gamma_2 = [G, G] >= ... down to the trivial subgroup."""
    series = [group]
    while series[-1].order > 1:
        nxt = commutator_subgroup(group, series[-1])
        if nxt.order == series[-1].order:
            raise RuntimeError("lower central series stalled; group not nilpotent")
        series.append(nxt)
    return series


def nilpotency_class(group: FiniteGroup) -> int:
    return len(lower_central_series(group)) - 1


def power_subgroup(group: FiniteGroup, s: int) -> FiniteGroup:
    """Subgroup generated by g^(p^s) for all g in the group."""
    if s < 0:
        raise ValueError("power exponent must be nonnegative")
    return generated_subgroup(group.ambient, group.ambient.power_array(
        group.array(), group.p ** s), guard=group.order)


def frattini(group: FiniteGroup) -> FiniteGroup:
    """Frattini subgroup Phi(G) = G' G^p of a finite p-group (computed once
    per group), as the normal closure N of the seeds s^p and [s, t] over the
    small generators s, t of G.

    N = Phi(G).  N is normal, and G/N is generated by the images of the
    small generators, which commute (their commutators lie in N) and have
    order dividing p.  So G/N is elementary abelian, and Phi(G), the
    smallest normal subgroup with an elementary abelian quotient, lies in
    N.  Every seed lies in G' G^p = Phi(G), which is normal, so N <= Phi(G).
    """
    if group._frattini is None:
        amb, gens = group.ambient, group.small_generators()
        group._frattini = normal_closure(amb, gens, frattini_seeds(amb, gens),
                                         group.order)
    return group._frattini


def centralizer_mod(group: FiniteGroup, upper: FiniteGroup,
                    lower: FiniteGroup) -> FiniteGroup:
    """C_group(upper/lower): elements g with [g, u] in lower for all u in upper.

    ``lower`` must be normalized by both ``group`` and ``upper`` for the result
    to be a subgroup; closure of the filtered set is verified and a violation
    raises ValueError.  [g, u] is taken for every row g at once, for each
    small generator u of ``upper``.
    """
    if not upper.contains(lower):
        raise ValueError("lower must be contained in upper")
    amb = group.ambient
    arr = group.array()
    mask = np.ones(group.order, dtype=bool)
    for u in _rows(amb, upper.small_generators()):
        mask &= lower.has_keys(amb.encode(amb.comm_array(arr, u[None])))
    return subgroup_from_elements(amb, arr[mask], verify=True)


def _orbit_minima(columns: Sequence[np.ndarray], size: int) -> np.ndarray:
    """Smallest point of the orbit of every point 0..size-1 under ``columns``.

    ``columns`` are permutations of range(size).  Each round every point
    reads the labels of its images, every label root takes the smallest
    value its members read, and pointer jumping then sends each point to its
    root.  At the fixed point labels never drop along a permutation, and a
    permutation returns to its start, so each orbit has one label: its
    smallest point.
    """
    label = np.arange(size)
    while True:
        seen = label
        for col in columns:
            seen = np.minimum(seen, label[col])
        new = label.copy()
        np.minimum.at(new, label, seen)
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, label):
            return label
        label = new


def conjugacy_classes(group: FiniteGroup) -> np.ndarray:
    """Conjugacy classes as a read-only label array: entry i is the index of
    element i's smallest conjugate.  Computed once per group."""
    if group._class_label is None:
        arr = group.array()
        # columns of the conjugation maps g -> a^-1 g a for each generator
        conj_cols = [group.indices_of_rows(group.ambient.conj_array(arr, a[None]))
                     for a in _rows(group.ambient, group.small_generators())]
        label = _orbit_minima(conj_cols, group.order)
        label.setflags(write=False)
        group._class_label = label
    return group._class_label


def centralizer_index(group: FiniteGroup, g: Element) -> int:
    """|G : C_G(g)| = size of the conjugacy class of g, an element of G."""
    label = conjugacy_classes(group)
    return int(np.count_nonzero(label == label[group.index(g)]))


def frattini_coordinates(group: FiniteGroup) -> np.ndarray:
    """Coordinates of every element in G/Phi(G) = F_p^s, one row per element:
    the letter counts of its breadth-first word, mod p.

    The s stored generators must be a basis of G/Phi(G), which holds iff
    p^s |Phi(G)| = |G|; otherwise, or for a group wrapped from an element
    set, ValueError.  Their images span G/Phi(G), which is elementary
    abelian of order p^s, so they are independent.  The quotient map sends
    generator j to e_j and is a homomorphism, so an element reached as its
    parent times generator j has its parent's row plus e_j.  The rows form
    a homomorphism onto F_p^s whose kernel is Phi(G), with stored
    generator j on row e_j.
    """
    p, gens = group.p, group._generators
    if gens is None or p ** len(gens) * frattini(group).order != group.order:
        raise ValueError("the stored generators are not a basis of G/Phi(G)")
    unit = np.eye(len(gens), dtype=np.int64)
    coords = np.zeros((group.order, len(gens)), dtype=np.int64)
    order, parent, via = group.bfs_order, group.bfs_parent, group.bfs_gen
    for lo, hi in zip(group.bfs_levels[1:-1], group.bfs_levels[2:]):
        level = order[lo:hi]
        coords[level] = (coords[parent[level]] + unit[via[level]]) % p
    return coords


def maximal_subgroups(group: FiniteGroup) -> list[FiniteGroup]:
    """All maximal subgroups (index p), via hyperplanes of G/Frattini.

    M_w is the preimage of the hyperplane w.e = 0, where w is taken up to
    scalars with first nonzero entry w_j0 = 1.  It carries as small
    generators the generators of Phi(G) and b_i * b_j0^(-w_i) for i != j0,
    with b_j the stored generators, the basis of
    :func:`frattini_coordinates`.  These generate M_w: each lies in M_w,
    since its coordinates e_i - w_i e_j0 have dot product w_i - w_i w_j0 =
    0 with w; those d - 1 vectors are independent, so they span ker w, of
    dimension d - 1; and Phi(G), the kernel of the coordinates, is
    generated too.  A subgroup containing Phi(G) and mapping onto ker w is
    all of M_w.

    Returned sorted by key lists, so the order is deterministic.
    """
    p, amb = group.p, group.ambient
    elem_coords = frattini_coordinates(group)
    rank = elem_coords.shape[1]
    b = _rows(amb, group.generators)
    # b_j^-e for every exponent e < p and basis element j
    b_inv = amb.inv_array(b)
    inv_powers = np.stack([amb.power_array(b_inv, e) for e in range(p)])
    phi_gens = frattini(group).generators
    # hyperplane normals up to scalar: first nonzero coefficient equal 1
    subgroups = []
    for w in iter_product(range(p), repeat=rank):
        j0 = next((j for j, v in enumerate(w) if v), None)
        if j0 is None or w[j0] != 1:
            continue
        dots = (elem_coords @ np.array(w, dtype=np.int64)) % p
        sub = subgroup_from_elements(amb, group.array()[dots == 0], verify=False)
        others = np.array([i for i in range(rank) if i != j0], dtype=np.intp)
        carried = amb.mul_array(b[others], inv_powers[np.array(w)[others], j0])
        sub._small_gens = phi_gens + tuple(map(tuple, carried.tolist()))
        subgroups.append(sub)
    # sorted by key lists, compared as big-endian bytes: keys are
    # non-negative and every list has |G|/p of them, so the byte order is
    # the lists' order, and no key becomes a Python int
    subgroups.sort(key=lambda s: s.keys().astype(">i8").tobytes())
    return subgroups


def abelian_maximal_subgroups(group: FiniteGroup) -> list[FiniteGroup]:
    """The abelian maximal subgroups, in the order of
    :func:`maximal_subgroups` (computed once per group)."""
    if group._abelian_maximal is None:
        group._abelian_maximal = tuple(sub for sub in maximal_subgroups(group)
                                       if sub.is_abelian())
    return list(group._abelian_maximal)


def jennings_series(group: FiniteGroup) -> list[FiniteGroup]:
    """Dimension subgroups M_1 >= M_2 >= ... with M_i = [M_{i-1}, G] M_{ceil(i/p)}^p.

    Returns the chain down to (and including) the trivial subgroup.  The
    commutator part is seeded by [h, a] over the small generators h of
    M_{i-1} and a of G alone.  M_{i-1} is normal in G, so [M_{i-1}, G] is
    normal and contains the normal closure L of these seeds.  Modulo L
    every h commutes with every a, so M_{i-1}/L is generated by central
    elements of G/L and is central: [M_{i-1}, G] <= L.
    """
    p = group.p
    amb = group.ambient
    gens = _rows(amb, group.small_generators())
    series = [group]
    i = 2
    # terms may legitimately repeat; the chain still reaches 1 in finitely
    # many steps (the commutator part strictly shrinks once powers die out)
    while series[-1].order > 1:
        prev = _rows(amb, series[-1].small_generators())
        half = series[(i + p - 1) // p - 1]
        # [h, a] = h^-1 a^-1 h a for every pair of small generators h of
        # M_{i-1} and a of G, and the p-th powers of half
        comms = amb.comm_array(np.repeat(prev, len(gens), axis=0),
                               np.tile(gens, (len(prev), 1)))
        seeds = np.concatenate([comms, amb.power_array(half.array(), p)])
        series.append(normal_closure(amb, gens, seeds, group.order))
        i += 1
        if i > p * group.order + 2:
            raise RuntimeError("Jennings series failed to terminate")
    return series


def jennings_factor_orders(group: FiniteGroup) -> list[int]:
    series = jennings_series(group)
    return [series[i].order // series[i + 1].order for i in range(len(series) - 1)]


__all__ = [
    "FiniteGroup", "Word", "closure", "generated_subgroup",
    "subgroup_from_elements", "pair_commutators", "frattini_seeds",
    "normal_closure", "commutator_subgroup",
    "derived_subgroup", "lower_central_series", "nilpotency_class",
    "power_subgroup", "frattini", "centralizer_mod",
    "conjugacy_classes", "centralizer_index", "frattini_coordinates",
    "maximal_subgroups", "abelian_maximal_subgroups", "jennings_series",
    "jennings_factor_orders",
]
