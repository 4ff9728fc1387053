"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the code paths they check: naive
dict-convolution products, a self-contained GF(p) eliminator for the
regular-representation unit test, set-based closure, a set-based
centralizer C_G(G'/Phi(G')), an element-order census for abelian types,
and a quadratic pairwise scan for the class-sum power count.

The group layer itself is table-free and vectorized; its earlier
implementations live on here as oracles: a dict-based one-at-a-time
closure, element orders and conjugacy classes read from the Cayley table
(the program keeps only each element's class label; ``classes_from_labels``
turns the labels into the index tuples the program once returned),
a per-element coset scan for the maximal subgroups, the greedy
absorption of seeds one closure at a time, the pairwise closure test
of an element set, the Cayley table built one row product at a time,
the presentation search that tests each candidate pair for generation by
closure, the centralizer index as an orbit walked one element at a
time, the centralizer modulo a subgroup by scalar commutators, and the
normal closure from an orbit grown as a set.  A group keeps its elements
only as sorted int64 rows and keys; the construction that stored them as tuples
with a dict index and tuple-valued breadth-first fields is an oracle here,
and so is the absorption of a seed set that closes each prefix again from
the identity and then closes the essential seeds once more.  A generated
subgroup keeps the absorption's own derivation tree, which
``assert_valid_tree`` checks against the tree contract.

Each ambient kind's group law is written once in the program, on rows
(``mul_array`` and ``inv_array``, with ``comm_array``, ``conj_array`` and
``orders_array`` built on them), and its one-element ``mul``, ``inv``,
``power`` and ``comm`` are one-row calls of them; the per-kind scalar law
they replaced is the reference here (``ref_mul``, ``ref_inv`` and what is
built on them: ``ref_conj``, ``ref_comm``, ``ref_order`` and ``ref_word``),
and every oracle that multiplies one element at a time uses it.

The table ambient proves associativity by Light's test on the two table
generators; the n^3 check of all triples is the oracle here, and so are
the built-in tables filled one entry at a time.
The ideal dimensions of the invariant report are a closed form in the
program; here they come from two eliminations, the program's FpMatrix and a
dense numpy one that shares no code with it.

Algebra products multiply support pairs on the group engine; the product
through the Cayley table they replaced is an oracle here, and so are the
Jennings series seeds collected one scalar commutator and power at a time
and the Jennings series closed at every index, not only at its breakpoints.
The program needs neither the filtration quotients of the augmentation
ideal nor Jennings' formula for them, unit inverses or the center as a
group; they live here: the quotient dimensions by an elimination over F_p
of their own, the formula, the inverse as a power, and the center wrapped
from the central mask.

The witness runs its group theory on the group engine; its earlier
algebra-element versions are oracles here: the unit-pair recognition by
products, inverses and normal closure of units, the unit Cayley table by
float32 matrix products, and independence modulo A^2 by eliminating the
basis of A^2.  The witness multiplies units only in its vectorized
closure, and carries G's basis and checks multiplicativity on the unit
group's generator columns; the oracles for these are the closure one
algebra product at a time, the transport by algebra products along G's
tree, the generator check, seeded pairs and all pairs by algebra products
(the last by float32 matrix products).  Spanning is the unit-sum lemma,
with the FpMatrix rank of the units as its oracle.  The witness never
builds the unit group as a group: both products of a pair read the right
factor's word in G, and on altered columns, where no algebra product
applies, the oracle walks each word of ``G.words`` one generator at a
time.

The isomorphism oracle takes the image of the first generator among the
conjugacy class minima and filters blocks of image pairs as 2-D masks; the
enumeration it replaced, one b1 at a time over every element of B, is the
reference here (``enumeration_isomorphic``).

The variant isomorphisms are read off the defining relations of the
stored pairs; the search for the first pair in canonical order that the
structural recognition clauses accept, which reads the Cayley table, is
an oracle here.  So are those clauses (orders, central squares, derived
subgroup, <a^2, b^2> meeting it trivially) on a generating pair, which the
witness once ran on its unit group: its basis transport proves that group
isomorphic to G.  On unit pairs they run on algebra products.

Reports are streamed by the program's own canonical encoder; the stdlib
rendering it replaced, ``json.dumps`` of a converted copy of the whole
report, is the oracle for its bytes here (``reference_json``).

The structure report reads P = K x C x D and its index-2 subgroup
M = <r, c, d> from the ambient's normal form and enumerates neither; the
coordinate box that once held them, every element with its word checked
(``coordinate_box``), is the oracle here, with the intersection of two
groups by key search (``intersection``) for the meets with M.
"""

from __future__ import annotations

import json
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import product as iter_product
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import pytest

from mipverify.algebra import (AlgebraElement, FpMatrix, GroupAlgebra,
                               _pair_blocks, unit_order)
from mipverify.ambient import (TWO_GENERATOR_VARIANTS, Element, GuardExceeded,
                               int_log, make_ambient)
from mipverify.family import FamilyInstance, build_family
from mipverify import groups as groups_mod
from mipverify.groups import (FiniteGroup, closure, derived_subgroup,
                              frattini, generated_subgroup, normal_closure,
                              subgroup_from_elements)
from mipverify.isomorphism import (ClauseList, _check_candidate,
                                   _pair_profile)
from mipverify.report import HexRows
from mipverify.tables import semidirect_c9c9_table, wreath_cyclic_table
from mipverify.witness import UnitGroupSubgroup

# Elements whose words coordinate_box checks in one product: the parents'
# rows and their products stay at 0.5 MB each at width 4.
_BOX_BLOCK_ROWS = 2 ** 14

# --- the reference group law ----------------------------------------------------


def ref_mul(amb, g: Element, h: Element) -> Element:
    """g * h by the per-kind scalar law."""
    if amb.variant in TWO_GENERATOR_VARIANTS:
        e1, i1, a1, b1 = g
        e2, i2, a2, b2 = h
        rot = amb.radices[1]
        i = (amb.theta * i1 + i2) if e2 else (i1 + i2)
        if amb.carry and e1 and e2:
            i += rot >> 1
        return (e1 ^ e2, i % rot, (a1 + a2) % amb.radices[2],
                (b1 + b2) % amb.radices[3])
    if amb.variant == "heisenberg":
        p = amb.p
        return ((g[0] + h[0]) % p, (g[1] + h[1]) % p,
                (g[2] + h[2] + g[0] * h[1]) % p,
                (g[3] + h[3]) % amb.radices[3],
                (g[4] + h[4]) % amb.radices[4])
    return (int(amb.table[g[0], h[0]]), (g[1] + h[1]) % amb.radices[1],
            (g[2] + h[2]) % amb.radices[2])


def ref_inv(amb, g: Element) -> Element:
    """g^-1 by the per-kind scalar closed forms."""
    if amb.variant in TWO_GENERATOR_VARIANTS:
        e, i, a, b = g
        rot = amb.radices[1]
        if e:
            j = -amb.theta * i
            if amb.carry:
                j -= rot >> 1
        else:
            j = -i
        return (e, j % rot, -a % amb.radices[2], -b % amb.radices[3])
    if amb.variant == "heisenberg":
        p = amb.p
        return (-g[0] % p, -g[1] % p, (-g[2] + g[0] * g[1]) % p,
                -g[3] % amb.radices[3], -g[4] % amb.radices[4])
    return (int(amb.table_inv[g[0]]), -g[1] % amb.radices[1],
            -g[2] % amb.radices[2])


def ref_power(amb, g: Element, e: int) -> Element:
    if e < 0:
        g, e = ref_inv(amb, g), -e
    acc = amb.identity
    base = g
    while e:
        if e & 1:
            acc = ref_mul(amb, acc, base)
        base = ref_mul(amb, base, base)
        e >>= 1
    return acc


def ref_conj(amb, g: Element, h: Element) -> Element:
    """g^h = h^-1 g h."""
    return ref_mul(amb, ref_mul(amb, ref_inv(amb, h), g), h)


def ref_comm(amb, g: Element, h: Element) -> Element:
    """[g, h] = g^-1 h^-1 g h."""
    return ref_mul(amb, ref_inv(amb, ref_mul(amb, h, g)), ref_mul(amb, g, h))


def ref_order(amb, g: Element) -> int:
    o = 1
    while g != amb.identity:
        g = ref_power(amb, g, amb.p)
        o *= amb.p
    return o


def ref_word(group: FiniteGroup, word: Sequence[int]) -> Element:
    """The product of ``group``'s generators along ``word``, left to right."""
    acc = group.identity
    for j in word:
        acc = ref_mul(group.ambient, acc, group.generators[j])
    return acc


# --- naive oracles -------------------------------------------------------------


def naive_product(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Dict-convolution product, one group multiplication per support pair."""
    alg = u.algebra
    group = alg.group
    acc: Dict[Element, int] = {}
    for i in u.support():
        gi = group.elements[i]
        ci = u.coeff(i)
        for j in v.support():
            gj = group.elements[j]
            key = ref_mul(group.ambient, gi, gj)
            acc[key] = (acc.get(key, 0) + ci * v.coeff(j)) % alg.p
    out = alg.zero()
    for g, coef in acc.items():
        if coef:
            out = out + alg.embed(g).scale(coef)
    return out


def naive_power(u: AlgebraElement, e: int) -> AlgebraElement:
    out = u.algebra.one()
    for _ in range(e):
        out = naive_product(out, u)
    return out


def modp_rank(rows: Sequence[Sequence[int]], p: int) -> int:
    """Row-echelon rank over F_p via fraction-free elimination on lists."""
    mat = [[x % p for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def gf2_rank_bitmask(rows: Sequence[int]) -> int:
    """GF(2) rank of rows packed as Python ints (own eliminator, no numpy)."""
    basis: List[int] = []
    for row in rows:
        for b in basis:
            low = b & -b
            if row & low:
                row ^= b
        if row:
            basis.append(row)
    return len(basis)


def regular_rep_is_unit(u: AlgebraElement) -> bool:
    """Unit test by rank of the left-multiplication matrix (independent route).

    Row g of the matrix is the vector of e_g * u, built directly by
    translating u's support and locating products in a local dict index;
    the rank comes from a local eliminator.
    """
    alg = u.algebra
    group = alg.group
    index = {g: i for i, g in enumerate(group.elements)}
    support = u.support()
    if alg.p == 2:
        packed: List[int] = []
        for g in group.elements:
            row = 0
            for j in support:
                row |= 1 << index[ref_mul(group.ambient, g, group.elements[j])]
            packed.append(row)
        return gf2_rank_bitmask(packed) == alg.dim
    rows: List[List[int]] = []
    for g in group.elements:
        row = [0] * alg.dim
        for j in support:
            idx = index[ref_mul(group.ambient, g, group.elements[j])]
            row[idx] = (row[idx] + u.coeff(j)) % alg.p
        rows.append(row)
    return modp_rank(rows, alg.p) == alg.dim


def order_census(group: FiniteGroup) -> Counter:
    return Counter(int(o) for o in group.element_orders())


def abelian_type_census_check(group: FiniteGroup, parts: Tuple[int, ...]) -> bool:
    """Does the claimed type reproduce the census of orders dividing p^s?

    For an abelian p-group of type (p^{e_1}, ..., p^{e_r}) the number of
    elements of order dividing p^s is p^{sum_i min(e_i, s)}; those counts
    determine the type, so matching them for every s is a complete check.
    """
    p = group.ambient.p
    census = order_census(group)
    prod = 1
    for part in parts:
        prod *= int(part)
    if prod != group.order:
        return False
    exps = [int_log(p, part) for part in parts]
    s = 0
    while p ** s <= group.exponent():
        expected = p ** sum(min(e, s) for e in exps)
        actual = sum(cnt for o, cnt in census.items() if o <= p ** s)
        if expected != actual:
            return False
        s += 1
    return True


def naive_closure(group_ambient, generators: Sequence[Element]) -> frozenset:
    """Set-based breadth-first closure, no vectorization."""
    seen = {group_ambient.identity}
    frontier = [group_ambient.identity]
    gens = list(generators)
    for g in gens:
        if g not in seen:
            seen.add(g)
            frontier.append(g)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = ref_mul(group_ambient, a, g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return frozenset(seen)


def naive_derived_centralizer(group: FiniteGroup) -> frozenset:
    """{g : [g, w] in Phi(G') for all w in G'}, from set closures of all
    commutators and p-th powers."""
    amb = group.ambient
    elems = group.elements
    der = naive_closure(amb, {ref_comm(amb, g, h) for g in elems for h in elems})
    phi = naive_closure(amb, {ref_comm(amb, a, b) for a in der for b in der}
                        | {ref_power(amb, a, amb.p) for a in der})
    return frozenset(g for g in elems
                     if all(ref_comm(amb, g, w) in phi for w in der))


class BfsClosure(NamedTuple):
    elements: tuple
    words: tuple
    bfs_order: tuple
    bfs_parent: tuple
    bfs_gen: tuple


def dict_closure(ambient, generators: Sequence[Element],
                 guard: Optional[int] = None) -> BfsClosure:
    """One-element-at-a-time FIFO closure over dicts, with its derivation data."""
    gens = tuple(generators)
    bound = ambient.order if guard is None else min(guard, ambient.order)
    ident = ambient.identity
    words: Dict[Element, tuple] = {ident: ()}
    parents: Dict[Element, Tuple[Element, int]] = {}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for j, a in enumerate(gens):
                h = ref_mul(ambient, g, a)
                if h not in words:
                    words[h] = words[g] + (j,)
                    parents[h] = (g, j)
                    nxt.append(h)
                    if len(words) > bound:
                        raise GuardExceeded(f"closure exceeded guard {bound}")
        frontier = nxt
    elements = tuple(sorted(words))
    index = {g: i for i, g in enumerate(elements)}
    bfs_elems = sorted(words, key=lambda g: (len(words[g]), words[g]))
    bfs_parent = [0] * len(elements)
    bfs_gen = [0] * len(elements)
    for g, (par, j) in parents.items():
        bfs_parent[index[g]] = index[par]
        bfs_gen[index[g]] = j
    return BfsClosure(elements, tuple(words[g] for g in elements),
                      tuple(index[g] for g in bfs_elems), tuple(bfs_parent),
                      tuple(bfs_gen))


def greedy_generators(ambient, seeds) -> tuple:
    """Seeds in canonical order, each kept if outside the closure of those kept."""
    kept: List[Element] = []
    have = {ambient.identity}
    for g in sorted(set(seeds)):
        if g not in have:
            kept.append(g)
            have = set(dict_closure(ambient, kept).elements)
    return tuple(kept)


class TupleGroup(NamedTuple):
    """A group as element tuples with a dict index and tuple-valued
    breadth-first fields."""
    elements: tuple
    index: dict
    bfs_order: tuple
    bfs_parent: tuple
    bfs_gen: tuple
    bfs_levels: tuple
    small_generators: tuple

    @property
    def identity_index(self) -> int:
        return self.index[(0,) * len(self.elements[0])]

    @property
    def words(self) -> tuple:
        words: List[tuple] = [()] * len(self.elements)
        for i in self.bfs_order[1:]:
            words[i] = words[self.bfs_parent[i]] + (self.bfs_gen[i],)
        return tuple(words)


def tuple_from_bfs(ambient, gens: Sequence[Element], bfs) -> TupleGroup:
    """The group of a breadth-first closure (the program's ``_bfs`` output),
    sorted into tuple order, with a dict index."""
    rows, parent, via, levels = bfs
    order = np.argsort(ambient.encode(rows))
    index_of = np.empty_like(order)
    index_of[order] = np.arange(order.size)
    elements = tuple(map(tuple, rows[order].tolist()))
    return TupleGroup(elements, dict(zip(elements, range(order.size))),
                      tuple(index_of.tolist()),
                      tuple(index_of[parent[order]].tolist()),
                      tuple(via[order].tolist()), tuple(levels), tuple(gens))


def tuple_subgroup_from_elements(ambient, elements: Sequence[Element]) -> TupleGroup:
    """An element set sorted as tuples, every element its own generator
    under the identity; greedy small generators above three elements."""
    elems = tuple(sorted(set(elements)))
    index = {g: i for i, g in enumerate(elems)}
    ident = index[ambient.identity]
    levels = (0, 1, len(elems)) if len(elems) > 1 else (0, 1)
    small = greedy_generators(ambient, elems) if len(elems) > 3 else elems
    return TupleGroup(elems, index,
                      (ident,) + tuple(i for i in range(len(elems)) if i != ident),
                      (ident,) * len(elems), tuple(range(len(elems))), levels,
                      small)


def reclosing_generated_subgroup(ambient, seeds, guard: Optional[int] = None
                                 ) -> Tuple[tuple, TupleGroup]:
    """Essential seeds and group of a seed set (tuples or rows): the seeds
    absorbed in canonical order, each prefix closed again from the identity
    (:func:`greedy_generators`), then one closure on the essential seeds."""
    bound = ambient.order if guard is None else min(guard, ambient.order)
    essential = greedy_generators(ambient, map(tuple, np.asarray(seeds).tolist()))
    return essential, tuple_from_bfs(ambient, essential,
                                     groups_mod._bfs(ambient, essential, bound))


def assert_valid_tree(group: FiniteGroup, label) -> None:
    """The derivation-tree contract that every reader of the ``bfs_*``
    fields needs: ``bfs_order`` is a permutation whose levels partition it,
    with the identity alone on level 0; every parent lies on an earlier
    level; ``mul_array`` of the parent rows by the generator rows gives the
    element rows; and each element's word, evaluated with the scalar law,
    gives the element."""
    order, parent, via = group.bfs_order, group.bfs_parent, group.bfs_gen
    levels, size = group.bfs_levels, group.order
    assert sorted(order.tolist()) == list(range(size)), label
    assert levels[:2] == (0, 1) and levels[-1] == size, label
    assert all(lo < hi for lo, hi in zip(levels, levels[1:])), label
    assert order[0] == group.identity_index, label
    depth = np.empty(size, dtype=np.int64)
    for level, (lo, hi) in enumerate(zip(levels, levels[1:])):
        depth[order[lo:hi]] = level
    rest = order[1:]
    assert (depth[parent[rest]] < depth[rest]).all(), label
    rows = group.array()
    gens = np.array(group.generators, dtype=np.int64).reshape(-1, rows.shape[1])
    assert np.array_equal(group.ambient.mul_array(rows[parent[rest]], gens[via[rest]]),
                          rows[rest]), label
    assert all(ref_word(group, word) == group.element(i)
               for i, word in enumerate(group.words)), label


def assert_same_group(got: FiniteGroup, want: TupleGroup, label,
                      small_generators: bool = True, tree: bool = True) -> None:
    """Field-by-field equality of a group with its tuple-built oracle.
    Without ``tree`` the breadth-first fields need not agree, only satisfy
    :func:`assert_valid_tree`."""
    assert got.elements == want.elements, label
    assert [got.index(g) for g in want.elements] == list(range(len(want.elements))), label
    assert all(g in got for g in want.elements), label
    assert got.identity_index == want.identity_index, label
    if tree:
        for name in ("bfs_order", "bfs_parent", "bfs_gen"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (label, name)
        assert got.bfs_levels == want.bfs_levels, label
        assert got.words == want.words, label
    else:
        assert_valid_tree(got, label)
    if small_generators:
        assert got.small_generators() == want.small_generators, label


def assert_generated_matches_reclosing(got: FiniteGroup, ambient, seeds,
                                       guard: Optional[int], label) -> None:
    """A generated subgroup has the elements, generators and small
    generators of the absorption that closes each prefix again, and a valid
    derivation tree of its own (not that closure's breadth-first one)."""
    essential, want = reclosing_generated_subgroup(ambient, seeds, guard)
    assert got.generators == essential, label
    assert_same_group(got, want, label, tree=False)


def table_element_orders(group: FiniteGroup) -> np.ndarray:
    """Element orders by repeated p-th powers through the Cayley table."""
    table = group.cayley_table()
    orders = np.ones(group.order, dtype=np.int64)
    cur = np.arange(group.order, dtype=np.int32)
    q = 1
    while True:
        pending = cur != group.identity_index
        if not pending.any():
            return orders
        nxt = cur
        for _ in range(group.p - 1):
            nxt = table[nxt, cur]
        cur = nxt
        q *= group.p
        orders[pending] = q


def table_conjugacy_classes(group: FiniteGroup) -> List[tuple]:
    """Orbits of the conjugation columns read from the Cayley table."""
    table = group.cayley_table()
    invp = group.inverse_permutation()
    cols = [table[table[invp[group.index(a)]], group.index(a)]
            for a in group.small_generators()]
    seen: set = set()
    classes = []
    for i in range(group.order):
        if i in seen:
            continue
        orbit = {i}
        frontier = [i]
        while frontier:
            frontier = [int(col[j]) for j in frontier for col in cols
                        if int(col[j]) not in orbit]
            orbit.update(frontier)
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


def classes_from_labels(label: np.ndarray) -> List[tuple]:
    """The partition a class-label array names (entry i is the smallest
    element of i's class), as sorted index tuples ordered by that element."""
    classes: dict = {}
    for i, rep in enumerate(label.tolist()):
        classes.setdefault(rep, []).append(i)
    return [tuple(cls) for _, cls in sorted(classes.items())]


def coordinate_box(ambient, lead: int = 0) -> FiniteGroup:
    """The ambient elements whose first ``lead`` coordinates are 0, built
    without closure, with the unit vectors of the other coordinates as
    generators, each element's word checked.

    The box is the first order / (radices[0] ... radices[lead - 1]) keys,
    in key order.  The parent of an element is the element with its last
    nonzero coordinate j lowered by one, reached by the unit vector of j,
    and an element's level is its coordinate sum, one more than its
    parent's.  One ``mul_cols`` per generator and block of rows proves that
    every element is its parent times its generator, else RuntimeError; so
    every element is a word in the generators, and the box lies in the
    subgroup they generate.  The caller proves the converse: for ``lead`` =
    0 the box is the whole ambient, otherwise the box must be closed under
    products.
    """
    width, radices = ambient.width, ambient.radices
    size = ambient.order // math.prod(radices[:lead])
    keys = np.arange(size, dtype=np.int64)
    strides = [math.prod(radices[j + 1:]) for j in range(width)]
    rows = np.zeros((size, width), dtype=np.int64)
    last = np.full(size, lead, dtype=np.int8)  # the last nonzero coordinate
    level = np.zeros(size, dtype=np.int32)
    for j in range(lead, width):
        col = rows[:, j]
        np.floor_divide(keys, strides[j], out=col)
        np.remainder(col, radices[j], out=col)
        level += col
        last[col != 0] = j
    parent = (keys - np.array(strides)[last]).astype(np.int32)
    via = (last - lead).astype(np.int32)
    parent[0] = via[0] = 0  # the identity, key 0
    gens = tuple(tuple(int(i == j) % radices[i] for i in range(width))
                 for j in range(lead, width))
    for g, unit in enumerate(gens):
        child = np.flatnonzero(via == g)[int(g == 0):]
        for lo in range(0, child.size, _BOX_BLOCK_ROWS):
            block = child[lo:lo + _BOX_BLOCK_ROWS]
            products = ambient.mul_cols(rows[parent[block]], unit)
            if not np.array_equal(ambient.encode(products), block):
                raise RuntimeError("coordinate box: an element is not its parent "
                                   "times its generator")
    levels = (0, *np.cumsum(np.bincount(level)).tolist())
    bfs_order = np.argsort(level, kind="stable").astype(np.int32)
    for arr in (rows, keys, bfs_order, parent, via):
        arr.setflags(write=False)
    return FiniteGroup(ambient, rows, keys, bfs_order, parent, via, levels,
                       _generators=gens, _small_gens=gens)


def intersection(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    common = a.array()[b.has_keys(a.keys())]
    return subgroup_from_elements(a.ambient, common, verify=False)


def power_frattini(group: FiniteGroup) -> FiniteGroup:
    """Phi(G) = G' G^p by its definition: the derived subgroup's generators
    and the p-th power of every element, absorbed as one seed set."""
    amb = group.ambient
    derived = np.array(derived_subgroup(group).generators, dtype=np.int64)
    seeds = np.concatenate([derived.reshape(-1, amb.width),
                            amb.power_array(group.array(), group.p)])
    return generated_subgroup(amb, seeds, guard=group.order)


def coset_scan_maximal_subgroups(group: FiniteGroup) -> List[tuple]:
    """Element lists of the maximal subgroups, in sorted order, from one
    scan of g*Phi per element for its minimal element."""
    p = group.p
    phi_arr = frattini(group).array()
    phi_order = phi_arr.shape[0]
    rep_cache: Dict[Element, Element] = {}

    def rep(g: Element) -> Element:
        r = rep_cache.get(g)
        if r is None:
            coset = group.ambient.mul_cols(phi_arr, g)
            keys = group.ambient.encode(coset)
            r = tuple(int(v) for v in coset[int(np.argmin(keys))])
            rep_cache[r] = r
            rep_cache[g] = r
        return r

    basis: List[Element] = []
    span = {rep(group.identity)}
    for g in group.elements:
        rg = rep(g)
        if rg in span:
            continue
        basis.append(rg)
        new_span = set()
        for h in span:
            cur = h
            for _ in range(p):
                new_span.add(rep(cur))
                cur = ref_mul(group.ambient, cur, rg)
        span = new_span
    rank = len(basis)
    assert p ** rank * phi_order == group.order
    coords: Dict[Element, tuple] = {}
    for vec in iter_product(range(p), repeat=rank):
        g = group.identity
        for e, b in zip(vec, basis):
            g = ref_mul(group.ambient, g, ref_power(group.ambient, b, e))
        coords[rep(g)] = vec
    subgroups = []
    for w in iter_product(range(p), repeat=rank):
        if next((v for v in w if v), None) != 1:
            continue
        subgroups.append(tuple(
            g for g in group.elements
            if sum(a * b for a, b in zip(coords[rep(g)], w)) % p == 0))
    return sorted(subgroups)


def pairwise_closed(ambient, elements: Sequence[Element]) -> bool:
    """Is the element set closed?  One product row per element, O(|S|^2)."""
    elems = sorted(set(elements))
    arr = np.array(elems, dtype=np.int64)
    keys = ambient.encode(arr)
    for g in elems:
        prod_keys = ambient.encode(ambient.mul_rows(g, arr))
        pos = np.searchsorted(keys, prod_keys)
        if pos.max() >= keys.size or not np.array_equal(keys[pos], prod_keys):
            return False
    return True


def row_cayley_table(group: FiniteGroup) -> np.ndarray:
    """Cayley table from one row product and one key search per element."""
    arr = group.array()
    table = np.empty((group.order, group.order), dtype=np.int32)
    for i, g in enumerate(group.elements):
        keys = group.ambient.encode(group.ambient.mul_rows(g, arr))
        table[i] = np.searchsorted(group.keys(), keys)
    return table


def closure_presentation_witness(group: FiniteGroup, n: int, m: int, k: int,
                                 relations: str) -> Optional[tuple]:
    """First pair in canonical order satisfying the defining relations, each
    relation-satisfying candidate tested for generation by a closure (one
    closure for all pairs inside a proper subgroup already closed)."""
    table = group.cayley_table()
    invp = group.inverse_permutation()
    orders = group.element_orders()
    ident = group.identity_index
    half_pow = np.arange(group.order)
    for _ in range(k - 1):
        half_pow = table[half_pow, half_pow]
    bs = np.flatnonzero(orders == 2 ** m)
    # proper subgroups <a, b> closed so far, as masks: a pair inside one of
    # them generates no more than it
    closed: List[np.ndarray] = []
    for ia in np.flatnonzero(orders == 2 ** n).tolist():
        inv_a = int(invp[ia])
        u = table[table[table[invp[bs], inv_a], bs], ia]
        mask = (half_pow[u] == ident) & (u != ident)
        mask &= table[table[inv_a, bs], ia] == table[bs, u]
        mask &= table[table[inv_a, u], ia] == invp[u]
        mask &= table[table[invp[bs], u], bs] == (invp[u] if relations == "g" else u)
        covered = np.zeros(group.order, dtype=bool)
        for sub in closed:
            if sub[ia]:
                covered |= sub
        for ib in bs[mask].tolist():
            if covered[ib]:
                continue
            a, b = group.elements[ia], group.elements[ib]
            sub = closure(group.ambient, (a, b), guard=group.order + 1)
            if sub.order == group.order:
                return a, b
            closed.append(np.zeros(group.order, dtype=bool))
            closed[-1][group.indices_of_rows(sub.array())] = True
            covered |= closed[-1]
    return None


def enumeration_isomorphic(a_group: FiniteGroup, b_group: FiniteGroup) -> bool:
    """Whether A's stored generating pair has an image pair in B that
    extends to an isomorphism: every b1 of B one at a time, against every
    b2 at once, filtered by the pair profile and verified by transport."""
    if a_group.order != b_group.order:
        return False
    if len(a_group.generators) != 2:
        raise ValueError("oracle requires a 2-generated A with a stored generating pair")
    profile = _pair_profile(a_group, *a_group.generators)
    orders = b_group.element_orders()
    central = b_group.central_mask()
    table = b_group.cayley_table()
    invp = b_group.inverse_permutation()
    idx = np.arange(b_group.order)
    sq = table[idx, idx]
    b1s = np.flatnonzero((orders == profile[0]) & (central[sq] == profile[4]))
    b2s = np.flatnonzero((orders == profile[1]) & (central[sq] == profile[5]))
    a_cols = a_group.right_columns(a_group.generators)
    for ib1 in b1s.tolist():
        u = table[table[table[invp[b2s], invp[ib1]], b2s], ib1]
        prod = table[ib1, b2s]
        mask = orders[u] == profile[2]
        mask &= orders[prod] == profile[3]
        mask &= central[u] == profile[6]
        mask &= central[sq[prod]] == profile[7]
        mask &= orders[table[sq[ib1], sq[b2s]]] == profile[8]
        for ib2 in b2s[mask].tolist():
            if _check_candidate(a_group, a_cols, b_group, table, (ib1, ib2)):
                return True
    return False


@dataclass(frozen=True)
class RecognitionResult:
    ok: bool
    clauses: ClauseList


def _span_of_central_pair(group: FiniteGroup, u: Element, v: Element,
                          bound_u: int, bound_v: int) -> set[Element]:
    """{u^i v^j} for commuting u, v (used for <a^2, b^2>)."""
    span = set()
    ui = group.identity
    for _ in range(bound_u):
        uij = ui
        for _ in range(bound_v):
            span.add(uij)
            uij = ref_mul(group.ambient, uij, v)
        ui = ref_mul(group.ambient, ui, u)
    return span


def recognize_presented_group(group: FiniteGroup, a: Element, b: Element,
                              n: int, m: int, k: int) -> RecognitionResult:
    """Structural recognition of the target 2-group on the pair (a, b).

    Checks, in order: parameter validity (n > m >= k >= 3), |a| = 2^n,
    |b| = 2^m, a^2 and b^2 central, |G'| = 2^(k-1), and trivial intersection
    of <a^2, b^2> with G'.  All clauses passing certifies the isomorphism
    type of a group generated by (a, b); the pair must generate ``group``.
    """
    gen = closure(group.ambient, (a, b), guard=group.order + 1)
    if not np.array_equal(gen.keys(), group.keys()):
        raise ValueError("the pair (a, b) does not generate the group")
    clauses = ClauseList()
    clauses.add("parameters", "parameters satisfy n > m >= k >= 3",
                n > m >= k >= 3, n=n, m=m, k=k)
    amb = group.ambient
    oa = ref_order(amb, a)
    clauses.add("order-a", "first generator has order 2^n",
                oa == 2 ** n, order=oa, expected=2 ** n)
    ob = ref_order(amb, b)
    clauses.add("order-b", "second generator has order 2^m",
                ob == 2 ** m, order=ob, expected=2 ** m)
    a2, b2 = ref_mul(amb, a, a), ref_mul(amb, b, b)
    clauses.add("a-square-central", "square of the first generator is central",
                bool(group.central_mask()[group.index(a2)]))
    clauses.add("b-square-central", "square of the second generator is central",
                bool(group.central_mask()[group.index(b2)]))
    der = derived_subgroup(group)
    clauses.add("derived-order", "derived subgroup has order 2^(k-1)",
                der.order == 2 ** (k - 1), order=der.order,
                expected=2 ** (k - 1))
    if clauses[3].passed and clauses[4].passed:
        span = _span_of_central_pair(group, a2, b2,
                                     max(oa // 2, 1), max(ob // 2, 1))
        meet = span & der.element_set()
        clauses.add("central-squares-meet-derived-trivially",
                    "<a^2, b^2> intersects the derived subgroup trivially",
                    meet == {group.identity}, intersection_size=len(meet))
    else:
        clauses.add("central-squares-meet-derived-trivially",
                    "<a^2, b^2> intersects the derived subgroup trivially",
                    False, skipped="squares not central; span not enumerable as powers")
    return RecognitionResult(ok=clauses.ok, clauses=clauses)


def recognize_any_pair(group: FiniteGroup, n: int, m: int, k: int) -> Optional[tuple]:
    """First generating pair (canonical order) recognized, or None.

    Scans order-compatible pairs with cheap vectorized filters before running
    the full clause set of recognize_presented_group.
    """
    if not n > m >= k >= 3:
        return None
    if group.order != 2 ** (n + m + k - 1):
        return None
    der = derived_subgroup(group)
    if der.order != 2 ** (k - 1):
        return None
    orders = group.element_orders()
    central = group.central_mask()
    table = group.cayley_table()
    sq = table[np.arange(group.order), np.arange(group.order)]
    a_idx = np.flatnonzero((orders == 2 ** n) & central[sq])
    b_idx = np.flatnonzero((orders == 2 ** m) & central[sq])
    der_set = der.element_set()
    for ia in a_idx:
        a = group.element(ia)
        a2 = ref_mul(group.ambient, a, a)
        for ib in b_idx:
            b = group.element(ib)
            b2 = ref_mul(group.ambient, b, b)
            span = _span_of_central_pair(group, a2, b2, 2 ** (n - 1), 2 ** (m - 1))
            if span & der_set != {group.identity}:
                continue
            pair_closure = closure(group.ambient, (a, b), guard=group.order + 1)
            if pair_closure.order != group.order:
                continue
            res = recognize_presented_group(group, a, b, n, m, k)
            if res.ok:
                return a, b
    return None


def orbit_centralizer_index(group: FiniteGroup, g: Element) -> int:
    """|G : C_G(g)| as the size of g's orbit under conjugation by the
    generators, walked one element at a time."""
    orbit = {g}
    frontier = [g]
    while frontier:
        nxt = []
        for h in frontier:
            for a in group.small_generators():
                h2 = ref_conj(group.ambient, h, a)
                if h2 not in orbit:
                    orbit.add(h2)
                    nxt.append(h2)
        frontier = nxt
    return len(orbit)


def cubic_associative(table: np.ndarray) -> bool:
    """(i*j)*k == i*(j*k) for all n^3 triples, a block of rows i at a time
    (two (rows, n, n) index arrays of at most 2^20 entries each)."""
    size = table.shape[0]
    step = max(1, 2 ** 20 // (size * size))
    for start in range(0, size, step):
        block = table[start:start + step]
        if not np.array_equal(table[block, :], block[:, table]):
            return False
    return True


def loop_wreath_cyclic_table(p: int) -> Tuple[np.ndarray, Tuple[int, int]]:
    """C_p wr C_p filled one entry at a time from element tuples (v, j)."""
    elems = [v + (j,) for v in iter_product(range(p), repeat=p) for j in range(p)]
    index = {e: i for i, e in enumerate(elems)}
    table = np.empty((len(elems), len(elems)), dtype=np.int64)
    for i, e1 in enumerate(elems):
        v1, j1 = e1[:p], e1[p]
        for jdx, e2 in enumerate(elems):
            v2, j2 = e2[:p], e2[p]
            w = tuple((v1[idx] + v2[(idx - j1) % p]) % p for idx in range(p))
            table[i, jdx] = index[w + ((j1 + j2) % p,)]
    return table, (index[(0,) * p + (1,)], index[(1,) + (0,) * (p - 1) + (0,)])


def loop_semidirect_c9c9_table() -> Tuple[np.ndarray, Tuple[int, int]]:
    """(C9 x C9) : C3 filled one entry at a time, the action applied e times."""
    elems = [(i, j, e) for i in range(9) for j in range(9) for e in range(3)]
    index = {v: i for i, v in enumerate(elems)}

    def act(i: int, j: int, e: int) -> Tuple[int, int]:
        for _ in range(e % 3):
            i, j = -j % 9, (i - j) % 9
        return i, j

    table = np.empty((len(elems), len(elems)), dtype=np.int64)
    for a, (i1, j1, e1) in enumerate(elems):
        for b, (i2, j2, e2) in enumerate(elems):
            i3, j3 = act(i2, j2, e1)
            table[a, b] = index[((i1 + i3) % 9, (j1 + j3) % 9, (e1 + e2) % 3)]
    return table, (index[(0, 0, 1)], index[(1, 0, 0)])


def scalar_centralizer_mod(group: FiniteGroup, upper: FiniteGroup,
                           lower: FiniteGroup) -> frozenset:
    """{g : [g, u] in lower for every small generator u of upper}, one
    scalar commutator at a time."""
    lower_set = lower.element_set()
    return frozenset(g for g in group.elements
                     if all(ref_comm(group.ambient, g, u) in lower_set
                            for u in upper.small_generators()))


def set_normal_closure(group: FiniteGroup, seeds: Sequence[Element]) -> FiniteGroup:
    """Normal closure from the conjugation orbit grown as a set, one scalar
    conjugate at a time."""
    orbit = set()
    frontier = [g for g in seeds if g != group.identity]
    orbit.update(frontier)
    while frontier:
        nxt = []
        for g in frontier:
            for a in group.small_generators():
                h = ref_conj(group.ambient, g, a)
                if h not in orbit:
                    orbit.add(h)
                    nxt.append(h)
        frontier = nxt
    return generated_subgroup(group.ambient, orbit, guard=group.order)


def _unit_mulclose(algebra: GroupAlgebra, seeds: Sequence[AlgebraElement],
                   bound: int) -> List[AlgebraElement]:
    one = algebra.one()
    seen = {one.key: one}
    frontier = [one]
    while frontier:
        nxt = []
        for u in frontier:
            for a in seeds:
                prod = u * a
                if prod.key not in seen:
                    seen[prod.key] = prod
                    nxt.append(prod)
                    assert len(seen) <= bound, "unit subgroup closure exceeded bound"
        frontier = nxt
    return list(seen.values())


def algebra_unit_recognition(FH: GroupAlgebra, bound: int, a: AlgebraElement,
                             b: AlgebraElement, n: int, m: int,
                             k: int) -> Tuple[bool, dict]:
    """The recognition clauses on algebra elements: unit orders, central
    squares, the derived subgroup as the normal closure of [b, a] under
    conjugation by a and b, and <a^2, b^2> meeting it trivially."""
    data: dict = {}
    checks: List[Tuple[str, bool]] = [("parameters", n > m >= k >= 3)]
    oa, ob = unit_order(a), unit_order(b)
    data["order_a"], data["order_b"] = oa, ob
    checks += [("order-a", oa == 2 ** n), ("order-b", ob == 2 ** m)]
    gens = (a, b)
    a2, b2 = a * a, b * b
    checks += [("a-square-central", all(a2 * g == g * a2 for g in gens)),
               ("b-square-central", all(b2 * g == g * b2 for g in gens))]
    comm = unit_inverse(a * b) * (b * a)
    data["commutator_order"] = unit_order(comm)
    orbit = {comm.key: comm} if comm != FH.one() else {}
    frontier = list(orbit.values())
    while frontier:
        nxt = []
        for u in frontier:
            for c in gens:
                v = unit_inverse(c) * u * c
                if v.key not in orbit:
                    orbit[v.key] = v
                    nxt.append(v)
        frontier = nxt
    derived = _unit_mulclose(FH, list(orbit.values()), bound)
    data["derived_order"] = len(derived)
    checks.append(("derived-order", len(derived) == 2 ** (k - 1)))
    if checks[3][1] and checks[4][1]:
        span = set()
        ui = FH.one()
        for _ in range(max(oa // 2, 1)):
            uij = ui
            for _ in range(max(ob // 2, 1)):
                span.add(uij.key)
                uij = uij * b2
            ui = ui * a2
        meet = span & {u.key for u in derived}
        checks.append(("central-squares-meet-derived-trivially",
                       meet == {FH.one().key}))
        data["squares_meet_derived_size"] = len(meet)
    else:
        checks.append(("central-squares-meet-derived-trivially", False))
    data["subclauses"] = [{"id": cid, "passed": ok} for cid, ok in checks]
    failing = [cid for cid, ok in checks if not ok]
    data["first_failing"] = failing[0] if failing else None
    return not failing, data


def matmul_unit_table(subgroup) -> np.ndarray:
    """Cayley table T[i, j] = index(units[i] * units[j]) of a unit subgroup
    of an F_2 group algebra by float32 matrix products: row h of C_i is
    units[i] * h, so row j of V @ C_i is units[i] * units[j] (exact, every
    entry is a count below 2^24)."""
    alg = subgroup.algebra
    units = subgroup.elements
    size = len(units)
    vecs = np.stack([u.vec() for u in units]).astype(np.float32)
    index = {u.key: i for i, u in enumerate(units)}
    out = np.empty((size, size), dtype=np.int32)
    rows = np.arange(alg.dim)[:, None]
    scatter_cols = alg.group.cayley_table().T
    cbuf = np.empty((alg.dim, alg.dim), dtype=np.float32)
    for i, u in enumerate(units):
        cbuf[:] = 0.0
        cbuf[rows, scatter_cols] = u.vec()[None, :].astype(np.float32)
        prod = (vecs @ cbuf).astype(np.int64) & 1
        packed = np.packbits(prod.astype(np.uint8), axis=1, bitorder="little")
        for j in range(size):
            out[i, j] = index[int.from_bytes(packed[j].tobytes(), "little")]
    return out


def scalar_unit_closure(algebra: GroupAlgebra,
                        generators: Sequence[AlgebraElement],
                        safety_factor: int = 4
                        ) -> Tuple[UnitGroupSubgroup, Tuple[tuple, tuple]]:
    """Breadth-first closure of units one product at a time, by
    ``AlgebraElement.__mul__``: FIFO discovery with generators tried in
    order, the bound checked after every new element.  Returns the
    subgroup and its discovery tree: each unit's parent and generator."""
    gens = tuple(generators)
    bound = algebra.dim * safety_factor
    one = algebra.one()
    seen = {one.key: 0}
    elements = [one]
    parents = [0]
    genidx = [0]
    columns: List[List[int]] = [[] for _ in gens]
    frontier = [0]
    while frontier:
        nxt = []
        for pos in frontier:
            for j, a in enumerate(gens):
                prod = elements[pos] * a
                if prod.key not in seen:
                    seen[prod.key] = len(elements)
                    elements.append(prod)
                    parents.append(pos)
                    genidx.append(j)
                    nxt.append(seen[prod.key])
                    if len(elements) > bound:
                        raise RuntimeError(
                            f"unit closure exceeded {bound} elements")
                columns[j].append(seen[prod.key])
        frontier = nxt
    return (UnitGroupSubgroup(algebra=algebra, elements=tuple(elements),
                              generators=gens, columns=tuple(map(tuple, columns))),
            (tuple(parents), tuple(genidx)))


def packbits_unit_closure(algebra: GroupAlgebra,
                          generators: Sequence[AlgebraElement],
                          safety_factor: int = 4) -> UnitGroupSubgroup:
    """Breadth-first closure of units one level at a time, each block of
    candidate columns unpacked and packed by ``np.unpackbits`` and
    ``np.packbits`` along the coefficient axis (the closure's layout before
    it moved to bit planes)."""
    gens = tuple(generators)
    H, dim = algebra.group, algebra.dim
    bound = dim * safety_factor
    gathers = [np.stack(H.right_columns([ref_inv(H.ambient, H.element(j))
                                         for j in u.support()]))
               for u in gens]
    block = max(1, 2 ** 24 // (dim * (len(gens) + 2)))
    nbytes = (dim + 7) // 8
    keys = [algebra.one().key]
    seen = {keys[0]: 0}
    columns: List[List[int]] = [[] for _ in gens]
    frontier = [0]
    while gens and frontier:
        nxt = []
        for lo in range(0, len(frontier), block):
            ids = frontier[lo:lo + block]
            raw = b"".join(keys[i].to_bytes(nbytes, "little") for i in ids)
            part = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(-1, nbytes),
                                 axis=1, count=dim, bitorder="little").T.copy()
            cand = np.stack([reduce(np.bitwise_xor, (np.take(part, g, axis=0)
                                                     for g in gather))
                             for gather in gathers], axis=2).reshape(dim, -1)
            for c, row in enumerate(np.packbits(cand, axis=0, bitorder="little").T):
                key = int.from_bytes(row.tobytes(), "little")
                idx = seen.get(key)
                if idx is None:
                    idx = seen[key] = len(keys)
                    keys.append(key)
                    nxt.append(idx)
                    if len(keys) > bound:
                        raise RuntimeError(f"unit closure exceeded {bound} elements")
                columns[c % len(gens)].append(idx)
        frontier = nxt
    return UnitGroupSubgroup(algebra=algebra,
                             elements=tuple(AlgebraElement(algebra, k) for k in keys),
                             generators=gens, columns=tuple(map(tuple, columns)))


def unit_tree(subgroup: UnitGroupSubgroup) -> Tuple[tuple, tuple]:
    """Each unit's parent and generator in the closure's discovery tree,
    read off the columns: products are taken in (position, generator)
    order, positions in discovery order, so a unit's first appearance in
    that order is the product that found it."""
    parent, via = [0] * subgroup.order, [0] * subgroup.order
    found = {0}
    for pos in range(subgroup.order):
        for j, col in enumerate(subgroup.columns):
            if col[pos] not in found:
                found.add(col[pos])
                parent[col[pos]], via[col[pos]] = pos, j
    return tuple(parent), tuple(via)


def product_transport_images(FG: GroupAlgebra, FH: GroupAlgebra,
                             img_gens: Sequence[AlgebraElement]) -> List[AlgebraElement]:
    """Images of G's basis along its derivation words, one algebra product
    per tree edge."""
    G = FG.group
    images: List[Optional[AlgebraElement]] = [None] * G.order
    images[G.identity_index] = FH.one()
    for i in G.bfs_order:
        if i == G.identity_index:
            continue
        images[i] = images[G.bfs_parent[i]] * img_gens[G.bfs_gen[i]]
    return images  # type: ignore[return-value]


def product_generator_mismatches(FG: GroupAlgebra,
                                 images: Sequence[AlgebraElement],
                                 img_gens: Sequence[AlgebraElement]) -> int:
    """Number of (g, a), a a generator of G, with image(g a) != image(g) *
    image(a), by group multiplication and algebra products."""
    G = FG.group
    return sum(images[G.index(ref_mul(G.ambient, g, a))] != images[i] * img_a
               for i, g in enumerate(G.elements)
               for a, img_a in zip(G.generators, img_gens))


def sampled_product_mismatches(FG: GroupAlgebra,
                               images: Sequence[AlgebraElement], seed: int,
                               sample_size: int) -> int:
    """Seeded pairs (i, j), drawn i then j, with image(g_i) * image(g_j) !=
    image(g_i g_j), by algebra products and G's Cayley table."""
    G = FG.group
    table = G.cayley_table()
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(sample_size):
        i = rng.randrange(G.order)
        j = rng.randrange(G.order)
        if images[i] * images[j] != images[int(table[i, j])]:
            mismatches += 1
    return mismatches


def float32_pair_mismatches(FG: GroupAlgebra, FH: GroupAlgebra,
                            images: Sequence[AlgebraElement]) -> int:
    """All pairs with image(g) * image(g') != image(g g'), batched exactly.

    Row j of U @ C_i is the coefficient vector of image_i * image_j, where
    C_i[h] is image_i translated by the basis element h; float32 matmuls are
    exact here because every entry is an integer count below 2^24.
    """
    G = FG.group
    size = G.order
    dim = FH.dim
    table_g = G.cayley_table()
    table_h = FH.group.cayley_table()
    vecs = np.stack([u.vec() for u in images]).astype(np.float32)
    bits = np.stack([u.vec() for u in images])
    rows = np.arange(dim)[:, None]
    scatter_cols = table_h.T
    cbuf = np.empty((dim, dim), dtype=np.float32)
    mismatches = 0
    for i in range(size):
        cbuf[:] = 0.0
        cbuf[rows, scatter_cols] = vecs[i][None, :]
        prod = (vecs @ cbuf).astype(np.int64) & 1
        expected = bits[table_g[i]]
        mismatches += int((prod != expected).any(axis=1).sum())
    return mismatches


def word_pair_mismatches(G: FiniteGroup, columns: Sequence[Sequence[int]],
                         pi: np.ndarray) -> int:
    """All pairs (i, j) with pi(g_i g_j) != pi(g_i) read along g_j's word in
    ``columns``: G's product from its Cayley table, the word from
    ``G.words``, walked one generator at a time for every i at once."""
    table = G.cayley_table()
    cols = np.asarray(columns)
    mismatches = 0
    for j, word in enumerate(G.words):
        cur = pi.copy()
        for a in word:
            cur = cols[a][cur]
        mismatches += int(np.count_nonzero(pi[table[:, j]] != cur))
    return mismatches


def eliminated_spanning_rank(units: Sequence[AlgebraElement]) -> int:
    """Rank of units of F2[H] by FpMatrix elimination (clause (e) before
    the unit-sum lemma)."""
    return FpMatrix(2, units[0].algebra.dim, (u.key for u in units)).rank()


def eliminated_a2_independence(FH: GroupAlgebra, u: AlgebraElement,
                               v: AlgebraElement) -> dict:
    """Clause (f) data by elimination: the basis of A^2 from
    aug_ideal_power_basis(2), then u and v added one after the other."""
    a2 = FH.aug_ideal_power_basis(2)
    probe = FpMatrix(2, FH.dim, a2.basis_rows())
    a2_dim = probe.rank()
    u_indep = probe.add_row(u.key)
    v_indep = probe.add_row(v.key)
    return {"passed": u_indep and v_indep, "a2_dim": a2_dim,
            "x_outside": not a2.contains(u.key),
            "beta_outside": not a2.contains(v.key)}


def eliminated_ideal_dims(FG: GroupAlgebra, N: FiniteGroup) -> Tuple[int, int]:
    """(dim I(N), dim I(N) + I(G')F_pG) by FpMatrix elimination.

    I(N) is spanned by {n - 1 : n in N}; I(G')F_pG by {(w - 1)g} over w in
    G' and g in G, i.e. rows e_(wg) - e_g.
    """
    G = FG.group
    one = FG.one()
    mx = FpMatrix(FG.p, FG.dim)
    for nel in N.elements:
        if nel == G.identity:
            continue
        mx.add_row((FG.embed(nel) + one).key if FG.p == 2
                   else (FG.embed(nel) - one).vec())
    dim_in = mx.rank()
    table = G.cayley_table()
    for w in derived_subgroup(G).elements:
        if w == G.identity:
            continue
        row_perm = table[G.index(w)]  # index of w*g for each g
        for gi in range(G.order):
            lhs = FG.embed(G.elements[int(row_perm[gi])])
            rhs = FG.embed(G.elements[gi])
            mx.add_row((lhs + rhs).key if FG.p == 2 else (lhs - rhs).vec())
    return dim_in, mx.rank()


def dense_rank_mod_p(mat: np.ndarray, p: int) -> int:
    """Rank over F_p of an integer matrix, by Gauss-Jordan on a numpy array."""
    mat = np.array(mat, dtype=np.int64) % p
    rank = 0
    for col in range(mat.shape[1]):
        rows = np.flatnonzero(mat[rank:, col]) + rank
        if not rows.size:
            continue
        mat[[rank, rows[0]]] = mat[[rows[0], rank]]
        mat[rank] = mat[rank] * pow(int(mat[rank, col]), -1, p) % p
        others = np.flatnonzero(mat[:, col])
        others = others[others != rank]
        mat[others] = (mat[others] - np.outer(mat[others, col], mat[rank])) % p
        rank += 1
        if rank == mat.shape[0]:
            break
    return rank


def dense_ideal_dims(G: FiniteGroup, N: FiniteGroup) -> Tuple[int, int]:
    """(dim I(N), dim I(N) + I(G')F_pG) from dense rows over G's element
    indices and :func:`dense_rank_mod_p`; no algebra code.

    I(N) is spanned by the rows of n - 1.  I(G')F_pG is spanned by the rows
    of (w - 1)g for w in a generating set of G' and g in G, because
    hk - 1 = (h - 1)k + (k - 1) and h^-1 - 1 = -(h - 1)h^-1.
    """
    def row(plus: Element, minus: Element) -> np.ndarray:
        out = np.zeros(G.order, dtype=np.int64)
        out[G.index(plus)] += 1
        out[G.index(minus)] -= 1
        return out

    in_rows = [row(nel, G.identity) for nel in N.elements]
    der_rows = [row(ref_mul(G.ambient, w, g), g) for w in derived_subgroup(G).generators
                for g in G.elements]
    return (dense_rank_mod_p(np.array(in_rows), G.p),
            dense_rank_mod_p(np.array(in_rows + der_rows), G.p))


def table_product(u: AlgebraElement, v: AlgebraElement) -> AlgebraElement:
    """Product through the Cayley table: the sparser operand's support
    scatters translated copies of the other operand's coefficient vector
    (row i of the table is left translation by elements[i], column j right
    translation by elements[j])."""
    alg = u.algebra
    table = alg.group.cayley_table()
    uvec, vvec = u.vec().astype(np.int64), v.vec().astype(np.int64)
    acc = np.zeros(alg.dim, dtype=np.int64)
    if np.count_nonzero(uvec) <= np.count_nonzero(vvec):
        for i in np.flatnonzero(uvec):
            acc[table[i]] += uvec[i] * vvec
    else:
        for j in np.flatnonzero(vvec):
            acc[table[:, j]] += vvec[j] * uvec
    return alg.from_vec(acc % alg.p)


def set_jennings_series(group: FiniteGroup,
                        every_element: bool = False) -> List[FiniteGroup]:
    """Dimension subgroups with seeds from scalar commutators and powers,
    collected in a set and sorted.  The commutators [h, a] take a over G's
    small generators and h over M_{i-1}'s, or, by the definition of
    [M_{i-1}, G], over every element of M_{i-1}."""
    p = group.p
    series = [group]
    i = 2
    while series[-1].order > 1:
        prev = series[-1]
        half = series[(i + p - 1) // p - 1]
        seeds = {ref_comm(group.ambient, h, a)
                 for h in (prev.elements if every_element else prev.small_generators())
                 for a in group.small_generators()}
        seeds.update(ref_power(group.ambient, g, p) for g in half.elements)
        series.append(normal_closure(group.ambient, group.small_generators(),
                                     sorted(seeds), group.order))
        i += 1
        assert i <= p * group.order + 2, "Jennings series failed to terminate"
    return series


def unmemoized_jennings_series(group: FiniteGroup) -> List[FiniteGroup]:
    """Dimension subgroups with one normal closure per index i, every
    repeated term closed again: the program's loop before it read the
    series at its breakpoints."""
    p, amb = group.p, group.ambient
    gens = np.array(group.small_generators(), dtype=np.int64)
    series = [group]
    i = 2
    while series[-1].order > 1:
        prev = np.array(series[-1].small_generators(), dtype=np.int64)
        half = series[(i + p - 1) // p - 1]
        comms = amb.comm_array(np.repeat(prev, len(gens), axis=0),
                               np.tile(gens, (len(prev), 1)))
        seeds = np.concatenate([comms, amb.power_array(half.array(), p)])
        series.append(normal_closure(amb, gens, seeds, group.order))
        i += 1
        assert i <= p * group.order + 2, "Jennings series failed to terminate"
    return series


def pairwise_class_sum_count(alg: GroupAlgebra) -> int:
    """Quadratic oracle: class sums equal to a p-th power of a different one."""
    sums = alg.class_sums()
    hit = set()
    for i, u in enumerate(sums):
        up = naive_power(u, alg.p)
        for j, v in enumerate(sums):
            if j != i and up == v:
                hit.add(j)
    return len(hit)


def reduce_terms(keys: np.ndarray, coeffs: np.ndarray,
                 p: int) -> Tuple[np.ndarray, np.ndarray]:
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


def class_sum_matches(owners: np.ndarray, elems: np.ndarray,
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


def loop_class_sum_pth_power_count(alg: GroupAlgebra) -> int:
    """The class-sum power count by element terms: the terms (class i,
    element g, coefficient) of every class's current power are multiplied
    on the right by each member of class i, p - 1 times, in blocks of
    pairs, and equal (class, product) keys are summed mod p."""
    group, p, dim = alg.group, alg.p, alg.dim
    _, class_of, sizes = np.unique(groups_mod.conjugacy_classes(group),
                                   return_inverse=True, return_counts=True)
    members = np.argsort(class_of, kind="stable")
    starts = np.cumsum(sizes) - sizes
    owners, elems = class_of[members], members
    coeffs = np.ones(dim, dtype=np.int64)
    arr = group.array()
    for _ in range(p - 1):
        keys, sums = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        for term, offset in _pair_blocks(group, sizes[owners]):
            prods = group.indices_of_rows(group.ambient.mul_array(
                arr[elems[term]], arr[members[starts[owners[term]] + offset]]))
            block = reduce_terms(owners[term] * dim + prods, coeffs[term], p)
            keys.append(block[0])
            sums.append(block[1])
        merged, coeffs = reduce_terms(np.concatenate(keys),
                                      np.concatenate(sums), p)
        owners, elems = np.divmod(merged, dim)
    matches = class_sum_matches(owners, elems, coeffs, sizes.size,
                                class_of, sizes)
    hits = matches[(matches >= 0) & (matches != np.arange(sizes.size))]
    return len(set(hits.tolist()))


def center(group: FiniteGroup) -> FiniteGroup:
    """Z(G), wrapped from the elements that commute with every small generator."""
    return subgroup_from_elements(group.ambient, group.array()[group.central_mask()],
                                  verify=False)


def unit_inverse(u: AlgebraElement) -> AlgebraElement:
    """Inverse of a unit, u^(|u| - 1)."""
    if u.augmentation() == 0:
        raise ValueError("unit_inverse requires a unit (augmentation != 0)")
    return u ** (unit_order(u) - 1)


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


def row_basis_mod_p(rows: np.ndarray, p: int) -> np.ndarray:
    """An echelon basis of the F_p row span of integer rows, by Gaussian
    elimination on a numpy array; over F_2 the rows are packed eight
    columns to a byte and reduced by XOR.  No combinations are tracked."""
    dim = rows.shape[1]
    if p == 2:
        mat = np.packbits((rows % 2).astype(np.uint8), axis=1, bitorder="little")
    else:
        mat = rows % p
    basis = []
    for col in range(dim):
        hit = np.flatnonzero(mat[:, col >> 3] & (1 << (col & 7)) if p == 2
                             else mat[:, col])
        if not hit.size:
            continue
        pivot, rest = mat[hit[0]].copy(), hit[1:]
        if p == 2:
            mat[rest] ^= pivot
        else:
            pivot = pivot * pow(int(pivot[col]), -1, p) % p
            mat[rest] = (mat[rest] - np.outer(mat[rest, col], pivot)) % p
        basis.append(pivot)
        mat = np.delete(mat, hit[0], axis=0)
    out = np.array(basis, dtype=mat.dtype).reshape(-1, mat.shape[1])
    if p == 2:
        return np.unpackbits(out, axis=1, count=dim, bitorder="little").astype(np.int64)
    return out


def aug_quotient_dims(group: FiniteGroup) -> list[int]:
    """dim A^q / A^(q+1) for q = 0, 1, ... until A^q = 0, with A the
    augmentation ideal of F_p[G] and A^0 = F_p[G], by :func:`row_basis_mod_p`.

    A^1 is spanned by the rows of g - 1.  With x_s = s - 1 for the small
    generators s, gh - 1 = (g - 1)(h - 1) + (g - 1) + (h - 1) and s^-1 - 1 =
    s^(|s| - 1) - 1 make every g - 1 a polynomial in the x_s without constant
    term, so A^q is spanned by the monomials of degree >= q, and A^(q+1) by
    the rows (s - 1) v over s and a basis v of A^q.  Left translation by s
    reads the group's left columns; no Cayley table is built.
    """
    p, dim = group.p, group.order
    left = group.left_columns(group.small_generators())
    basis = np.eye(dim, dtype=np.int64)[1:]  # the identity has index 0
    basis[:, 0] = p - 1
    dims, prev = [], dim
    while True:
        basis = row_basis_mod_p(basis, p)
        dims.append(prev - basis.shape[0])
        prev = basis.shape[0]
        if not prev:
            return dims
        parts = []
        for col in left:
            moved = np.empty_like(basis)
            moved[:, col] = basis
            parts.append(moved - basis)
        basis = np.concatenate(parts)


# --- the report encoding ------------------------------------------------------


def jsonable_copy(value):
    """A copy of a report in JSON types: numpy scalars and arrays as Python
    values, tuples and matrix rows as lists, keys as ``str(key)``."""
    if isinstance(value, dict):
        return {str(k): jsonable_copy(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, HexRows)):
        return [jsonable_copy(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable_copy(v) for v in value.tolist()]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def reference_json(obj) -> str:
    """The canonical report text as the stdlib renders the whole copy."""
    return json.dumps(jsonable_copy(obj), sort_keys=True, indent=2,
                      ensure_ascii=True) + "\n"


# --- shared instances ------------------------------------------------------------


@pytest.fixture(scope="session")
def inst433() -> FamilyInstance:
    return build_family(2, "dihedral", 4, 3, 3)


@pytest.fixture(scope="session")
def FG433(inst433) -> GroupAlgebra:
    return GroupAlgebra(inst433.G)


@pytest.fixture(scope="session")
def FH433(inst433) -> GroupAlgebra:
    return GroupAlgebra(inst433.H)


def _two_group(variant: str, k: int) -> FiniteGroup:
    amb = make_ambient(2, variant, k, 1, 1)
    g = amb.standard_generators()
    return closure(amb, [g["t"], g["r"]])


# catalog groups built by generated_subgroup, not by closure: their
# derivation trees are absorption trees, not breadth-first ones
GENERATED_IN_CATALOG = frozenset({"V4", "C8xC2", "C3xC3"})


def small_group_catalog() -> List[Tuple[str, FiniteGroup]]:
    """Named groups of order <= 2^9 the suite exercises (both parities)."""
    a2 = make_ambient(2, "dihedral", 3, 3, 1)
    g2 = a2.standard_generators()
    a3 = make_ambient(3, "heisenberg", 1, 2, 1)
    g3 = a3.standard_generators()
    wt, wg = wreath_cyclic_table(3)
    st, sg = semidirect_c9c9_table()
    catalog: List[Tuple[str, FiniteGroup]] = [
        ("C2", closure(a2, [g2["t"]])),
        ("C4", closure(a2, [a2.power(g2["c"], 2)])),
        ("C8", closure(a2, [g2["c"]])),
        ("V4", generated_subgroup(a2, [g2["t"], g2["d"]])),
        ("C8xC2", generated_subgroup(a2, [g2["c"], g2["d"]])),
        ("D8", _two_group("dihedral", 2)),
        ("Q8", _two_group("quaternion", 2)),
        ("D16", _two_group("dihedral", 3)),
        ("SD16", _two_group("semidihedral", 3)),
        ("Q16", _two_group("quaternion", 3)),
        ("C9", closure(a3, [g3["c"]])),
        ("C3xC3", generated_subgroup(a3, [a3.power(g3["c"], 3), g3["d"]])),
        ("heis27", closure(a3, [g3["s"], g3["s1"]])),
        ("wreath243", build_family(3, "table", 2, 1, 1, table=wt,
                                   table_generators=wg).G),
        ("c9c9_243", build_family(3, "table", 1, 1, 1, table=st,
                                  table_generators=sg).G),
    ]
    return catalog


@pytest.fixture(scope="session")
def catalog() -> List[Tuple[str, FiniteGroup]]:
    return small_group_catalog()


@pytest.fixture(scope="session")
def layer_groups(catalog) -> List[Tuple[str, FiniteGroup]]:
    """The catalog plus G and H of the three 2-case kinds at (4,3,3) and G
    of the Heisenberg and (C9 x C9):C3 bases at (n, m, k) = (2, 1, 1)."""
    groups = list(catalog)
    for variant in ("dihedral", "semidihedral", "quaternion"):
        inst = build_family(2, variant, 4, 3, 3)
        groups += [(f"{variant}-G-433", inst.G), (f"{variant}-H-433", inst.H)]
    table, gens = semidirect_c9c9_table()
    groups += [("heisenberg-G-211", build_family(3, "heisenberg", 2, 1, 1).G),
               ("c9c9-G-211", build_family(3, "table", 2, 1, 1, table=table,
                                           table_generators=gens).G)]
    return groups


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance pass/fail lines after the test summary."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "acceptance_lines", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
