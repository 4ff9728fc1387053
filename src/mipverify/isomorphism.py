"""Isomorphism tooling: clauses, defining relations, oracle.

Routes to (non-)isomorphism evidence:

* :func:`defining_relations` -- the family's two relation sets, written
  once as masks over index arrays of pairs: :func:`pair_relations`
  evaluates them on one pair on the group's rows, and
  :func:`find_presentation_witness` on all candidate pairs on the Cayley
  table, searching for a generating pair with generation read off the
  Frattini quotient.
* :func:`isomorphic_bruteforce` -- exhaustive generator-image transport oracle.

The oracle takes the image of the first generator among the conjugacy
class minima of the target and the image of the second among all its
elements, prunes blocks of image pairs at once with isomorphism invariants
(which can never discard a valid image pair), and verifies survivors by
word transport plus bijectivity plus generator-column multiplicativity,
which suffices by induction over derivation words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .ambient import Element, sorted_distinct
from .groups import (_BLOCK_ENTRIES, FiniteGroup, conjugacy_classes,
                     frattini_coordinates)

DEFAULT_ORACLE_BOUND = 2 ** 12


class OracleBoundExceeded(RuntimeError):
    """Raised when the brute-force oracle is asked about groups above its bound."""


@dataclass(frozen=True)
class Clause:
    """One named check with its outcome and supporting data."""

    id: str
    statement: str
    passed: bool
    data: dict

    def as_dict(self) -> dict:
        return {"id": self.id, "statement": self.statement,
                "passed": self.passed, "data": self.data}


class ClauseList(list):
    """Clauses in the order they were checked."""

    def add(self, cid: str, statement: str, passed: bool, **data) -> None:
        self.append(Clause(cid, statement, bool(passed), data))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self)

    @property
    def first_failing(self) -> Optional[str]:
        return next((c.id for c in self if not c.passed), None)


# -- presentation witnesses ---------------------------------------------------


def _generates(coords: np.ndarray, p: int, a: int, bs: np.ndarray) -> np.ndarray:
    """Mask of the b in ``bs`` for which the pair (a, b) generates the group.

    ``coords`` are the group's :func:`frattini_coordinates`, with d <= 2
    columns.  By Burnside's basis theorem the pair generates iff its two
    rows span F_p^d: for d = 2 iff their determinant is nonzero mod p (at
    p = 2: both rows nonzero and distinct), for d = 1 iff some row is
    nonzero.
    """
    d = coords.shape[1]
    ca, cb = coords[a], coords[bs]
    if d == 2:
        return (ca[0] * cb[:, 1] - ca[1] * cb[:, 0]) % p != 0
    if d == 1:
        return (ca[0] != 0) | (cb[:, 0] != 0)
    return np.ones(len(bs), dtype=bool)


def defining_relations(mul: Callable, inv: Callable, a, b, n: int, m: int,
                       k: int, relations: str = "g") -> dict[str, np.ndarray]:
    """Outcome of each defining relation on the pairs (a, b), as masks.

    ``a`` and ``b`` are element indices (scalars or arrays, broadcast
    against each other) of a group whose identity has index 0; ``mul``
    multiplies two index arrays and ``inv`` inverts one.  With u = [b, a]:
    ``order-a`` |a| = 2^n, ``order-b`` |b| = 2^m, ``u-nontrivial`` u != 1,
    ``u-exponent`` u^(2^(k-1)) = 1, ``u^a`` u^a = u^-1, and ``u^b``
    u^b = u^-1 for the ``"g"`` set or u^b = u for the ``"h"`` set.  The
    presentations' b^a = b u defines u: a^-1 b a = b (b^-1 a^-1 b a) for
    every pair, so it has no mask.
    """
    if relations not in ("g", "h"):
        raise ValueError("relations must be 'g' or 'h'")

    def pow2(x, s):  # x^(2^s)
        for _ in range(s):
            x = mul(x, x)
        return x

    inv_a, inv_b = inv(a), inv(b)
    u = mul(mul(mul(inv_b, inv_a), b), a)
    inv_u = inv(u)
    a_half, b_half = pow2(a, n - 1), pow2(b, m - 1)
    return {
        "order-a": (a_half != 0) & (mul(a_half, a_half) == 0),
        "order-b": (b_half != 0) & (mul(b_half, b_half) == 0),
        "u-nontrivial": u != 0,
        "u-exponent": pow2(u, k - 1) == 0,
        "u^a": mul(mul(inv_a, u), a) == inv_u,
        "u^b": mul(mul(inv_b, u), b) == (inv_u if relations == "g" else u),
    }


def pair_relations(group: FiniteGroup, a: Element, b: Element, n: int, m: int,
                   k: int, relations: str = "g") -> dict[str, bool]:
    """:func:`defining_relations` on one pair of ``group``'s elements,
    multiplied and inverted on the group's rows (no Cayley table)."""
    arr, amb = group.array(), group.ambient

    def mul(i, j):
        return group.indices_of_rows(amb.mul_array(arr[i], arr[j]))

    def inv(i):
        return group.indices_of_rows(amb.inv_array(arr[i]))

    held = defining_relations(mul, inv, np.array([group.index(a)]),
                              np.array([group.index(b)]), n, m, k, relations)
    return {name: bool(ok[0]) for name, ok in held.items()}


def find_presentation_witness(group: FiniteGroup, n: int, m: int, k: int,
                              relations: str = "g") -> Optional[tuple[Element, Element]]:
    """First pair (a, b) in canonical order satisfying the defining relations
    (:func:`defining_relations`, on the Cayley table) and generating the
    group, which pins the presented group of order 2^(n+m+k-1) exactly.

    Generation is read off G/Phi(G) = F_p^d (Burnside's basis theorem):
    (a, b) generates G iff their coordinate rows span F_p^d, i.e. have rank
    d.  So no pair generates when d > 2, and the answer is None.
    """
    if relations not in ("g", "h"):
        raise ValueError("relations must be 'g' or 'h'")
    expected = 2 ** (n + m + k - 1)
    if group.order != expected:
        raise ValueError(f"group order {group.order} != 2^(n+m+k-1) = {expected}")
    coords = frattini_coordinates(group)
    if coords.shape[1] > 2:
        return None
    table = group.cayley_table()
    invp = group.inverse_permutation()
    orders = group.element_orders()
    bs = np.flatnonzero(orders == 2 ** m).astype(np.int32)

    def mul(i, j):
        return table[i, j]

    for ia in np.flatnonzero(orders == 2 ** n).tolist():
        # every candidate b at once
        mask = _generates(coords, group.p, ia, bs)
        for holds in defining_relations(mul, invp.__getitem__, ia, bs,
                                        n, m, k, relations).values():
            mask &= holds
        hits = bs[mask]
        if hits.size:
            return group.element(ia), group.element(hits[0])
    return None


# -- brute-force isomorphism oracle -------------------------------------------


def _pair_profile(group: FiniteGroup, a: Element, b: Element) -> tuple:
    """Isomorphism-invariant fingerprint of a generating pair: the orders of
    a, b, u = [b, a], ab and a^2 b^2, and whether a^2, b^2, u and (ab)^2
    are central."""
    amb = group.ambient
    pair = np.array([a, b], dtype=np.int64)
    ab = amb.mul_array(pair[:1], pair[1:])
    squares = amb.mul_array(pair, pair)
    u = amb.comm_array(pair[1:], pair[:1])
    # a, b, u, ab, a^2 b^2 for their orders; a^2, b^2, u, (ab)^2 for centrality
    rows = np.concatenate([pair, u, ab, amb.mul_array(squares[:1], squares[1:]),
                           squares, u, amb.mul_array(ab, ab)])
    orders = amb.orders_array(rows[:5]).tolist()
    central = group.central_mask()[group.indices_of_rows(rows[5:])].tolist()
    return (*orders[:4], *central, orders[4])


def _check_candidate(a_group: FiniteGroup, a_cols: list[np.ndarray],
                     b_group: FiniteGroup, b_table: np.ndarray,
                     img_gens: Sequence[int]) -> bool:
    # the image of every element of A under word transport
    img = a_group.transport(b_table[:, list(img_gens)].T, b_group.identity_index)
    if sorted_distinct(img).size != a_group.order:
        return False
    for j, col in enumerate(a_cols):
        if not np.array_equal(img[col], b_table[img, img_gens[j]]):
            return False
    return True


def isomorphic_bruteforce(a_group: FiniteGroup, b_group: FiniteGroup,
                          bound: int = DEFAULT_ORACLE_BOUND) -> bool:
    """Exhaustive 2-generated isomorphism test.

    Fixes A's stored generating pair (a1, a2) and searches B for its images
    (b1, b2).  If phi: A -> B is an isomorphism, so is phi followed by
    conjugation by any g in B, which sends a1 to g^-1 phi(a1) g: some
    isomorphism sends a1 to the smallest element of its image's conjugacy
    class.  So b1 ranges over the class minima of B and b2 over all of B.
    The pair-profile invariants filter a block of b1 candidates against
    every b2 candidate at once, as 2-D masks of at most ``_BLOCK_ENTRIES``
    entries, and the survivors are verified by transport in row-major
    order.  A ``True`` answer comes with a verified bijective multiplicative
    map; ``False`` means no image pair survived.
    """
    if a_group.order != b_group.order:
        return False
    if a_group.order > bound or b_group.order > bound:
        raise OracleBoundExceeded(
            f"group order {max(a_group.order, b_group.order)} exceeds oracle bound {bound}")
    if len(a_group.generators) != 2:
        raise ValueError("oracle requires a 2-generated A with a stored generating pair")
    profile = _pair_profile(a_group, *a_group.generators)

    orders = b_group.element_orders()
    central = b_group.central_mask()
    table = b_group.cayley_table()
    invp = b_group.inverse_permutation()
    sq = table.diagonal()
    b1s = np.flatnonzero((orders == profile[0]) & (central[sq] == profile[4])
                         & (conjugacy_classes(b_group) == np.arange(b_group.order)))
    b2s = np.flatnonzero((orders == profile[1]) & (central[sq] == profile[5]))
    if b1s.size == 0 or b2s.size == 0:
        return False
    # the profile tests on u = [b2, b1], on b1 b2 and on b1^2 b2^2, as masks
    # over B read at each block's products
    u_ok = (orders == profile[2]) & (central == profile[6])
    prod_ok = (orders == profile[3]) & (central[sq] == profile[7])
    squares_ok = orders == profile[8]
    a_cols = a_group.right_columns(a_group.generators)
    step = max(1, _BLOCK_ENTRIES // b2s.size)
    for start in range(0, b1s.size, step):
        b1 = b1s[start:start + step, None]
        mask = u_ok[table[table[table[invp[b2s], invp[b1]], b2s], b1]]
        mask &= prod_ok[table[b1, b2s]]
        mask &= squares_ok[table[sq[b1], sq[b2s]]]
        for i, j in zip(*np.nonzero(mask)):
            if _check_candidate(a_group, a_cols, b_group, table,
                                (int(b1[i, 0]), int(b2s[j]))):
                return True
    return False


__all__ = [
    "Clause", "ClauseList", "OracleBoundExceeded", "DEFAULT_ORACLE_BOUND",
    "defining_relations", "pair_relations",
    "find_presentation_witness", "isomorphic_bruteforce",
]
