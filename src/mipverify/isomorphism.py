"""Isomorphism tooling: recognition clauses, defining relations, oracle.

Routes to (non-)isomorphism evidence:

* :func:`recognize_presented_group` -- sufficient structural clauses on a
  designated generating pair (orders, central squares, derived-subgroup size,
  trivial intersection) that pin the group's isomorphism type.
* :func:`defining_relations` -- the family's two relation sets, written
  once as masks over index arrays of pairs: :func:`pair_relations`
  evaluates them on one pair on the group's rows, and
  :func:`find_presentation_witness` on all candidate pairs on the Cayley
  table, searching for a generating pair with generation read off the
  Frattini quotient.
* :func:`isomorphic_bruteforce` -- exhaustive generator-image transport oracle.

The oracle enumerates image pairs in canonical element order, prunes with
vectorized isomorphism invariants (which can never discard a valid image
pair), and verifies survivors by word transport plus bijectivity plus
generator-column multiplicativity, which suffices by induction over
derivation words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .ambient import Element
from .groups import (FiniteGroup, closure, derived_subgroup,
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
            uij = group.mul(uij, v)
        ui = group.mul(ui, u)
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
    oa = group.order_of(a)
    clauses.add("order-a", "first generator has order 2^n",
                oa == 2 ** n, order=oa, expected=2 ** n)
    ob = group.order_of(b)
    clauses.add("order-b", "second generator has order 2^m",
                ob == 2 ** m, order=ob, expected=2 ** m)
    a2, b2 = group.mul(a, a), group.mul(b, b)
    clauses.add("a-square-central", "square of the first generator is central",
                group.is_central(a2))
    clauses.add("b-square-central", "square of the second generator is central",
                group.is_central(b2))
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
    multiplied on the group's rows (no Cayley table); g^-1 = g^(|G| - 1)."""
    arr, amb = group.array(), group.ambient

    def mul(i, j):
        return group.indices_of_rows(amb.mul_array(arr[i], arr[j]))

    def inv(i):
        return group.indices_of_rows(amb.power_array(arr[i], group.order - 1))

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
    """Isomorphism-invariant fingerprint of a generating pair."""
    u = group.comm(b, a)
    ab = group.mul(a, b)
    a2 = group.mul(a, a)
    b2 = group.mul(b, b)
    return (
        group.order_of(a),
        group.order_of(b),
        group.order_of(u),
        group.order_of(ab),
        group.is_central(a2),
        group.is_central(b2),
        group.is_central(u),
        group.is_central(group.mul(ab, ab)),
        group.order_of(group.mul(a2, b2)),
    )


def _check_candidate(a_group: FiniteGroup, a_cols: list[np.ndarray],
                     b_group: FiniteGroup, b_table: np.ndarray,
                     img_gens: Sequence[int]) -> bool:
    # the image of every element of A under word transport
    img = a_group.transport(b_table[:, list(img_gens)].T, b_group.identity_index)
    if np.unique(img).size != a_group.order:
        return False
    for j, col in enumerate(a_cols):
        if not np.array_equal(img[col], b_table[img, img_gens[j]]):
            return False
    return True


def isomorphic_bruteforce(a_group: FiniteGroup, b_group: FiniteGroup,
                          bound: int = DEFAULT_ORACLE_BOUND) -> bool:
    """Exhaustive 2-generated isomorphism test.

    Fixes A's stored generating pair, enumerates order-compatible image pairs
    in B in canonical order, prunes with pair-profile invariants, and verifies
    survivors by transport.  A ``True`` answer comes with a verified bijective
    multiplicative map; ``False`` means no image pair survived.
    """
    if a_group.order != b_group.order:
        return False
    if a_group.order > bound or b_group.order > bound:
        raise OracleBoundExceeded(
            f"group order {max(a_group.order, b_group.order)} exceeds oracle bound {bound}")
    if len(a_group.generators) != 2:
        raise ValueError("oracle requires a 2-generated A with a stored generating pair")
    a1, a2 = a_group.generators
    profile = _pair_profile(a_group, a1, a2)

    orders = b_group.element_orders()
    central = b_group.central_mask()
    table = b_group.cayley_table()
    invp = b_group.inverse_permutation()
    size = b_group.order
    idx_all = np.arange(size, dtype=np.int32)
    sq = table[idx_all, idx_all]

    def order_pow_table(target: int) -> np.ndarray:
        return orders == target

    b1_mask = order_pow_table(profile[0]) & (central[sq] == profile[4])
    b2_mask_base = order_pow_table(profile[1]) & (central[sq] == profile[5])
    b1_candidates = np.flatnonzero(b1_mask)
    b2_candidates = np.flatnonzero(b2_mask_base).astype(np.int32)
    if b1_candidates.size == 0 or b2_candidates.size == 0:
        return False
    a_cols = a_group.right_columns(a_group.generators)

    for ib1 in b1_candidates:
        ib1 = int(ib1)
        b2s = b2_candidates
        # u = [b2, b1]
        u = table[table[table[invp[b2s], invp[ib1]], b2s], ib1]
        mask = orders[u] == profile[2]
        prod = table[ib1, b2s]
        mask &= orders[prod] == profile[3]
        mask &= central[u] == profile[6]
        mask &= central[sq[prod]] == profile[7]
        mask &= orders[table[sq[ib1], sq[b2s]]] == profile[8]
        for ib2 in b2s[mask]:
            if _check_candidate(a_group, a_cols, b_group, table, (ib1, int(ib2))):
                return True
    return False


__all__ = [
    "Clause", "ClauseList", "RecognitionResult", "OracleBoundExceeded", "DEFAULT_ORACLE_BOUND",
    "recognize_presented_group", "defining_relations", "pair_relations",
    "find_presentation_witness", "isomorphic_bruteforce",
]
