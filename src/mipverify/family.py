"""Construction of the counterexample family inside P = K x C x D.

For p = 2, K is dihedral (or semidihedral/quaternion) of order 2^(k+1) with
reflection t and rotation r = ts, C = <c> has order 2^n and D = <d> has order
2^m with n > m >= k >= 3.  The family instance carries

    x = tc,  y = sd,  z = rd = tsd,  G = <x, y>,  H = <x, z>.

Neither P nor its abelian index-2 subgroup M = <r, c, d> is enumerated:
:func:`verify_structure` proves the ambient's normal form t^e r^i c^a d^b
on the factors, and M is its e = 0 half.  G and H share the literal
element x because both live in the same ambient, which is what makes the
unit-witness construction exact.

For odd p the analogous construction takes K = <s, s1> of maximal class with
an abelian maximal subgroup, C = <c> of order p^m, D = <d> of order p^n
(note the swapped roles of n and m relative to the 2-case), and stores only
G = <sc, s1 d>.  The maximal-class and abelian-maximal hypotheses on K are
verified, not trusted, whether K is the built-in Heisenberg group or an
explicit multiplication table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .ambient import (AmbientDescriptor, DEFAULT_GUARD, Element,
                      TWO_GENERATOR_VARIANTS, int_log, make_ambient)
from .groups import (FiniteGroup, abelian_maximal_subgroups, closure,
                     derived_subgroup, frattini, frattini_seeds,
                     generated_subgroup, nilpotency_class, normal_closure,
                     pair_commutators, subgroup_from_elements)

if TYPE_CHECKING:
    from .isomorphism import ClauseList


@dataclass(frozen=True)
class FamilyInstance:
    """One member of the family: G (and in the 2-case H) enumerated in the
    ambient P = K x C x D, which is not."""

    params: tuple  # (p, variant, n, m, k)
    ambient: AmbientDescriptor
    G: FiniteGroup
    x: Element
    y: Element
    H: Optional[FiniteGroup] = None
    z: Optional[Element] = None
    named: dict = field(default_factory=dict, repr=False)
    guard: int = DEFAULT_GUARD

    @property
    def p(self) -> int:
        return self.params[0]

    @property
    def variant(self) -> str:
        return self.params[1]

    @property
    def nmk(self) -> tuple[int, int, int]:
        return (self.params[2], self.params[3], self.params[4])


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a clause-by-clause structural verification."""

    title: str
    params: tuple
    clauses: ClauseList

    @property
    def ok(self) -> bool:
        return self.clauses.ok

    def as_dict(self) -> dict:
        return {"title": self.title, "params": list(self.params),
                "ok": self.ok, "first_failing": self.clauses.first_failing,
                "clauses": [c.as_dict() for c in self.clauses]}


def build_family(p: int, variant: str, n: int, m: int, k: int,
                 guard: int = DEFAULT_GUARD,
                 table: Optional[Sequence[Sequence[int]]] = None,
                 table_generators: Optional[Sequence[int]] = None) -> FamilyInstance:
    """Construct and enumerate a family instance.

    2-case (p = 2, dihedral/semidihedral/quaternion): requires
    n > m >= k >= 3; closes G and H, checks that both have order
    2^(n+m+k-1), and returns them with the elements x, y, z.  P and M are
    never enumerated.

    Odd case (heisenberg or explicit table): requires n, m, k >= 1; c has
    order p^m and d has order p^n, G = <sc, s1 d>; M, H, z are absent.  The
    hypotheses on K (maximal class; some maximal subgroup abelian) are
    checked and a ValueError is raised when they fail.
    """
    if p == 2 and variant in TWO_GENERATOR_VARIANTS:
        if not (n > m >= k >= 3):
            raise ValueError(
                f"2-case parameters need n > m >= k >= 3, got (n, m, k) = ({n}, {m}, {k})")
        amb = make_ambient(2, variant, k, n, m, guard=guard)
        gens = amb.standard_generators()
        t, r, c, d = gens["t"], gens["r"], gens["c"], gens["d"]
        s = amb.mul(amb.inv(t), r)  # r = ts
        x, y, z = amb.mul(t, c), amb.mul(s, d), amb.mul(r, d)
        G = closure(amb, [x, y], guard=guard)
        H = closure(amb, [x, z], guard=guard)
        expected = 2 ** (n + m + k - 1)
        if G.order != expected or H.order != expected:
            raise RuntimeError(
                f"constructed |G| = {G.order}, |H| = {H.order}, expected {expected}")
        return FamilyInstance(params=(p, variant, n, m, k), ambient=amb,
                              G=G, x=x, y=y, H=H, z=z, guard=guard,
                              named={"t": t, "s": s, "r": r, "c": c, "d": d})

    if p == 2:
        raise ValueError(f"variant {variant!r} is not available for p = 2")
    if min(n, m, k) < 1:
        raise ValueError("odd-case parameters n, m, k must be >= 1")
    # c gets order p^m and d gets order p^n, so the ambient's cyclic factors
    # are built with the two exponents interchanged.
    amb = make_ambient(p, variant, k, m, n, guard=guard, table=table,
                       table_generators=table_generators)
    gens = amb.standard_generators()
    s, s1, c, d = gens["s"], gens["s1"], gens["c"], gens["d"]
    K = closure(amb, [s, s1], guard=guard)
    _verify_odd_base(K, p)
    x = amb.mul(s, c)
    y = amb.mul(s1, d)
    G = closure(amb, [x, y], guard=guard)
    named = {"s": s, "s1": s1, "c": c, "d": d}
    return FamilyInstance(params=(p, variant, n, m, k), ambient=amb,
                          G=G, x=x, y=y, named=named, guard=guard)


def _verify_odd_base(K: FiniteGroup, p: int) -> None:
    """Check the hypotheses on K: maximal class, abelian maximal subgroup."""
    logk = int_log(p, K.order)
    if K.order == p:  # class 1 groups are vacuously maximal class
        return
    cls = nilpotency_class(K)
    if cls != logk - 1:
        raise ValueError(
            f"K has class {cls}, not maximal class {logk - 1} for order p^{logk}")
    # every maximal subgroup of an abelian K is abelian
    if not K.is_abelian() and not abelian_maximal_subgroups(K):
        raise ValueError("K has no abelian maximal subgroup")


def verify_structure(inst: FamilyInstance) -> VerificationReport:
    """Clause-by-clause verification of the structural facts of the 2-case.

    (i) orders of P, M, G, H; (ii) derived subgroups all equal <(ts)^2> and
    the nilpotency class is k; (iii) the Frattini subgroups of G, H, P
    coincide and equal <(ts)^2, c^2, d^2>; (iv) M is abelian and maximal in
    P; (v) G meet M = <xy, c^2, d^2> is maximal in G; (vi) H meet M =
    <z, c^2, d^2> is maximal in H; (vii) the exponent gap: exp(G meet M) =
    2^n while exp(H meet M) = 2^(n-1), those are the unique abelian maximal
    subgroups of G and H, and G is not isomorphic to H (exponent-gap
    argument always; brute-force oracle additionally when |G| <=
    ``DEFAULT_ORACLE_BOUND``).

    P and M are read off the normal form t^e r^i c^a d^b, not enumerated.
    K = <t, ts> is closed; when it has 2^(k+1) rows, all zero on C x D, it
    is every (e, i, 0, 0), each a word in t and r = ts.  When r, c and d
    also have the orders radices[1:], every tuple (e, i, a, b) is
    t^e r^i c^a d^b, since :meth:`AmbientDescriptor.mul_array` multiplies
    K, C and D apart and adds C x D coordinate-wise
    (``test_mul_array_matches_scalar_mul`` pins this); else RuntimeError.
    So P = <t, r, c, d> is the whole ambient.  The e of a product is the
    sum mod 2 of the factors' e, so the e = 0 half, every r^i c^a d^b, is
    M = <r, c, d>, of index 2.  Hence P' and Phi(P) are normal closures
    under t, r, c, d; M is abelian when r, c and d commute; and G meet M,
    H meet M are the rows of G and H with e = 0.
    """
    from .isomorphism import ClauseList, DEFAULT_ORACLE_BOUND, isomorphic_bruteforce

    if inst.H is None or inst.z is None:
        raise ValueError("structural verification applies to the 2-case family")
    p, variant, n, m, k = inst.params
    amb = inst.ambient
    G, H = inst.G, inst.H
    x, y, z = inst.x, inst.y, inst.z
    t, s, c, d = inst.named["t"], inst.named["s"], inst.named["c"], inst.named["d"]
    clauses = ClauseList()
    add = clauses.add

    trcd = np.array([inst.named[g] for g in "trcd"], dtype=np.int64)
    K = closure(amb, [t, amb.mul(t, s)], guard=amb.order)
    if (K.order != amb.radices[0] * amb.radices[1] or K.array()[:, 2:].any()
            or amb.orders_array(trcd[1:]).tolist() != list(amb.radices[1:])):
        raise RuntimeError("the ambient is not the product of t^e r^i, c^a and d^b")
    order_p, order_m = amb.order, amb.order // 2
    expected = 2 ** (n + m + k - 1)
    add("orders", "|G| = |H| = 2^(n+m+k-1), |P| = 2|M| = 2^(k+1+n+m)",
        G.order == expected and H.order == expected
        and order_p == 2 ** (k + 1 + n + m),
        order_g=G.order, order_h=H.order, order_p=order_p, order_m=order_m,
        expected=expected)

    ts2 = amb.power(amb.mul(t, s), 2)
    derived_target = closure(amb, [ts2], guard=order_p)
    dG, dH, dK = derived_subgroup(G), derived_subgroup(H), derived_subgroup(K)
    dP = normal_closure(amb, trcd, pair_commutators(amb, trcd), order_p)
    same_derived = all(np.array_equal(sub.keys(), derived_target.keys())
                       for sub in (dG, dH, dP, dK))
    class_g, class_h = nilpotency_class(G), nilpotency_class(H)
    add("derived-and-class",
        "G' = H' = P' = K' = <(ts)^2> of order 2^(k-1); G and H have class k",
        same_derived and dG.order == 2 ** (k - 1)
        and class_g == k and class_h == k,
        derived_order=dG.order, class_g=class_g, class_h=class_h)

    c2, d2 = amb.power(c, 2), amb.power(d, 2)
    # the targets' keys alone are kept: the groups are freed before the
    # maximal-subgroup scans of clause (vii)
    frat_keys = generated_subgroup(amb, [ts2, c2, d2]).keys()
    fG, fH = frattini(G), frattini(H)
    fP = normal_closure(amb, trcd, frattini_seeds(amb, trcd), order_p)
    add("frattini",
        "Frattini subgroups of G, H, P coincide and equal <(ts)^2, c^2, d^2>",
        all(np.array_equal(sub.keys(), frat_keys) for sub in (fG, fH, fP)),
        frattini_order=fG.order)

    m_abelian = not pair_commutators(amb, trcd[1:]).any()
    add("m-abelian-maximal", "M is abelian of index 2 in P", m_abelian,
        order_m=order_m, abelian=m_abelian)

    gm = subgroup_from_elements(amb, G.array()[G.array()[:, 0] == 0], verify=False)
    gm_keys = generated_subgroup(amb, [amb.mul(x, y), c2, d2]).keys()
    add("g-meet-m", "G meet M = <xy, c^2, d^2> has index 2 in G",
        np.array_equal(gm.keys(), gm_keys) and 2 * gm.order == G.order,
        order=gm.order)

    hm = subgroup_from_elements(amb, H.array()[H.array()[:, 0] == 0], verify=False)
    hm_keys = generated_subgroup(amb, [z, c2, d2]).keys()
    add("h-meet-m", "H meet M = <z, c^2, d^2> has index 2 in H",
        np.array_equal(hm.keys(), hm_keys) and 2 * hm.order == H.order,
        order=hm.order)

    exp_gm, exp_hm = gm.exponent(), hm.exponent()
    g_abelian = abelian_maximal_subgroups(G)
    h_abelian = abelian_maximal_subgroups(H)
    unique = (len(g_abelian) == 1 and len(h_abelian) == 1
              and np.array_equal(g_abelian[0].keys(), gm.keys())
              and np.array_equal(h_abelian[0].keys(), hm.keys()))
    gap = exp_gm == 2 ** n and exp_hm == 2 ** (n - 1)
    oracle_ran = G.order <= DEFAULT_ORACLE_BOUND
    oracle_says_nontrivial = None
    if oracle_ran:
        oracle_says_nontrivial = not isomorphic_bruteforce(G, H)
    non_iso = gap and unique and (oracle_says_nontrivial in (None, True))
    add("exponent-gap-non-isomorphic",
        "exp(G meet M) = 2^n > 2^(n-1) = exp(H meet M); those are the unique "
        "abelian maximal subgroups, so G and H are not isomorphic",
        non_iso, exp_g_meet_m=exp_gm, exp_h_meet_m=exp_hm,
        unique_abelian_maximal=unique, oracle_ran=oracle_ran,
        oracle_non_isomorphic=oracle_says_nontrivial)

    return VerificationReport(title="structure", params=inst.params,
                              clauses=clauses)


def compare_variants(instance: FamilyInstance) -> VerificationReport:
    """Cross-check that all three 2-case ambient kinds give the same groups.

    ``instance`` is a 2-case instance; its G and H (with their cached
    abelian maximal subgroups) stand for its own variant, and the other two
    variants are built at its (n, m, k) and guard, which closes their G and
    H.  G's stored pair (x, y) is checked against the "g" relations and H's
    (x, z) against the "h" relations (:func:`pair_relations`).  Let
    Gamma be the group they present on a, b, u: a^(2^n) = b^(2^m) =
    u^(2^(k-1)) = 1, b^a = b u, u^a = u^-1, and u^b = u^-1 ("g") or u^b = u
    ("h").  <u> is normal in <b, u>, which a normalizes, so Gamma = {a^i b^j
    u^l} has at most 2^(n+m+k-1) elements.  Each group was closed on its
    pair and found of that order, so when the pair satisfies the relations,
    von Dyck's theorem maps Gamma onto the group isomorphically.  Hence an
    ``{a}-vs-{b}`` entry holds when both stored pairs pass, and the passing
    pairs are the defining-relations witnesses.

    The dihedral G-vs-H control reads an isomorphism invariant: an
    isomorphism carries the abelian maximal subgroups of one group onto
    those of the other and keeps their exponents, so groups whose sorted
    lists of those exponents differ are not isomorphic.  For the family the
    lists are [2^n] for G and [2^(n-1)] for H (clause (vii) of
    :func:`verify_structure`).
    """
    from .isomorphism import ClauseList, pair_relations

    n, m, k = instance.nmk
    groups = {}
    for v in TWO_GENERATOR_VARIANTS:
        inst = (instance if v == instance.variant
                else build_family(2, v, n, m, k, guard=instance.guard))
        groups[v] = (inst.G, inst.H)
    # (relation set, variant) -> whether G's ("g") or H's ("h") stored pair
    # satisfies it
    holds = {(rel, v): all(pair_relations(grp, *grp.generators, n, m, k, rel).values())
             for v, (G, H) in groups.items()
             for rel, grp in (("g", G), ("h", H))}
    clauses = ClauseList()
    add = clauses.add

    names = list(TWO_GENERATOR_VARIANTS)
    for rel in ("g", "h"):
        results = {f"{a}-vs-{b}": holds[rel, a] and holds[rel, b]
                   for i, a in enumerate(names) for b in names[i + 1:]}
        add(f"{rel}-variants-isomorphic",
            f"the three variants' {rel.upper()}'s are pairwise isomorphic",
            all(results.values()), **results)

    exps_g, exps_h = (sorted(sub.exponent() for sub in abelian_maximal_subgroups(grp))
                      for grp in groups["dihedral"])
    add("g-vs-h-control",
        "dihedral G and H are not isomorphic: the exponents of their abelian "
        "maximal subgroups differ (control)",
        exps_g != exps_h, g_abelian_maximal_exponents=exps_g,
        h_abelian_maximal_exponents=exps_h)

    found = {f"{v}-{rel}": holds[rel, v] for v in names for rel in ("g", "h")}
    add("presentation-witnesses",
        "each variant's G and H admit a defining-relations witness pair",
        all(found.values()), **found)

    return VerificationReport(title="variants", params=(2, "all", n, m, k),
                              clauses=clauses)


__all__ = [
    "FamilyInstance", "VerificationReport", "build_family",
    "verify_structure", "compare_variants",
]
