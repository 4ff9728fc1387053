"""Algebra-determined invariants of F_p[G] and the odd-p obstruction.

The key subgroup is N = C_G(G'/Phi(G')).  When N is abelian of index p
(which happens for the odd-p analogues built on a suitable maximal-class K,
but never for the 2-case counterexample, where N = G), the isomorphism type
of N is forced by the algebra: its filtration factor orders, the dimension
of I(N) + I(G')F_pG, and a census of small class sums pin it down.  The
report assembles every one of those quantities so that algebra-isomorphic
pairs can be compared field by field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ambient import int_log
from .algebra import GroupAlgebra
from .groups import (FiniteGroup, centralizer_index, centralizer_mod,
                     conjugacy_classes, derived_subgroup, frattini,
                     jennings_factor_orders, power_subgroup)


def compute_N(G: FiniteGroup) -> FiniteGroup:
    """The subgroup N = C_G(G'/Phi(G')); equals G when G' is central mod Phi."""
    if G.is_abelian():
        return G
    der = derived_subgroup(G)
    return centralizer_mod(G, der, frattini(der))


def abelian_type(A: FiniteGroup) -> tuple[int, ...]:
    """Elementary divisors of an abelian p-group, descending.

    Computed from the orders of the p^s-power subgroups: with type
    (p^(e_1), ..., p^(e_r)), log_p |A^(p^s)| = sum_i max(e_i - s, 0), so the
    number of parts exceeding s is the difference of consecutive logs.  An
    element-order census gives an independent check (used by tests).
    """
    if not A.is_abelian():
        raise ValueError("abelian_type requires an abelian group")
    if A.order == 1:
        return ()
    p = A.ambient.p
    logs = [int_log(p, A.order)]
    s = 1
    while logs[-1] > 0:
        logs.append(int_log(p, power_subgroup(A, s).order))
        s += 1
    parts: list[int] = []
    for e in range(len(logs) - 1, 0, -1):
        count = (logs[e - 1] - logs[e]) - (logs[e] - logs[e + 1] if e + 1 < len(logs) else 0)
        parts.extend([p ** e] * count)
    return tuple(sorted(parts, reverse=True))


def ideal_subring_dim(FG: GroupAlgebra, N: FiniteGroup) -> tuple[int, int]:
    """(dim I(N), dim I(N) + I(G')F_pG) inside F_p[G], in closed form.

    Requires G' <= N <= G; otherwise ValueError.  I(N) is spanned by
    {n - 1 : n in N}, and the n - 1 with n != 1 are linearly independent, so
    dim I(N) = |N| - 1.  G' is normal, and I(G')F_pG is the kernel of the
    surjection pi: F_pG -> F_p[G/G'], so dim I(G')F_pG = |G| - |G:G'|.  The
    sum contains that kernel, hence equals pi^-1(pi(I(N))); and pi(I(N)) is
    spanned by the nG' - G', i.e. it is the augmentation ideal of F_p[N/G']
    (N/G' is a subgroup of G/G' because G' <= N), of dimension |N:G'| - 1.
    So dim I(N) + I(G')F_pG = |G| - |G:G'| + |N:G'| - 1.
    """
    G = FG.group
    if not G.contains(N):
        raise ValueError("N must be a subgroup of the algebra's group")
    der = derived_subgroup(G)
    if not N.contains(der):
        raise ValueError("N must contain the derived subgroup G'")
    return (N.order - 1,
            G.order - G.order // der.order + N.order // der.order - 1)


@dataclass(frozen=True)
class InvariantReport:
    """Field-by-field record of the algebra-determined invariants."""

    identifier: str
    p: int
    group_order: int
    n_order: int
    n_abelian: bool
    n_index: int
    bjz_factors: tuple[int, ...]
    ideal_dims: tuple[int, int]
    class_sum_pth_power_count: int
    phi_minus_zn: int
    phi_minus_zg: int
    abelian_type_n: Optional[tuple[int, ...]]
    class_size_census: tuple[tuple[int, int], ...]
    proposition_inapplicable: bool
    sehgal_census: tuple[dict, ...]

    def comparison_fields(self) -> tuple:
        """Everything that must agree for two reports to be invariant-equal.

        The per-generator census is diagnostic (it depends on the choice of
        generating pair, not only on the algebra) and is excluded, as is the
        identifier.
        """
        return (self.p, self.group_order, self.n_order, self.n_abelian,
                self.n_index, self.bjz_factors, self.ideal_dims,
                self.class_sum_pth_power_count, self.phi_minus_zn,
                self.phi_minus_zg, self.abelian_type_n,
                self.class_size_census, self.proposition_inapplicable)

    def as_dict(self) -> dict:
        return {
            "identifier": self.identifier,
            "p": self.p,
            "group_order": self.group_order,
            "n": {"order": self.n_order, "abelian": self.n_abelian,
                  "index": self.n_index},
            "bjz_factors": list(self.bjz_factors),
            "ideal_dims": list(self.ideal_dims),
            "class_sum_pth_power_count": self.class_sum_pth_power_count,
            "phi_minus_zn": self.phi_minus_zn,
            "phi_minus_zg": self.phi_minus_zg,
            "abelian_type_n": (list(self.abelian_type_n)
                               if self.abelian_type_n is not None else None),
            "class_size_census": [list(pair) for pair in self.class_size_census],
            "proposition_inapplicable": self.proposition_inapplicable,
            "sehgal_census": [dict(e) for e in self.sehgal_census],
        }


def invariant_report(G: FiniteGroup, FG: GroupAlgebra,
                     identifier: str = "G") -> InvariantReport:
    """Assemble the full invariant report for one group algebra.

    Records N and its data, the filtration factor orders of N, the ideal
    dimensions, the class-sum p-th-power count, the sizes of Phi(N) - Z(N)
    and Phi(N) - Z(G) (the two differ exactly by the elements of Phi(N)
    central in N but not in G, so both are computed and labeled), the
    abelian type of N when N is abelian, a
    census {class size: number of classes} over the noncentral elements of
    Phi(N), and the per-generator centralizer-index census.  When N = G the
    report flags the index-p machinery as inapplicable.
    """
    if FG.group is not G:
        raise ValueError("FG must be the group algebra of G")
    N = compute_N(G)
    n_abelian = N.is_abelian()
    phi = frattini(N)
    # Phi(N) - Z(N) and Phi(N) - Z(G), as masks over N's and G's elements
    minus_zn = phi.has_keys(N.keys()) & ~N.central_mask()
    minus_zg = phi.has_keys(G.keys()) & ~G.central_mask()

    # a class lies in Phi(N) - Z(G) with its smallest element
    reps, sizes = np.unique(conjugacy_classes(G), return_counts=True)
    census = np.unique(sizes[minus_zg[reps]], return_counts=True)

    sehgal = []
    gens = np.array(G.generators, dtype=np.int64).reshape(-1, G.ambient.width)
    orders = G.ambient.orders_array(gens).tolist()
    powers_central = G.central_mask()[
        G.indices_of_rows(G.ambient.power_array(gens, G.p))].tolist()
    for pos, y in enumerate(G.generators):
        idx = centralizer_index(G, y)
        sehgal.append({
            "generator": pos,
            "order": orders[pos],
            "p_th_power_central": powers_central[pos],
            "centralizer_index": idx,
            "index_equals_p": (idx == G.p) if not powers_central[pos] else None,
        })

    return InvariantReport(
        identifier=identifier,
        p=G.p,
        group_order=G.order,
        n_order=N.order,
        n_abelian=n_abelian,
        n_index=G.order // N.order,
        bjz_factors=tuple(jennings_factor_orders(N)),
        ideal_dims=ideal_subring_dim(FG, N),
        class_sum_pth_power_count=FG.class_sum_pth_power_count(),
        phi_minus_zn=int(np.count_nonzero(minus_zn)),
        phi_minus_zg=int(np.count_nonzero(minus_zg)),
        abelian_type_n=abelian_type(N) if n_abelian else None,
        class_size_census=tuple(zip(*(a.tolist() for a in census))),
        proposition_inapplicable=N.order == G.order,
        sehgal_census=tuple(sehgal),
    )


def reports_invariant_equal(r1: InvariantReport, r2: InvariantReport) -> bool:
    """Field-by-field equality excluding the identifier (and diagnostics)."""
    if r1.p != r2.p:
        raise ValueError("reports compare only at the same prime")
    return r1.comparison_fields() == r2.comparison_fields()


__all__ = [
    "InvariantReport", "compute_N", "abelian_type", "ideal_subring_dim",
    "invariant_report", "reports_invariant_equal",
]
