"""Construction and certification of the unit witness beta in F2[H].

beta = 1 + x(1 + z) is a unit whose pair (x, beta) generates a subgroup of
the unit group isomorphic to G and spanning F2[H]; transporting G's basis
through derivation words then yields an explicit algebra isomorphism
F2[G] -> F2[H].  :func:`verify_witness` certifies every step and returns an
:class:`IsomorphismCertificate` with the full basis-image matrix.

This module does the algebra work only.  The unit subgroup <x, beta> is
handed to the group engine as a ``regular`` ambient (:func:`unit_group`),
so its structure is checked by the same recognition as any other group,
and independence modulo A^2 is read off coordinates in H/Phi(H).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ambient import Element, regular_ambient
from .algebra import (AlgebraElement, FpMatrix, GroupAlgebra, is_unit,
                      unit_order)
from .groups import FiniteGroup, closure, frattini_coordinates
from .isomorphism import ClauseList, recognize_presented_group

DEFAULT_SAMPLE_SIZE = 1024
EXHAUSTIVE_LIMIT = 512


@dataclass(frozen=True)
class UnitGroupSubgroup:
    """A finite subgroup of the normalized units, in discovery order.

    Element i (other than the identity, element 0) equals
    elements[bfs_parent[i]] * generators[bfs_gen[i]], and columns[j][i] is
    the position of elements[i] * generators[j].
    """

    algebra: GroupAlgebra
    elements: tuple[AlgebraElement, ...]
    generators: tuple[AlgebraElement, ...]
    bfs_parent: tuple[int, ...]
    bfs_gen: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def unit_closure(algebra: GroupAlgebra, generators: Sequence[AlgebraElement],
                 safety_factor: int = 4) -> UnitGroupSubgroup:
    """Breadth-first closure of unit generators under multiplication.

    Deterministic: FIFO discovery with generators in the given order.
    Raises RuntimeError when the closure exceeds dim * safety_factor, which
    signals a non-unit generator or an arithmetic bug.
    """
    gens = tuple(generators)
    for u in gens:
        if u.algebra is not algebra:
            raise ValueError("generator from a different algebra")
        if not is_unit(u):
            raise ValueError("unit_closure requires unit generators")
    bound = algebra.dim * safety_factor
    one = algebra.one()
    seen = {one.key: 0}
    elements = [one]
    parents = [0]
    genidx = [0]
    columns: list[list[int]] = [[] for _ in gens]
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
    return UnitGroupSubgroup(algebra=algebra, elements=tuple(elements),
                             generators=gens, bfs_parent=tuple(parents),
                             bfs_gen=tuple(genidx),
                             columns=tuple(map(tuple, columns)))


def unit_group(subgroup: UnitGroupSubgroup) -> FiniteGroup:
    """The unit subgroup as a group on its points (i,), i = discovery number.

    Built on a ``regular`` ambient from the generator columns, so group
    tooling (recognition, the brute-force oracle, Cayley tables) runs on
    unit multiplication; element i of the result is subgroup.elements[i].
    """
    ambient = regular_ambient(subgroup.algebra.p, subgroup.columns,
                              subgroup.bfs_parent, subgroup.bfs_gen)
    return closure(ambient, [(col[0],) for col in subgroup.columns])


# -- witness constructions ------------------------------------------------------


def build_beta(FH: GroupAlgebra, x: Element, z: Element) -> AlgebraElement:
    """The unit 1 + x(1 + z) with support {1, x, xz}."""
    H = FH.group
    if x not in H or z not in H:
        raise ValueError("witness generators must lie in H")
    xz = H.mul(x, z)
    if len({H.identity, x, xz}) != 3:
        raise ValueError("degenerate witness support")
    return FH.from_elements([H.identity, x, xz])


def build_beta_k3(FH: GroupAlgebra, x: Element, z: Element, d_sq: Element,
                  k: int) -> AlgebraElement:
    """The alternative witness d^2 + zx[z,x](1 + z), valid only for k = 3."""
    if k != 3:
        raise ValueError("this witness form requires family parameter k = 3")
    H = FH.group
    for g in (x, z, d_sq):
        if g not in H:
            raise ValueError("witness ingredients must lie in H")
    u = H.comm(z, x)
    zxu = H.mul(H.mul(z, x), u)
    return FH.from_elements([d_sq, zxu, H.mul(zxu, z)])


def build_beta_general(FH: GroupAlgebra, zeta: AlgebraElement, x_t: Element,
                       z: Element, m: int) -> AlgebraElement:
    """The general witness zeta + x_t(1 + z); preconditions verified.

    zeta must be a central unit of order < 2^m and x_t must move z under
    conjugation.
    """
    H = FH.group
    if x_t not in H or z not in H:
        raise ValueError("witness generators must lie in H")
    if not is_unit(zeta):
        raise ValueError("zeta must be a unit")
    if not zeta.is_central():
        raise ValueError("zeta must be central")
    zorder = unit_order(zeta)
    if zorder >= 2 ** m:
        raise ValueError(f"zeta has order {zorder}, not below 2^m = {2 ** m}")
    if H.conj(z, x_t) == z:
        raise ValueError("x_t must not fix z under conjugation")
    ext = FH.embed(x_t)
    return zeta + ext + FH.embed(H.mul(x_t, z))


# -- certification -----------------------------------------------------------------


@dataclass(frozen=True)
class IsomorphismCertificate:
    """Checked evidence that F2[G] and F2[H] are isomorphic via the witness."""

    params: tuple[int, int, int]
    dim: int
    beta_order: int
    order_note: Optional[str]
    clauses: ClauseList
    rank: int
    matrix_keys: tuple[int, ...]
    sample: dict
    valid: bool


def verify_witness(FG: GroupAlgebra, FH: GroupAlgebra, beta: AlgebraElement,
                   params: tuple[int, int, int], seed: int = 0,
                   sample_size: int = DEFAULT_SAMPLE_SIZE,
                   exhaustive: bool = False) -> IsomorphismCertificate:
    """Certify that mapping (x, y) -> (x, beta) extends to F2[G] = F2[H].

    Clause chain: (a) unit order of beta equals 2^m (recorded, with a note
    when it differs from 2^k); (b) beta^2 central; (c) the unit closure of
    {x, beta} has exactly |G| elements; (d) the structural recognition
    clauses hold for that unit subgroup on the pair (x, beta); (e) the unit
    subgroup spans F2[H]; (f) x+1 and beta+1 are independent modulo the
    square of the augmentation ideal; (g) basis transport along G's
    derivation words is bijective and multiplicative (seeded sample, or
    exhaustively over all |G|^2 pairs when requested and |G| <= 512).
    """
    if not exhaustive and sample_size < 1:
        raise ValueError(f"sample_size must be at least 1, got {sample_size}")
    n, m, k = params
    G = FG.group
    H = FH.group
    if beta.algebra is not FH:
        raise ValueError("beta must be an element of F2[H]")
    if not is_unit(beta):
        raise ValueError("beta must be a unit")
    if FG.p != 2 or FH.p != 2:
        raise ValueError("witness certification works over F2")
    if len(G.generators) != 2:
        raise ValueError("G must carry a stored generating pair")
    x = G.generators[0]
    if x not in H:
        raise ValueError("shared generator x must lie in H")
    if exhaustive and G.order > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"exhaustive multiplicativity supported up to |G| = {EXHAUSTIVE_LIMIT}")

    clauses = ClauseList()
    add = clauses.add

    # (a) unit order
    beta_order = unit_order(beta)
    order_note = None
    if beta_order != 2 ** k:
        order_note = (f"computed unit order {beta_order} = 2^{beta_order.bit_length() - 1} "
                      f"differs from 2^k = {2 ** k}")
    add("beta-order", "the witness unit has order 2^m",
        beta_order == 2 ** m, order=beta_order, expected=2 ** m,
        note=order_note)

    # (b) beta^2 central
    beta_sq = beta * beta
    ex = FH.embed(x)
    ex_inv = FH.embed(H.inv(x))
    conj_sq = ex_inv * beta_sq * ex
    add("beta-square-central", "the square of the witness unit is central",
        beta_sq.is_central(), fixed_by_x=conj_sq == beta_sq)

    # (c) closure size
    closure_error = None
    subgroup: Optional[UnitGroupSubgroup] = None
    try:
        subgroup = unit_closure(FH, (ex, beta))
    except RuntimeError as exc:
        closure_error = str(exc)
    if subgroup is None:
        add("closure-size", "the unit subgroup <x, beta> has |G| elements",
            False, error=closure_error)
    else:
        add("closure-size", "the unit subgroup <x, beta> has |G| elements",
            subgroup.order == G.order, size=subgroup.order, expected=G.order)

    # (d) structural recognition on the unit pair, by the group engine
    if subgroup is not None and clauses[-1].passed:
        U = unit_group(subgroup)
        a, b = U.generators
        rec = recognize_presented_group(U, a, b, n, m, k)
        rec_data = {c.id: c.data for c in rec.clauses}
        meet = rec_data["central-squares-meet-derived-trivially"]
        data = {"order_a": rec_data["order-a"]["order"],
                "order_b": rec_data["order-b"]["order"],
                "commutator_order": U.order_of(U.comm(b, a)),
                "derived_order": rec_data["derived-order"]["order"],
                "subclauses": [{"id": c.id, "passed": c.passed}
                               for c in rec.clauses],
                "first_failing": rec.clauses.first_failing}
        if "intersection_size" in meet:
            data["squares_meet_derived_size"] = meet["intersection_size"]
        add("unit-recognition",
            "the unit subgroup satisfies the structural clauses of the target group",
            rec.ok, **data)
    else:
        add("unit-recognition",
            "the unit subgroup satisfies the structural clauses of the target group",
            False, skipped="closure unavailable")

    # (e) spanning
    if subgroup is not None:
        span = FpMatrix(2, FH.dim, (u.key for u in subgroup.elements))
        add("spanning", "the unit subgroup spans the whole algebra",
            span.rank() == FH.dim, rank=span.rank(), dim=FH.dim)
    else:
        add("spanning", "the unit subgroup spans the whole algebra", False,
            skipped="closure unavailable")

    # (f) independence modulo A^2, read off coordinates in H/Phi(H).  Let
    # theta(sum c_h h) = sum c_h coords(h) mod 2; on the augmentation ideal
    # A it is onto F_2^d, since theta(h - 1) = coords(h).  Its kernel on A
    # is A^2 (Jennings 1941):
    #   A^2 <= ker: A^2 is spanned by (g-1)(h-1) = (gh-1) - (g-1) - (h-1),
    #     which theta sends to 0 because coords is a homomorphism;
    #   dim A/A^2 <= d: by the same identity h -> h-1 + A^2 is a
    #     homomorphism into an elementary abelian 2-group, so it kills
    #     Phi(H), and its image, which spans A/A^2, comes from d cosets;
    # so |H|-1-d <= dim A^2 <= dim ker = |H|-1-d.  Over F_2 two vectors are
    # independent iff both are nonzero and they differ.
    coords = frattini_coordinates(H)
    one = FH.one()
    theta_x = (ex + one).vec() @ coords % 2
    theta_b = (beta + one).vec() @ coords % 2
    x_outside, beta_outside = bool(theta_x.any()), bool(theta_b.any())
    add("independent-mod-a2",
        "x + 1 and beta + 1 are linearly independent modulo A^2",
        x_outside and beta_outside and not np.array_equal(theta_x, theta_b),
        a2_dim=H.order - 1 - coords.shape[1], x_outside=x_outside,
        beta_outside=beta_outside)

    # (g) basis transport
    images = _transport_unit_images(FG, FH, (ex, beta))
    mx = FpMatrix(2, FH.dim, (u.key for u in images))
    matrix_rank = mx.rank()
    invertible = matrix_rank == G.order == FH.dim
    if exhaustive:
        checked, mismatches = _exhaustive_multiplicativity(FG, FH, images)
        sample = {"mode": "exhaustive", "pairs": checked,
                  "mismatches": mismatches, "seed": seed}
    else:
        checked, mismatches = _sampled_multiplicativity(FG, FH, images,
                                                        seed, sample_size)
        sample = {"mode": "sampled", "pairs": checked,
                  "mismatches": mismatches, "seed": seed}
    add("basis-transport",
        "derivation-word transport is bijective and multiplicative",
        invertible and mismatches == 0, rank=matrix_rank,
        pairs=checked, mismatches=mismatches, mode=sample["mode"])

    valid = clauses.ok
    return IsomorphismCertificate(
        params=(n, m, k), dim=FH.dim, beta_order=beta_order,
        order_note=order_note, clauses=clauses, rank=matrix_rank,
        matrix_keys=tuple(int(u.key) for u in images), sample=sample,
        valid=valid)


def _transport_unit_images(FG: GroupAlgebra, FH: GroupAlgebra,
                           img_gens: tuple[AlgebraElement, ...]) -> list[AlgebraElement]:
    """Images of every canonical basis element of F2[G] under word transport."""
    G = FG.group
    images: list[Optional[AlgebraElement]] = [None] * G.order
    images[G.identity_index] = FH.one()
    for i in G.bfs_order:
        if i == G.identity_index:
            continue
        images[i] = images[G.bfs_parent[i]] * img_gens[G.bfs_gen[i]]
    return images  # type: ignore[return-value]


def _sampled_multiplicativity(FG: GroupAlgebra, FH: GroupAlgebra,
                              images: Sequence[AlgebraElement], seed: int,
                              sample_size: int) -> tuple[int, int]:
    G = FG.group
    table = G.cayley_table()
    rng = random.Random(seed)
    size = G.order
    mismatches = 0
    for _ in range(sample_size):
        i = rng.randrange(size)
        j = rng.randrange(size)
        if images[i] * images[j] != images[int(table[i, j])]:
            mismatches += 1
    return sample_size, mismatches


def _exhaustive_multiplicativity(FG: GroupAlgebra, FH: GroupAlgebra,
                                 images: Sequence[AlgebraElement]) -> tuple[int, int]:
    """Check image(g)*image(g') = image(gg') for all pairs, batched exactly.

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
    return size * size, mismatches
