"""Construction and certification of the unit witness beta in F2[H].

beta = 1 + x(1 + z) is a unit whose pair (x, beta) generates a subgroup of
the unit group isomorphic to G and spanning F2[H]; transporting G's basis
through derivation words then yields an explicit algebra isomorphism
F2[G] -> F2[H].  :func:`verify_witness` certifies every step and returns an
:class:`IsomorphismCertificate` with the full basis-image matrix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ambient import Element, make_ambient
from .algebra import (AlgebraElement, FpMatrix, GroupAlgebra, is_unit,
                      unit_inverse, unit_order)
from .groups import FiniteGroup, closure
from .isomorphism import Clause

DEFAULT_SAMPLE_SIZE = 1024
EXHAUSTIVE_LIMIT = 512


@dataclass(frozen=True)
class UnitGroupSubgroup:
    """A finite subgroup of the normalized units, with derivation words."""

    algebra: GroupAlgebra
    elements: tuple[AlgebraElement, ...]
    generators: tuple[AlgebraElement, ...]
    words: tuple[tuple[int, ...], ...]
    bfs_parent: tuple[int, ...]
    bfs_gen: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self, u: AlgebraElement) -> Optional[int]:
        for i, v in enumerate(self.elements):
            if v == u:
                return i
        return None


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
    words: list[tuple[int, ...]] = [()]
    parents = [0]
    genidx = [0]
    frontier = [0]
    while frontier:
        nxt = []
        for pos in frontier:
            for j, a in enumerate(gens):
                prod = elements[pos] * a
                if prod.key not in seen:
                    seen[prod.key] = len(elements)
                    elements.append(prod)
                    words.append(words[pos] + (j,))
                    parents.append(pos)
                    genidx.append(j)
                    nxt.append(seen[prod.key])
                    if len(elements) > bound:
                        raise RuntimeError(
                            f"unit closure exceeded {bound} elements")
        frontier = nxt
    return UnitGroupSubgroup(algebra=algebra, elements=tuple(elements),
                             generators=gens, words=tuple(words),
                             bfs_parent=tuple(parents), bfs_gen=tuple(genidx))


def unit_group_table(subgroup: UnitGroupSubgroup) -> np.ndarray:
    """Cayley table of a unit subgroup via batched exact matrix products."""
    alg = subgroup.algebra
    if alg.p != 2:
        raise ValueError("unit_group_table is implemented for p = 2")
    units = subgroup.elements
    size = len(units)
    dim = alg.dim
    vecs = np.stack([u.vec() for u in units]).astype(np.float32)
    table_h = alg.group.cayley_table()
    index = {u.key: i for i, u in enumerate(units)}
    out = np.empty((size, size), dtype=np.int32)
    rows = np.arange(dim)[:, None]
    scatter_cols = table_h.T
    cbuf = np.empty((dim, dim), dtype=np.float32)
    for i, u in enumerate(units):
        cbuf[:] = 0.0
        cbuf[rows, scatter_cols] = u.vec()[None, :].astype(np.float32)
        prod = (vecs @ cbuf).astype(np.int64) & 1
        packed = np.packbits(prod.astype(np.uint8), axis=1, bitorder="little")
        for j in range(size):
            key = int.from_bytes(packed[j].tobytes(), "little")
            pos = index.get(key)
            if pos is None:
                raise RuntimeError("unit subgroup is not closed; arithmetic bug")
            out[j, i] = pos  # row j, column i: units[j] * units[i]
    return out


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


# -- unit-subgroup structure helpers ---------------------------------------------


def _unit_comm(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return unit_inverse(b * a) * (a * b)


def _unit_mulclose(algebra: GroupAlgebra, seeds: Sequence[AlgebraElement],
                   bound: int) -> list[AlgebraElement]:
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
                    if len(seen) > bound:
                        raise RuntimeError("unit subgroup closure exceeded bound")
        frontier = nxt
    return list(seen.values())


def _unit_normal_closure(algebra: GroupAlgebra, seeds: Sequence[AlgebraElement],
                         conjugators: Sequence[AlgebraElement],
                         bound: int) -> list[AlgebraElement]:
    inv_conj = [unit_inverse(c) for c in conjugators]
    orbit: dict = {}
    frontier = []
    one = algebra.one()
    for u in seeds:
        if u != one and u.key not in orbit:
            orbit[u.key] = u
            frontier.append(u)
    while frontier:
        nxt = []
        for u in frontier:
            for c, ci in zip(conjugators, inv_conj):
                v = ci * u * c
                if v.key not in orbit:
                    orbit[v.key] = v
                    nxt.append(v)
                    if len(orbit) > bound:
                        raise RuntimeError("unit normal closure exceeded bound")
        frontier = nxt
    return _unit_mulclose(algebra, list(orbit.values()), bound)


def _unit_power_order(u: AlgebraElement) -> int:
    return unit_order(u)


# -- certification -----------------------------------------------------------------


@dataclass(frozen=True)
class IsomorphismCertificate:
    """Checked evidence that F2[G] and F2[H] are isomorphic via the witness."""

    params: tuple[int, int, int]
    dim: int
    beta_order: int
    order_note: Optional[str]
    clauses: tuple[Clause, ...]
    rank: int
    matrix_keys: tuple[int, ...]
    sample: dict
    valid: bool

    @property
    def first_failing(self) -> Optional[str]:
        for c in self.clauses:
            if not c.passed:
                return c.id
        return None


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

    clauses: list[Clause] = []

    def add(cid: str, statement: str, passed: bool, **data) -> None:
        clauses.append(Clause(cid, statement, bool(passed), data))

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

    # (d) structural recognition on the unit pair
    comm_order = None
    if subgroup is not None and clauses[-1].passed:
        rec_ok, rec_data = _unit_recognition(FH, subgroup, ex, beta, n, m, k)
        comm_order = rec_data.get("commutator_order")
        add("unit-recognition",
            "the unit subgroup satisfies the structural clauses of the target group",
            rec_ok, **rec_data)
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

    # (f) independence modulo A^2
    a2 = FH.aug_ideal_power_basis(2)
    one = FH.one()
    probe = FpMatrix(2, FH.dim)
    for row in a2.basis_rows():
        probe.add_row(row)
    base_rank = probe.rank()
    xplus = ex + one
    bplus = beta + one
    x_indep = probe.add_row(xplus.key)
    both_indep = probe.add_row(bplus.key)
    add("independent-mod-a2",
        "x + 1 and beta + 1 are linearly independent modulo A^2",
        x_indep and both_indep,
        a2_dim=base_rank, x_outside=a2.membership(xplus.key) is None,
        beta_outside=a2.membership(bplus.key) is None)

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

    valid = all(c.passed for c in clauses)
    return IsomorphismCertificate(
        params=(n, m, k), dim=FH.dim, beta_order=beta_order,
        order_note=order_note, clauses=tuple(clauses), rank=matrix_rank,
        matrix_keys=tuple(int(u.key) for u in images), sample=sample,
        valid=valid)


def _unit_recognition(FH: GroupAlgebra, subgroup: UnitGroupSubgroup,
                      a: AlgebraElement, b: AlgebraElement,
                      n: int, m: int, k: int) -> tuple[bool, dict]:
    """Structural clauses on the unit pair, mirroring group recognition."""
    data: dict = {}
    checks: list[tuple[str, bool]] = []
    checks.append(("parameters", n > m >= k >= 3))
    oa = unit_order(a)
    ob = unit_order(b)
    data["order_a"] = oa
    data["order_b"] = ob
    checks.append(("order-a", oa == 2 ** n))
    checks.append(("order-b", ob == 2 ** m))
    gens = (a, b)

    def central(u: AlgebraElement) -> bool:
        return all(u * g == g * u for g in gens)

    a2, b2 = a * a, b * b
    checks.append(("a-square-central", central(a2)))
    checks.append(("b-square-central", central(b2)))
    bound = subgroup.order
    comm = _unit_comm(b, a)
    data["commutator_order"] = unit_order(comm)
    derived = _unit_normal_closure(FH, [comm], gens, bound)
    data["derived_order"] = len(derived)
    checks.append(("derived-order", len(derived) == 2 ** (k - 1)))
    if checks[3][1] and checks[4][1]:
        span_keys = set()
        ui = FH.one()
        for _ in range(max(oa // 2, 1)):
            uij = ui
            for _ in range(max(ob // 2, 1)):
                span_keys.add(uij.key)
                uij = uij * b2
            ui = ui * a2
        derived_keys = {u.key for u in derived}
        meet = span_keys & derived_keys
        checks.append(("central-squares-meet-derived-trivially",
                       meet == {FH.one().key}))
        data["squares_meet_derived_size"] = len(meet)
    else:
        checks.append(("central-squares-meet-derived-trivially", False))
    data["subclauses"] = [{"id": cid, "passed": passed} for cid, passed in checks]
    failing = [cid for cid, passed in checks if not passed]
    data["first_failing"] = failing[0] if failing else None
    return not failing, data


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


def unit_subgroup_as_table_group(subgroup: UnitGroupSubgroup) -> FiniteGroup:
    """Rebuild a unit subgroup as an explicit table-backed FiniteGroup.

    Lets group-level tooling (e.g. the brute-force isomorphism oracle) run
    directly on unit-group multiplication.
    """
    table = unit_group_table(subgroup)
    gen_positions = []
    for g in subgroup.generators:
        pos = next(i for i, u in enumerate(subgroup.elements) if u == g)
        gen_positions.append(pos)
    ambient = make_ambient(subgroup.algebra.p, "table", 1, 0, 0,
                           table=table, table_generators=gen_positions)
    gens = [(pos, 0, 0) for pos in gen_positions]
    return closure(ambient, gens)
