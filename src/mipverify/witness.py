"""Construction and certification of the unit witness beta in F2[H].

beta = 1 + x(1 + z) is a unit whose pair (x, beta) generates a subgroup of
the unit group isomorphic to G and spanning F2[H]; transporting G's basis
through derivation words then yields an explicit algebra isomorphism
F2[G] -> F2[H].  :func:`verify_witness` certifies every step and returns an
:class:`IsomorphismCertificate` with the full basis-image matrix.

This module does the algebra work only.  The closure of <x, beta> runs on
bit planes of the packed units, so unpacking and packing never stride
along the coefficient axis, and records each unit times each generator.
U is never built as a group: the transport of G's basis and every
product in U that the certificate reads are G's words read through those
columns, index work on G's breadth-first tree.
Spanning is one XOR (the unit-sum lemma), and independence modulo A^2 is
read off coordinates in H/Phi(H).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from .ambient import Element, GuardExceeded, sorted_distinct
from .algebra import (AlgebraElement, FpMatrix, GroupAlgebra, is_unit,
                      unit_order)
from .groups import FiniteGroup, frattini_coordinates
from .isomorphism import ClauseList

DEFAULT_SAMPLE_SIZE = 1024
EXHAUSTIVE_LIMIT = 512
# Largest memory for the packed units of the closure (and of a dependent
# closure's elimination in clause (e)) that verify_witness takes on.
UNIT_BUDGET_BYTES = 2 ** 30


@dataclass(frozen=True)
class UnitGroupSubgroup:
    """A finite subgroup of the normalized units, in discovery order.

    columns[j][i] is the position of elements[i] * generators[j].
    """

    algebra: GroupAlgebra
    elements: tuple[AlgebraElement, ...]
    generators: tuple[AlgebraElement, ...]
    columns: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.elements)


# Bytes of unpacked coefficients in one block of the vectorized closure,
# and pairs in one block of the multiplicativity count.
_CLOSURE_BLOCK_BYTES = 2 ** 24
_PAIR_BLOCK = 2 ** 14


def unit_closure(algebra: GroupAlgebra, generators: Sequence[AlgebraElement],
                 safety_factor: int = 4) -> UnitGroupSubgroup:
    """Breadth-first closure of unit generators of F2[H] under multiplication.

    One level at a time on unpacked coefficient columns: (v h)[index(g)] =
    v[index(g h^-1)], so right multiplication by a unit u XORs the gathers
    of v by the right columns of h^-1 over h in supp(u).  Coefficients are
    unpacked and packed by bit planes, never along the strided coefficient
    axis: row 8 b + j of a block holds bit j of byte b of each unit's key,
    one byte per unit and eight units to a uint64 word, so each shift and
    mask acts on eight units at once (rows past dim are zero padding, which
    the gathers map to themselves).  Products are deduplicated on packed
    keys in (frontier position, generator) order: the FIFO order of a
    one-at-a-time search.  Raises RuntimeError when the closure exceeds
    dim * safety_factor, which signals a non-unit generator or an arithmetic
    bug.
    """
    gens = tuple(generators)
    for u in gens:
        if u.algebra is not algebra:
            raise ValueError("generator from a different algebra")
        if not is_unit(u):
            raise ValueError("unit_closure requires unit generators")
    if algebra.p != 2:
        raise ValueError("unit_closure works over F2")
    H, dim = algebra.group, algebra.dim
    bound = dim * safety_factor
    nbytes = (dim + 7) // 8
    pad = np.arange(dim, 8 * nbytes, dtype=np.int32)
    supports = [u.support() for u in gens]
    # the right column of h^-1 for each h in some support, and the last
    # generator whose support holds h
    distinct = sorted(set().union(*supports) - {H.identity_index})
    gather = {h: np.concatenate((col, pad)) for h, col in
              zip(distinct, H.right_columns(H.ambient.inv_array(H.array()[distinct])))}
    last_use = {h: g for g, support in enumerate(supports) for h in support}
    shifts = [np.uint64(j) for j in range(8)]
    lanes = np.uint64(0x0101010101010101)  # bit 0 of each byte of a word
    block = max(1, _CLOSURE_BLOCK_BYTES // (8 * nbytes * (len(gens) + 2)))
    keys = [algebra.one().key]
    seen = {keys[0]: 0}  # packed key -> discovery number
    columns: list[list[int]] = [[] for _ in gens]
    frontier = [0]
    while gens and frontier:
        nxt = []
        for lo in range(0, len(frontier), block):
            ids = frontier[lo:lo + block]
            # key bytes, one column per unit, in words of 8 units (zero padded)
            width = -(-len(ids) // 8)
            raw = b"".join(keys[i].to_bytes(nbytes, "little") for i in ids)
            raw += bytes(nbytes * (8 * width - len(ids)))
            words = np.frombuffer(raw, np.uint8).reshape(-1, nbytes).T.copy()
            words = words.view(np.uint64)
            # part[8 b + j]: bit j of byte b of each key, one byte per unit
            part = np.empty((nbytes, 8, width), np.uint64)
            for j, shift in enumerate(shifts):
                np.bitwise_and(words >> shift, lanes, out=part[:, j])
            part = part.reshape(8 * nbytes, width)
            # cand[g, b]: byte b of the keys of the units times gens[g]
            cand = np.empty((len(gens), nbytes, width), np.uint64)
            # each column is gathered once per block, and kept until its
            # last generator; the identity's column is the block itself
            kept = {}
            for g, support in enumerate(supports):
                bits, owned = None, False
                for h in support:
                    term = part if h == H.identity_index else kept.get(h)
                    if term is None:
                        term = np.take(part, gather[h], axis=0)
                        if last_use[h] > g:
                            kept[h] = term
                    elif last_use[h] == g:
                        kept.pop(h, None)
                    if bits is None:
                        bits = term
                    elif owned:
                        bits ^= term
                    else:
                        bits, owned = bits ^ term, True
                bits = bits.reshape(nbytes, 8, width)
                np.copyto(cand[g], bits[:, 0])
                for j in range(1, 8):
                    cand[g] |= bits[:, j] << shifts[j]
            # row c: unit ids[c // len(gens)] times gens[c % len(gens)]
            buf = cand.view(np.uint8).transpose(2, 0, 1).tobytes()
            for c in range(len(gens) * len(ids)):
                key = int.from_bytes(buf[c * nbytes:(c + 1) * nbytes], "little")
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


def spanning_rank(subgroup: UnitGroupSubgroup) -> tuple[int, bool]:
    """The rank of the units in F2[H], and whether they are independent.

    Unit-sum lemma: a finite 2-group U of units of F2[H] is independent iff
    sum_{u in U} u != 0.  The kernel K of the algebra map F2[U] -> F2[H]
    extending the inclusion is a left ideal.  If K != 0, U acts on it by
    left multiplication in orbits of 2-power size and |K| is even, so it
    fixes some v != 0 (the fixed-point lemma for p-groups; Alperin, Local
    Representation Theory, 1986): uv = v for all u makes v = sum u, which
    thus maps to 0.  U is always a 2-group: a unit is 1 + a, a in the
    nilpotent augmentation ideal.  One XOR over the packed keys; only a
    dependent U is eliminated, for its exact rank.
    """
    keys = [u.key for u in subgroup.elements]
    if reduce(int.__xor__, keys):
        return subgroup.order, True
    return FpMatrix(2, subgroup.algebra.dim, keys).rank(), False


# -- witness constructions ------------------------------------------------------


def build_beta(FH: GroupAlgebra, x: Element, z: Element) -> AlgebraElement:
    """The unit 1 + x(1 + z) with support {1, x, xz}."""
    H = FH.group
    if x not in H or z not in H:
        raise ValueError("witness generators must lie in H")
    xz = H.ambient.mul(x, z)
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
    amb = H.ambient
    zxu = amb.mul(amb.mul(z, x), amb.comm(z, x))
    return FH.from_elements([d_sq, zxu, amb.mul(zxu, z)])


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
    if H.ambient.comm(z, x_t) == H.identity:
        raise ValueError("x_t must not fix z under conjugation")
    ext = FH.embed(x_t)
    return zeta + ext + FH.embed(H.ambient.mul(x_t, z))


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
    when it differs from 2^k); (b) beta^2 central; (c) the unit closure U
    of {x, beta} has exactly |G| elements; (e) U spans F2[H]
    (:func:`spanning_rank`); (f) x+1 and beta+1 are independent modulo the
    square of the augmentation ideal; (g) basis transport along G's
    derivation words is bijective and multiplicative: proved from the
    generator columns on every run, and evaluated on a seeded sample of
    pairs, or on all |G|^2 pairs when requested and |G| <= 512: both
    products of a pair read the right factor's word in G, along G's and
    along U's generator columns.  Raises :class:`GuardExceeded` before any
    clause when the packed units of (c) and (e) would take more than
    ``UNIT_BUDGET_BYTES``.

    No clause (d) recognizes U's structure: (g) gives U's isomorphism
    type.  The transport pi sends 1 to 1, and when (g) passes it meets
    pi(g a) = pi(g) a for both generators a, so pi is a homomorphism G -> U
    with x -> x and y -> beta, by induction on words; its images have rank
    |G|, so they are distinct and pi is injective.  Its image is a subgroup
    holding both generators of U, so it is all of U, and U is isomorphic
    to G.
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
    # the closure keeps |G| packed units, and a dependent closure's
    # elimination a reduced row and a combination of added rows for each
    need = 3 * G.order * ((FH.dim + 7) // 8)
    if need > UNIT_BUDGET_BYTES:
        raise GuardExceeded(
            f"the unit closure and spanning elimination for |G| = {G.order} "
            f"need about {need} bytes, above the unit budget of {UNIT_BUDGET_BYTES}")

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
    ex_inv = FH.embed(H.ambient.inv(x))
    conj_sq = ex_inv * beta_sq * ex
    add("beta-square-central", "the square of the witness unit is central",
        beta_sq.is_central(), fixed_by_x=conj_sq == beta_sq)

    # (c) closure size
    subgroup: Optional[UnitGroupSubgroup]
    try:
        subgroup = unit_closure(FH, (ex, beta))
    except RuntimeError as exc:
        subgroup, data = None, {"error": str(exc)}
    else:
        data = {"size": subgroup.order, "expected": G.order}
    add("closure-size", "the unit subgroup <x, beta> has |G| elements",
        subgroup is not None and subgroup.order == G.order, **data)

    # (e) spanning
    skipped = {"skipped": "closure unavailable"}
    passed, data = False, skipped
    if subgroup is not None:
        rank, independent = spanning_rank(subgroup)
        passed, data = rank == FH.dim, {"rank": rank, "dim": FH.dim}
    add("spanning", "the unit subgroup spans the whole algebra", passed, **data)

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

    # (g) basis transport on U's points: pi carries G's elements along their
    # words, so the images are U's elements in pi's order.  pi(g a) =
    # pi(g) a for both generators a and all g gives pi(g h) = pi(g) pi(h)
    # by induction on the word of h; U's columns are exact products, so the
    # linear extension is an algebra map.  The requested pairs are also
    # evaluated: pi(g_i) pi(g_j) is pi(g_i) read along g_j's word in U's
    # columns, which multiply by the unit generators exactly, so any word
    # for pi(g_j) gives the same unit.
    sample = {"mode": "exhaustive" if exhaustive else "sampled",
              "pairs": 0, "mismatches": 0, "seed": seed}
    matrix_rank, images, passed, data = 0, [], False, skipped
    if subgroup is not None:
        pi, column_mismatches = transport(G, subgroup)
        images = [subgroup.elements[i] for i in pi]
        points = sorted_distinct(pi)
        if independent:  # distinct units of an independent U
            matrix_rank = int(points.size)
        elif points.size == subgroup.order:  # clause (e)'s units
            matrix_rank = rank
        else:
            matrix_rank = FpMatrix(2, FH.dim, (u.key for u in images)).rank()
        g_cols = np.stack(G.right_columns(G.generators))
        u_cols = np.array(subgroup.columns, dtype=np.int32)
        if exhaustive:
            # for a block of left factors g_i, rg[j, i] = index(g_i g_j) and
            # ru[j, i] = pi(g_i) pi(g_j), both read along g_j's word
            origins = np.arange(G.order, dtype=np.int32)
            step = max(1, _PAIR_BLOCK // G.order)
            for lo in range(0, G.order, step):
                rg = G.transport(g_cols, origins[lo:lo + step])
                ru = G.transport(u_cols, pi[lo:lo + step].astype(np.int32))
                sample["mismatches"] += int(np.count_nonzero(pi[rg] != ru))
        else:
            rng = random.Random(seed)
            lefts, rights = np.array([rng.randrange(G.order) for _ in
                                      range(2 * sample_size)]).reshape(-1, 2).T
            for lo in range(0, lefts.size, _PAIR_BLOCK):
                i, j = lefts[lo:lo + _PAIR_BLOCK], rights[lo:lo + _PAIR_BLOCK]
                gij = G.walk(g_cols, i, j)
                uij = G.walk(u_cols, pi[i], j)
                sample["mismatches"] += int(np.count_nonzero(pi[gij] != uij))
        sample["pairs"] = G.order ** 2 if exhaustive else sample_size
        passed = (matrix_rank == G.order == FH.dim
                  and sample["mismatches"] == column_mismatches == 0)
        data = {"rank": matrix_rank, "pairs": sample["pairs"],
                "mismatches": sample["mismatches"], "mode": sample["mode"]}
    add("basis-transport",
        "derivation-word transport is bijective and multiplicative",
        passed, **data)

    return IsomorphismCertificate(
        params=(n, m, k), dim=FH.dim, beta_order=beta_order,
        order_note=order_note, clauses=clauses, rank=matrix_rank,
        matrix_keys=tuple(int(u.key) for u in images), sample=sample,
        valid=clauses.ok)


def transport(G: FiniteGroup,
              subgroup: UnitGroupSubgroup) -> tuple[np.ndarray, int]:
    """G's basis carried into the unit subgroup along G's derivation words.

    Returns pi, where pi[i] is the point reached by reading element i's
    word in the subgroup's generators, and the number of generator-column
    mismatches: pairs (g, a), a a generator, with pi(g a) != pi(g) a.
    """
    pi = G.transport(np.array(subgroup.columns, dtype=np.int64), 0)
    return pi, sum(int(np.count_nonzero(pi[col_g] != np.asarray(col_u)[pi]))
                   for col_g, col_u in zip(G.right_columns(G.generators),
                                           subgroup.columns))
