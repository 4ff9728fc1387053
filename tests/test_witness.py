"""Unit-witness construction, certification clauses, and unit-group tooling."""

import dataclasses
import random
from functools import lru_cache

import numpy as np
import pytest

import mipverify.groups as groups_mod
import mipverify.ntt as ntt_mod
import mipverify.witness as witness_mod

from mipverify.algebra import GroupAlgebra, is_unit, unit_order
from mipverify.ambient import GuardExceeded
from mipverify.cli import _make_zeta
from mipverify.family import build_family
from mipverify.groups import closure, frattini
from mipverify.isomorphism import isomorphic_bruteforce
from mipverify.witness import (build_beta, build_beta_general, build_beta_k3,
                               spanning_rank, transport, unit_closure,
                               verify_witness)

from conftest import (algebra_unit_recognition, eliminated_a2_independence,
                      eliminated_spanning_rank, float32_pair_mismatches,
                      matmul_unit_table, packbits_unit_closure,
                      product_generator_mismatches, product_transport_images,
                      sampled_product_mismatches, scalar_unit_closure,
                      small_group_catalog, unit_inverse, unit_tree,
                      word_pair_mismatches)

CLAUSE_IDS = ["beta-order", "beta-square-central", "closure-size",
              "spanning", "independent-mod-a2", "basis-transport"]


@pytest.fixture(scope="module")
def beta433(FH433, inst433):
    return build_beta(FH433, inst433.x, inst433.z)


@pytest.fixture(scope="module")
def cert433(FG433, FH433, beta433):
    return verify_witness(FG433, FH433, beta433, (4, 3, 3))


def test_beta_support(FH433, inst433, beta433):
    H = FH433.group
    xz = H.ambient.mul(inst433.x, inst433.z)
    expected = {H.index(H.identity), H.index(inst433.x), H.index(xz)}
    assert set(beta433.support()) == expected
    assert beta433.augmentation() == 1


def test_beta_order_and_square(FH433, inst433, beta433):
    assert unit_order(beta433) == 8
    sq = beta433 * beta433
    assert sq.is_central()
    x_emb = FH433.embed(inst433.x)
    assert unit_inverse(x_emb) * sq * x_emb == sq


def test_certificate_valid(cert433):
    assert cert433.valid
    assert cert433.clauses.first_failing is None
    assert [c.id for c in cert433.clauses] == CLAUSE_IDS
    assert cert433.beta_order == 8
    assert cert433.order_note is None
    assert cert433.rank == 512
    assert len(cert433.matrix_keys) == 512


def test_certificate_clause_data(cert433, FH433, inst433, beta433):
    data = {c.id: c.data for c in cert433.clauses}
    assert data["beta-order"] == {"order": 8, "expected": 8, "note": None}
    assert data["beta-square-central"]["fixed_by_x"] is True
    assert data["closure-size"] == {"size": 512, "expected": 512}
    ok, rec = algebra_unit_recognition(FH433, 512, FH433.embed(inst433.x),
                                       beta433, 4, 3, 3)
    assert ok and rec["first_failing"] is None
    assert rec["order_a"] == 16 and rec["order_b"] == 8
    assert rec["commutator_order"] == 4 and rec["derived_order"] == 4
    assert rec["squares_meet_derived_size"] == 1
    assert data["spanning"] == {"rank": 512, "dim": 512}
    assert data["independent-mod-a2"]["a2_dim"] == 509
    transport = data["basis-transport"]
    assert transport["mode"] == "sampled" and transport["pairs"] == 1024
    assert transport["mismatches"] == 0


def test_certificate_seed_determinism(FG433, FH433, beta433, cert433):
    again = verify_witness(FG433, FH433, beta433, (4, 3, 3))
    assert again.matrix_keys == cert433.matrix_keys
    assert [c.data for c in again.clauses] == [c.data for c in cert433.clauses]
    other_seed = verify_witness(FG433, FH433, beta433, (4, 3, 3), seed=99)
    assert other_seed.valid


@pytest.mark.parametrize("size", [0, -5])
def test_sample_size_below_one_rejected(FG433, FH433, beta433, size):
    with pytest.raises(ValueError, match="sample_size"):
        verify_witness(FG433, FH433, beta433, (4, 3, 3), sample_size=size)


def test_exhaustive_multiplicativity(FG433, FH433, beta433):
    cert = verify_witness(FG433, FH433, beta433, (4, 3, 3), exhaustive=True)
    assert cert.valid
    transport = {c.id: c.data for c in cert.clauses}["basis-transport"]
    assert transport["mode"] == "exhaustive"
    assert transport["pairs"] == 512 * 512
    assert transport["mismatches"] == 0


def test_negative_control_embedded_z(FG433, FH433, inst433):
    bad = FH433.embed(inst433.z)
    cert = verify_witness(FG433, FH433, bad, (4, 3, 3))
    assert not cert.valid
    assert cert.clauses.first_failing == "beta-square-central"
    status = {c.id: c.passed for c in cert.clauses}
    assert status == {"beta-order": True, "beta-square-central": False,
                      "closure-size": True, "spanning": True,
                      "independent-mod-a2": True, "basis-transport": False}
    ok, rec = algebra_unit_recognition(FH433, 512, FH433.embed(inst433.x),
                                       bad, 4, 3, 3)
    assert not ok and rec["first_failing"] == "b-square-central"


def test_power_closed_form(FG433, FH433, inst433, beta433):
    """beta^(2^j) = 1 + x^(2^j) (1 + z^(2^(j-1)) (1 + (st)^(2^j)) + d^(2^j))."""
    H = FH433.group
    amb = inst433.ambient
    st = amb.mul(inst433.named["s"], inst433.named["t"])
    d = inst433.named["d"]
    n, m, k = 4, 3, 3
    one = FH433.one()
    for j in range(1, m + 1):
        e = 2 ** j
        lhs = beta433 ** e
        inner = one + FH433.embed(H.ambient.power(st, e))
        zpart = FH433.embed(H.ambient.power(inst433.z, e // 2)) * inner
        bracket = one + zpart + FH433.embed(H.ambient.power(d, e))
        rhs = one + FH433.embed(H.ambient.power(inst433.x, e)) * bracket
        assert lhs == rhs, f"j={j}"
    assert beta433 ** (2 ** m) == one


def test_power_z_final_term_variant_boundary(FG433, FH433, inst433, beta433):
    """The variant with final term z^(2^j) holds exactly when j >= k or j = m."""
    H = FH433.group
    amb = inst433.ambient
    st = amb.mul(inst433.named["s"], inst433.named["t"])
    n, m, k = 4, 3, 3
    one = FH433.one()
    for j in range(1, m + 1):
        e = 2 ** j
        lhs = beta433 ** e
        inner = one + FH433.embed(H.ambient.power(st, e))
        zpart = FH433.embed(H.ambient.power(inst433.z, e // 2)) * inner
        bracket = one + zpart + FH433.embed(H.ambient.power(inst433.z, e))
        rhs = one + FH433.embed(H.ambient.power(inst433.x, e)) * bracket
        assert (lhs == rhs) == (j >= k or j == m), f"j={j}"


def test_commutator_closed_form(FG433, FH433, inst433, beta433):
    """[beta, x] = 1 + beta^(-1) (zx) ((ts)^2 + 1), a unit of order 2^(k-1)."""
    H = FH433.group
    amb = inst433.ambient
    ts2 = amb.power(amb.mul(inst433.named["t"], inst433.named["s"]), 2)
    x_emb = FH433.embed(inst433.x)
    comm = unit_inverse(beta433) * unit_inverse(x_emb) * beta433 * x_emb
    zx = FH433.embed(H.ambient.mul(inst433.z, inst433.x))
    rhs = FH433.one() + unit_inverse(beta433) * zx * \
        (FH433.embed(ts2) + FH433.one())
    assert comm == rhs
    assert unit_order(comm) == 4


def test_k3_witness(FG433, FH433, inst433):
    d_sq = inst433.ambient.power(inst433.named["d"], 2)
    beta = build_beta_k3(FH433, inst433.x, inst433.z, d_sq, 3)
    assert beta.support_size() == 3 and beta.augmentation() == 1
    cert = verify_witness(FG433, FH433, beta, (4, 3, 3))
    assert cert.valid
    assert cert.beta_order == 8
    with pytest.raises(ValueError):
        build_beta_k3(FH433, inst433.x, inst433.z, d_sq, 4)


def test_general_witness_and_preconditions(FG433, FH433, inst433):
    H = FH433.group
    c = inst433.named["c"]
    zeta = FH433.embed(H.ambient.power(c, 8))  # central of order 2 < 2^m
    beta = build_beta_general(FH433, zeta, inst433.x, inst433.z, 3)
    cert = verify_witness(FG433, FH433, beta, (4, 3, 3))
    assert cert.valid
    with pytest.raises(ValueError):  # zeta not central
        build_beta_general(FH433, FH433.embed(inst433.z), inst433.x,
                           inst433.z, 3)
    with pytest.raises(ValueError):  # zeta order too large
        build_beta_general(FH433, FH433.embed(c), inst433.x, inst433.z, 3)
    with pytest.raises(ValueError):  # x_t must move z
        build_beta_general(FH433, zeta, H.ambient.power(inst433.z, 2), inst433.z, 3)
    with pytest.raises(ValueError):  # non-unit zeta
        build_beta_general(FH433, FH433.zero(), inst433.x, inst433.z, 3)


def test_order_note_at_543():
    inst = build_family(2, "dihedral", 5, 4, 3)
    FH = GroupAlgebra(inst.H)
    beta = build_beta(FH, inst.x, inst.z)
    assert unit_order(beta) == 16  # 2^m with m = 4, not 2^k = 8
    FG = GroupAlgebra(inst.G)
    cert = verify_witness(FG, FH, beta, (5, 4, 3))
    assert cert.valid
    assert cert.beta_order == 16
    assert cert.order_note is not None and "2^k" in cert.order_note


def test_witness_builds_no_table(monkeypatch):
    """The standard pair at (5,4,3), the general beta with a class-sum
    zeta at (4,3,3), seed 7, and the standard pair at (4,3,3) on all
    pairs certify with no Cayley table."""
    monkeypatch.setattr(groups_mod, "TABLE_BUDGET_BYTES", 0)
    inst = build_family(2, "dihedral", 5, 4, 3)
    FG, FH = GroupAlgebra(inst.G), GroupAlgebra(inst.H)
    assert verify_witness(FG, FH, build_beta(FH, inst.x, inst.z),
                          (5, 4, 3)).valid
    inst = build_family(2, "dihedral", 4, 3, 3)
    FG, FH = GroupAlgebra(inst.G), GroupAlgebra(inst.H)
    zeta = _make_zeta(FH, inst, "class-sum", 7, 3)
    beta = build_beta_general(FH, zeta, inst.x, inst.z, 3)
    assert verify_witness(FG, FH, beta, (4, 3, 3), seed=7).valid
    assert verify_witness(FG, FH, build_beta(FH, inst.x, inst.z), (4, 3, 3),
                          exhaustive=True).valid


def test_class_sum_steps_at_654_run_on_the_transform_kernel(monkeypatch):
    """The class-sum witness at (6,5,4), seed 1: zeta, beta, its order 2^m
    and its central square, with the dense products on the kernel (each
    step took about 6 s on support pairs)."""
    calls, product = [], ntt_mod.product
    monkeypatch.setattr(ntt_mod, "product",
                        lambda *a: calls.append(1) or product(*a))
    inst = build_family(2, "dihedral", 6, 5, 4)
    FH = GroupAlgebra(inst.H)
    zeta = _make_zeta(FH, inst, "class-sum", 1, 5)
    assert calls  # unit_order(zeta) squares a dense zeta
    beta = build_beta_general(FH, zeta, inst.x, inst.z, 5)
    before = len(calls)
    assert unit_order(beta) == 2 ** 5 and len(calls) > before
    before = len(calls)
    square = beta * beta
    assert len(calls) == before + 1 and square.is_central()


def test_unit_budget_refuses_before_any_clause(FG433, FH433, beta433,
                                              monkeypatch):
    # (4,3,3) needs 3 * 512 * 64 bytes of packed units
    monkeypatch.setattr(witness_mod, "UNIT_BUDGET_BYTES", 3 * 512 * 64 - 1)
    with pytest.raises(GuardExceeded, match="unit budget of 98303"):
        verify_witness(FG433, FH433, beta433, (4, 3, 3))
    monkeypatch.setattr(witness_mod, "UNIT_BUDGET_BYTES", 3 * 512 * 64)
    assert verify_witness(FG433, FH433, beta433, (4, 3, 3)).valid


def test_unit_closure_of_group_basis(FH433, inst433):
    gens = [FH433.embed(inst433.x), FH433.embed(inst433.z)]
    sub = unit_closure(FH433, gens)
    assert sub.order == 512
    assert sub.elements[0] == FH433.one()


def test_unit_closure_guards(catalog, FH433, FG433):
    groups = dict(catalog)
    FV4 = GroupAlgebra(groups["V4"])
    gens = [FV4.embed(g) for g in groups["V4"].generators]
    # the unit group of F2[V4] has order 8 > dim * safety_factor for factor 1,
    # refused with the message of the one-product-at-a-time closure
    all_units = [FV4.from_indices(ix) for ix in _all_odd_supports(4)]
    with pytest.raises(RuntimeError) as got:
        unit_closure(FV4, all_units, safety_factor=1)
    with pytest.raises(RuntimeError) as want:
        scalar_unit_closure(FV4, all_units, safety_factor=1)
    assert str(got.value) == str(want.value) == "unit closure exceeded 4 elements"
    with pytest.raises(ValueError):  # non-unit generator
        unit_closure(FV4, [FV4.zero()])
    with pytest.raises(ValueError):  # generator from another algebra
        unit_closure(FG433, [FH433.one()])


def _all_odd_supports(dim):
    for mask in range(2 ** dim):
        if bin(mask).count("1") % 2 == 1:
            yield [i for i in range(dim) if mask >> i & 1]


def test_unit_group_of_c4_structure(catalog):
    groups = dict(catalog)
    C4 = groups["C4"]
    FC4 = GroupAlgebra(C4)
    c = C4.generators[0]
    u1 = FC4.embed(c)
    # c + c^2 + c^3 squares to 1 in characteristic 2 and lies outside <c>
    u2 = FC4.from_elements([c, C4.ambient.power(c, 2), C4.ambient.power(c, 3)])
    assert unit_order(u2) == 2
    sub = unit_closure(FC4, [u1, u2])
    assert sub.order == 8  # all augmentation-1 elements
    # abelian of exponent 4 with three involutions: C4 x C2
    table = matmul_unit_table(sub)
    assert table.shape == (8, 8) and np.array_equal(table, table.T)
    assert sorted(unit_order(u) for u in sub.elements) == [1, 2, 2, 2, 4, 4, 4, 4]


def test_unit_subgroup_isomorphism_oracle(FG433, FH433, beta433, inst433):
    """U = <x, beta> is isomorphic to G: the algebra-product transport of
    G's basis is injective and commutes with both generators, and the
    float32 unit table is G's table read through it."""
    ex = FH433.embed(inst433.x)
    sub = unit_closure(FH433, [ex, beta433])
    assert sub.order == 512
    images = product_transport_images(FG433, FH433, (ex, beta433))
    assert len({u.key for u in images}) == 512
    assert {u.key for u in images} == {u.key for u in sub.elements}
    assert product_generator_mismatches(FG433, images, (ex, beta433)) == 0
    index = {u.key: i for i, u in enumerate(sub.elements)}
    pi = np.array([index[u.key] for u in images])
    table = matmul_unit_table(sub)
    assert np.array_equal(table[pi[:, None], pi[None, :]],
                          pi[inst433.G.cayley_table()])
    assert not isomorphic_bruteforce(inst433.G, inst433.H)


def test_unit_group_products_match_algebra(FG433, FH433, beta433, inst433):
    """pi(g_i) read along g_j's word in the closure's columns is the
    algebra product pi(g_i) pi(g_j), on random pairs and from every unit
    along G's deepest word."""
    G = FG433.group
    sub = unit_closure(FH433, [FH433.embed(inst433.x), beta433])
    pi, _ = transport(G, sub)
    cols = np.array(sub.columns)
    rng = random.Random(5)
    pairs = [(rng.randrange(G.order), rng.randrange(G.order))
             for _ in range(200)]
    lefts, rights = np.array(pairs).T
    got = G.walk(cols, pi[lefts], rights)
    for (i, j), ij in zip(pairs, got):
        assert sub.elements[pi[i]] * sub.elements[pi[j]] == sub.elements[ij]
    deepest = int(G.bfs_order[-1])
    assert len(G.words[deepest]) == len(G.bfs_levels) - 2
    got = G.walk(cols, np.arange(sub.order), np.full(sub.order, deepest))
    for u, uj in zip(sub.elements, got):
        assert u * sub.elements[pi[deepest]] == sub.elements[uj]


def _witness_pairs(FH, inst, n, m, k):
    """The witness units of the recognition oracle test, by name."""
    H = FH.group
    pairs = {"standard": build_beta(FH, inst.x, inst.z),
             "x-z-squared": build_beta(FH, inst.x, H.ambient.power(inst.z, 2))}
    if (n, m, k) == (4, 3, 3):
        d_sq = H.ambient.power(inst.named["d"], 2)
        pairs["k3"] = build_beta_k3(FH, inst.x, inst.z, d_sq, k)
        zeta = _make_zeta(FH, inst, "class-sum", 7, m)
        pairs["general-class-sum"] = build_beta_general(FH, zeta, inst.x,
                                                        inst.z, m)
        pairs["embedded-z"] = FH.embed(inst.z)
    return pairs


@pytest.mark.parametrize("nmk", [(4, 3, 3), (5, 4, 3)], ids=["433", "543"])
def test_unit_recognition_matches_algebra_oracle(nmk):
    """The recognition clauses on algebra products accept exactly the
    valid witnesses, basis transport passes only where they do, and the
    certificate is valid exactly when its clauses and recognition all
    pass."""
    inst = build_family(2, "dihedral", *nmk)
    FG, FH = GroupAlgebra(inst.G), GroupAlgebra(inst.H)
    ex = FH.embed(inst.x)
    for name, beta in _witness_pairs(FH, inst, *nmk).items():
        cert = verify_witness(FG, FH, beta, nmk, sample_size=1)
        ok, _ = algebra_unit_recognition(FH, inst.G.order, ex, beta, *nmk)
        assert ok == (name in ("standard", "k3", "general-class-sum")), name
        transport = {c.id: c for c in cert.clauses}["basis-transport"]
        assert transport.passed <= ok, name
        assert cert.valid == (cert.clauses.ok and ok), name


def test_independence_mod_a2_matches_elimination(FG433, FH433, inst433):
    H = FH433.group
    d_sq = H.ambient.power(inst433.named["d"], 2)
    zeta = FH433.embed(H.ambient.power(inst433.named["c"], 8))
    betas = {
        "standard": build_beta(FH433, inst433.x, inst433.z),
        "k3": build_beta_k3(FH433, inst433.x, inst433.z, d_sq, 3),
        "general": build_beta_general(FH433, zeta, inst433.x, inst433.z, 3),
        "x": FH433.embed(inst433.x),  # the pair is dependent
        "d-squared": FH433.embed(d_sq),  # d^2 lies in Phi(H): beta+1 in A^2
    }
    one = FH433.one()
    for name, beta in betas.items():
        cert = verify_witness(FG433, FH433, beta, (4, 3, 3), sample_size=1)
        clause = {c.id: c for c in cert.clauses}["independent-mod-a2"]
        want = eliminated_a2_independence(FH433, FH433.embed(inst433.x) + one,
                                          beta + one)
        assert clause.passed == want.pop("passed"), name
        assert clause.data == want, name
        assert clause.passed == (name not in ("x", "d-squared")), name
        assert clause.data["beta_outside"] == (name != "d-squared"), name


# -- the vectorized closure and the generator-column certificate -------------


@lru_cache(maxsize=None)
def _witness_case(name):
    """(F2[G], F2[H], x, beta) of a named witness; quaternion is the
    standard witness on the quaternion ambient, all at (4,3,3) but
    standard-543."""
    nmk = (5, 4, 3) if name == "standard-543" else (4, 3, 3)
    variant = "quaternion" if name == "quaternion" else "dihedral"
    inst = build_family(2, variant, *nmk)
    FG, FH = GroupAlgebra(inst.G), GroupAlgebra(inst.H)
    if name == "k3":
        beta = build_beta_k3(FH, inst.x, inst.z,
                             FH.group.ambient.power(inst.named["d"], 2), 3)
    elif name == "general":
        zeta = _make_zeta(FH, inst, "class-sum", 7, nmk[1])
        beta = build_beta_general(FH, zeta, inst.x, inst.z, nmk[1])
    elif name == "embedded-z":
        beta = FH.embed(inst.z)
    else:
        beta = build_beta(FH, inst.x, inst.z)
    return FG, FH, FH.embed(inst.x), beta


def _c4_units():
    C4 = dict(small_group_catalog())["C4"]
    FC4 = GroupAlgebra(C4)
    c = C4.generators[0]
    return FC4, (FC4.embed(c),
                 FC4.from_elements([c, C4.ambient.power(c, 2), C4.ambient.power(c, 3)]))


@pytest.mark.parametrize("name", ["standard", "standard-543", "k3", "general",
                                  "quaternion", "c4-units"])
def test_unit_closure_matches_scalar_oracle(name):
    """Discovery order and columns equal the one-product-at-a-time
    closure's, field by field, and the tree read off the columns is its
    discovery tree."""
    if name == "c4-units":
        algebra, gens = _c4_units()
    else:
        _, algebra, ex, beta = _witness_case(name)
        gens = (ex, beta)
    got = unit_closure(algebra, gens)
    want, tree = scalar_unit_closure(algebra, gens)
    for field in ("elements", "columns"):
        assert getattr(got, field) == getattr(want, field), field
    assert unit_tree(got) == tree


def test_unit_closure_gathers_each_column_once_per_block(monkeypatch):
    """For x and beta = 1 + x + xz each block gathers two columns, those of
    x^-1 and (xz)^-1: the identity's column is the block itself, and x^-1's
    serves both generators.  At (4,3,3) every level is one block."""
    _, algebra, ex, beta = _witness_case("standard")
    takes = []
    take = np.take

    def counting(a, indices, *args, **kwargs):
        takes.append(indices)
        return take(a, indices, *args, **kwargs)
    monkeypatch.setattr(witness_mod.np, "take", counting)
    got = unit_closure(algebra, (ex, beta))
    monkeypatch.undo()
    depth, parent = [0] * got.order, unit_tree(got)[0]
    for i in range(1, got.order):
        depth[i] = depth[parent[i]] + 1
    assert len(takes) == 2 * (max(depth) + 1)
    assert got.elements == scalar_unit_closure(algebra, (ex, beta))[0].elements


def _bit_plane_cases():
    """(label, algebra, generators): the unit groups of F2[C2] (dim 2) and
    F2[C4] (dim 4), whose coefficients fill part of one byte, and <x, beta>
    at (4,3,3) and (5,4,3) for the standard, k3 and class-sum betas."""
    C2 = dict(small_group_catalog())["C2"]
    FC2 = GroupAlgebra(C2)
    cases = [("c2-units", FC2, (FC2.embed(C2.generators[0]),)),
             ("c4-units", *_c4_units())]
    for nmk in [(4, 3, 3), (5, 4, 3)]:
        inst = build_family(2, "dihedral", *nmk)
        FH = GroupAlgebra(inst.H)
        zeta = _make_zeta(FH, inst, "class-sum", 7, nmk[1])
        betas = {"standard": build_beta(FH, inst.x, inst.z),
                 "k3": build_beta_k3(FH, inst.x, inst.z,
                                     FH.group.ambient.power(inst.named["d"], 2), 3),
                 "class-sum": build_beta_general(FH, zeta, inst.x, inst.z,
                                                 nmk[1])}
        cases += [(f"{name}-{''.join(map(str, nmk))}", FH,
                   (FH.embed(inst.x), beta)) for name, beta in betas.items()]
    return cases


def test_unit_closure_matches_packbits_oracle():
    """The bit-plane closure gives the keys, generators and columns (which
    fix the tree) of the closure that packs along the coefficient axis,
    including where dim is not a multiple of 8."""
    sizes = []
    for label, algebra, gens in _bit_plane_cases():
        got = unit_closure(algebra, gens)
        want = packbits_unit_closure(algebra, gens)
        assert [u.key for u in got.elements] == [u.key for u in want.elements], label
        for field in ("generators", "columns"):
            assert getattr(got, field) == getattr(want, field), (label, field)
        sizes.append((algebra.dim, got.order))
    assert sizes == [(2, 2), (4, 8)] + [(512, 512)] * 3 + [(2048, 2048)] * 3


@pytest.mark.parametrize("name", ["standard", "k3", "general", "quaternion"])
def test_transport_and_pairs_match_product_oracles(name):
    """The basis images are the product transport's, the exhaustive count
    is the float32 all-pairs count, and a seeded sample counts what
    algebra products count on the same draws."""
    FG, FH, ex, beta = _witness_case(name)
    images = product_transport_images(FG, FH, (ex, beta))
    cert = verify_witness(FG, FH, beta, (4, 3, 3), exhaustive=True)
    assert cert.valid
    assert cert.matrix_keys == tuple(u.key for u in images)
    assert cert.sample["pairs"] == 512 * 512
    assert cert.sample["mismatches"] == float32_pair_mismatches(FG, FH, images) == 0
    sub = unit_closure(FH, (ex, beta))
    assert transport(FG.group, sub)[1] == \
        product_generator_mismatches(FG, images, (ex, beta)) == 0
    sampled = verify_witness(FG, FH, beta, (4, 3, 3), seed=3, sample_size=64)
    assert sampled.sample["mismatches"] == \
        sampled_product_mismatches(FG, images, 3, 64) == 0


def test_generator_columns_reject_embedded_z():
    """With beta = z the transport is no homomorphism: the generator-column
    check counts what algebra products count, and the sampled count agrees
    with products on the same draws."""
    FG, FH, ex, bad = _witness_case("embedded-z")
    images = product_transport_images(FG, FH, (ex, bad))
    sub = unit_closure(FH, (ex, bad))
    pi, mismatches = transport(FG.group, sub)
    assert [sub.elements[i] for i in pi] == images
    assert mismatches == product_generator_mismatches(FG, images, (ex, bad)) > 0
    cert = verify_witness(FG, FH, bad, (4, 3, 3))
    assert cert.sample["mismatches"] == sampled_product_mismatches(FG, images, 0, 1024)
    assert cert.matrix_keys == tuple(u.key for u in images)


def test_generator_check_alone_fails_the_certificate(monkeypatch):
    """Swap two entries of beta's column that neither G's tree nor U's tree
    reads: pi, the images and their rank stay, a one-pair sample misses it,
    and only the generator-column check catches it."""
    FG, FH, ex, beta = _witness_case("standard")
    G = FG.group
    sub = unit_closure(FH, (ex, beta))
    pi, _ = transport(G, sub)
    read = {int(pi[G.bfs_parent[i]]) for i in G.bfs_order[1:] if G.bfs_gen[i] == 1}
    parent, via = unit_tree(sub)
    read |= {parent[i] for i in range(1, sub.order) if via[i] == 1}
    p, q = [i for i in range(sub.order) if i not in read][:2]
    col = list(sub.columns[1])
    col[p], col[q] = col[q], col[p]
    broken = dataclasses.replace(sub, columns=(sub.columns[0], tuple(col)))
    broken_pi, mismatches = transport(G, broken)
    assert np.array_equal(broken_pi, pi) and mismatches == 2
    monkeypatch.setattr(witness_mod, "unit_closure", lambda *args, **kw: broken)
    cert = verify_witness(FG, FH, beta, (4, 3, 3), sample_size=1)
    clause = {c.id: c for c in cert.clauses}["basis-transport"]
    assert clause.data == {"rank": 512, "pairs": 1, "mismatches": 0,
                           "mode": "sampled"}
    assert not clause.passed and not cert.valid
    # all pairs read the swapped entries: the certificate counts what
    # walking each word of G, one generator at a time, counts
    cert = verify_witness(FG, FH, beta, (4, 3, 3), exhaustive=True)
    assert cert.sample["mismatches"] == \
        word_pair_mismatches(G, broken.columns, pi) > 0


def test_closure_unavailable_skips_transport(FG433, FH433, beta433, monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("unit closure exceeded 2048 elements")

    monkeypatch.setattr(witness_mod, "unit_closure", refuse)
    cert = verify_witness(FG433, FH433, beta433, (4, 3, 3))
    clauses = {c.id: c for c in cert.clauses}
    assert clauses["closure-size"].data == {
        "error": "unit closure exceeded 2048 elements"}
    for cid in ("closure-size", "spanning", "basis-transport"):
        assert not clauses[cid].passed, cid
    for cid in ("spanning", "basis-transport"):
        assert clauses[cid].data == {"skipped": "closure unavailable"}, cid
    assert cert.rank == 0 and cert.matrix_keys == () and not cert.valid
    assert cert.sample == {"mode": "sampled", "pairs": 0, "mismatches": 0,
                           "seed": 0}


def test_exhaustive_count_matches_walked_oracle_on_embedded_z():
    """beta = z: no homomorphism, and the certificate counts the
    mismatching pairs that float32 algebra products count, and that
    walking each word of G one generator at a time counts."""
    FG, FH, ex, bad = _witness_case("embedded-z")
    cert = verify_witness(FG, FH, bad, (4, 3, 3), exhaustive=True)
    assert cert.sample["pairs"] == 512 * 512
    images = product_transport_images(FG, FH, (ex, bad))
    sub = unit_closure(FH, (ex, bad))
    assert cert.sample["mismatches"] == \
        float32_pair_mismatches(FG, FH, images) == \
        word_pair_mismatches(FG.group, sub.columns,
                             transport(FG.group, sub)[0]) > 0


def test_witness_closes_no_group(monkeypatch):
    """Once the family and H's Frattini subgroup (which clause (f) reads
    and H caches) are built, a certificate at (4,3,3), sampled and
    exhaustive, runs no breadth-first closure: the unit group is never
    built as a group."""
    inst = build_family(2, "dihedral", 4, 3, 3)
    FG, FH = GroupAlgebra(inst.G), GroupAlgebra(inst.H)
    beta = build_beta(FH, inst.x, inst.z)
    frattini(inst.H)

    def refuse(*args, **kwargs):
        raise AssertionError("group closure during certification")

    monkeypatch.setattr(groups_mod, "_bfs", refuse)
    assert verify_witness(FG, FH, beta, (4, 3, 3)).valid
    assert verify_witness(FG, FH, beta, (4, 3, 3), exhaustive=True).valid


# -- clause (e): the unit-sum lemma -------------------------------------------


def test_unit_sum_lemma_matches_elimination_on_random_subgroups(FH433):
    """Closures of one or two random units, most supported on a random
    subgroup <h1, h2> of H: the lemma's verdict and rank are the
    eliminated rank's, on independent and dependent closures alike."""
    H = FH433.group
    rng = random.Random(2)
    verdicts = []
    while len(verdicts) < 48:
        K = closure(H.ambient, [H.element(rng.randrange(H.order))
                                for _ in range(rng.choice([1, 2]))])
        pool = ([H.index(g) for g in K.elements] if rng.random() < 0.75
                else range(H.order))
        gens = []
        for _ in range(rng.choice([1, 2])):
            # an odd support (|pool| is a power of 2) has augmentation 1
            size = min(rng.choice([1, 3, 5]), max(1, len(pool) - 1))
            gens.append(FH433.from_indices(rng.sample(pool, size)))
        try:
            sub = unit_closure(FH433, gens, safety_factor=1)
        except RuntimeError:
            continue
        rank, independent = spanning_rank(sub)
        want = eliminated_spanning_rank(sub.elements)
        assert (rank, independent) == (want, want == sub.order), gens
        verdicts.append(independent)
    assert 8 <= verdicts.count(False) <= 40


def test_spanning_and_rank_match_elimination_on_failing_witnesses(FG433, FH433,
                                                                  inst433):
    """Witnesses that fail, with the closure of <x, beta> independent or
    dependent, and G's basis mapped onto it or into it: clause (e)'s rank
    and the images' rank are the eliminated ranks.  1 + x(1 + z^2) gives
    128 independent units, which G's basis covers 4 to 1."""
    H = FH433.group
    c4 = H.ambient.power(inst433.named["c"], 4)
    betas = {  # name: (beta, |U|, U independent, pi onto U)
        "x-z-squared": (build_beta(FH433, inst433.x, H.ambient.power(inst433.z, 2)),
                        128, True, True),
        "embedded-z": (FH433.embed(inst433.z), 512, True, False),
        "x-c4": (build_beta(FH433, inst433.x, c4), 64, False, True),
        # 1 + a(1 + w) with a = t r c^11 d^5 and w = t r^7 c^5 d
        "dependent-into": (build_beta(FH433, (1, 1, 11, 5), (1, 7, 5, 1)),
                           1024, False, False),
    }
    for name, (beta, order, independent, onto) in betas.items():
        sub = unit_closure(FH433, (FH433.embed(inst433.x), beta))
        rank = eliminated_spanning_rank(sub.elements)
        assert (sub.order, spanning_rank(sub)) == (order, (rank, independent)), name
        pi = transport(FG433.group, sub)[0]
        assert (np.unique(pi).size == order) == onto, name
        cert = verify_witness(FG433, FH433, beta, (4, 3, 3))
        data = {c.id: c.data for c in cert.clauses}
        assert data["spanning"] == {"rank": rank, "dim": 512}, name
        images = [sub.elements[i] for i in pi]
        assert cert.rank == data["basis-transport"]["rank"] == \
            eliminated_spanning_rank(images) < 512, name
        assert not cert.valid, name
