"""Group-algebra arithmetic against naive oracles, plus the GF(p) matrix kit."""

import random
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

import mipverify.algebra as algebra_mod
import mipverify.groups as groups_mod
import mipverify.ntt as ntt_mod

from mipverify.algebra import (AlgebraElement, FpMatrix, GroupAlgebra,
                               is_unit, pack_bits, unit_order, unpack_bits)
from mipverify.ambient import make_ambient
from mipverify.family import build_family
from mipverify.groups import conjugacy_classes, jennings_factor_orders

from conftest import (aug_quotient_dims, classes_from_labels,
                      jennings_dimension_polynomial, naive_product,
                      naive_power, pairwise_class_sum_count,
                      ref_mul, ref_order, regular_rep_is_unit, table_product,
                      unit_inverse)


def _random_element(alg, rng, density=0.5):
    return alg.from_indices([i for i in range(alg.dim) if rng.random() < density])


def _algebras(catalog, names):
    groups = dict(catalog)
    return [GroupAlgebra(groups[name]) for name in names]


def test_ring_axioms_sampled(catalog):
    rng = random.Random(1)
    for alg in _algebras(catalog, ["D8", "Q16", "heis27"]):
        one, zero = alg.one(), alg.zero()
        for _ in range(30):
            u, v, w = (_random_element(alg, rng) for _ in range(3))
            assert (u * v) * w == u * (v * w)
            assert u * (v + w) == u * v + u * w
            assert (v + w) * u == v * u + w * u
            assert u * one == u and one * u == u
            assert u * zero == zero
            assert u + v == v + u
            assert (u + v).augmentation() == \
                (u.augmentation() + v.augmentation()) % alg.p
            assert (u * v).augmentation() == \
                (u.augmentation() * v.augmentation()) % alg.p


def test_product_matches_naive_oracle(catalog):
    rng = random.Random(2)
    for alg in _algebras(catalog, ["D16", "heis27"]):
        for _ in range(8):
            u, v = _random_element(alg, rng), _random_element(alg, rng)
            assert u * v == naive_product(u, v)


def test_embed_is_multiplicative(catalog):
    rng = random.Random(3)
    for name in ("SD16", "heis27"):
        grp = dict(catalog)[name]
        alg = GroupAlgebra(grp)
        for _ in range(40):
            g = grp.elements[rng.randrange(grp.order)]
            h = grp.elements[rng.randrange(grp.order)]
            assert alg.embed(g) * alg.embed(h) == alg.embed(ref_mul(grp.ambient, g, h))
            assert unit_order(alg.embed(g)) == ref_order(grp.ambient, g)


def test_powers_match_naive(catalog):
    rng = random.Random(4)
    alg = _algebras(catalog, ["Q8"])[0]
    for _ in range(10):
        u = _random_element(alg, rng)
        for e in (0, 1, 2, 3, 5):
            assert u ** e == naive_power(u, e)


@pytest.mark.parametrize("name", ["D8", "heis27"])
def test_power_product_count(catalog, monkeypatch, name):
    """u ** e takes bit_length(e) - 1 squarings and popcount(e) - 1 more
    products: no squaring after the highest bit, no product by one."""
    alg = _algebras(catalog, [name])[0]
    u = _random_element(alg, random.Random(9))
    calls = []
    mul = AlgebraElement.__mul__
    monkeypatch.setattr(AlgebraElement, "__mul__",
                        lambda a, b: calls.append(1) or mul(a, b))
    for e in range(10):
        calls.clear()
        assert u ** e == naive_power(u, e), e
        expected = e.bit_length() + bin(e).count("1") - 2 if e else 0
        assert len(calls) == expected, e


def _random_operand(alg, rng, density):
    """Random element of the given support density, with random nonzero
    coefficients at odd p."""
    vec = np.array([rng.randrange(1, alg.p) if rng.random() < density else 0
                    for _ in range(alg.dim)])
    return alg.from_vec(vec)


# a tiny block splits every product over many blocks, mid-row too
@pytest.mark.parametrize("block_pairs", [None, 100], ids=["default", "tiny"])
@pytest.mark.parametrize("name", ["dihedral-G-433", "dihedral-H-433",
                                  "heisenberg-G-211", "c9c9-G-211"])
def test_product_matches_table_product(layer_groups, monkeypatch, name,
                                       block_pairs):
    grp = dict(layer_groups)[name]
    alg = GroupAlgebra(grp)
    if block_pairs is not None:
        monkeypatch.setattr(algebra_mod, "_PRODUCT_BLOCK_BYTES",
                            24 * grp.ambient.width * block_pairs)
    rng = random.Random(10)
    sparse, dense = 0.02, 0.6
    for _ in range(3):
        g = alg.embed(grp.elements[rng.randrange(grp.order)])
        pairs = [(_random_operand(alg, rng, sparse), _random_operand(alg, rng, sparse)),
                 (_random_operand(alg, rng, sparse), _random_operand(alg, rng, dense)),
                 (_random_operand(alg, rng, dense), _random_operand(alg, rng, sparse)),
                 (_random_operand(alg, rng, dense), _random_operand(alg, rng, dense)),
                 (g, _random_operand(alg, rng, dense)),
                 (_random_operand(alg, rng, dense), g),
                 (alg.zero(), _random_operand(alg, rng, dense))]
        for u, v in pairs:
            assert u * v == table_product(u, v)


def test_product_builds_no_table(catalog, monkeypatch):
    monkeypatch.setattr(groups_mod, "TABLE_BUDGET_BYTES", 0)
    rng = random.Random(11)
    for alg in _algebras(catalog, ["Q16", "heis27"]):
        u, v = _random_element(alg, rng), _random_element(alg, rng)
        assert u * v == naive_product(u, v)
        assert aug_quotient_dims(alg.group) == jennings_dimension_polynomial(
            jennings_factor_orders(alg.group), alg.p)


@lru_cache(maxsize=None)
def _family_group(variant, n, m, k, side):
    inst = build_family(2, variant, n, m, k)
    return inst.G if side == "G" else inst.H


def _count_kernel_calls(monkeypatch):
    """Wrap ``ntt.product`` so the returned list grows by its result, None
    when the kernel declined, at each call."""
    calls, product = [], ntt_mod.product
    monkeypatch.setattr(ntt_mod, "product",
                        lambda *a: calls.append(product(*a)) or calls[-1])
    return calls


def _product_by(monkeypatch, pairs_per_plogp, u, v):
    monkeypatch.setattr(algebra_mod, "_NTT_PAIRS_PER_PLOGP", pairs_per_plogp)
    return u * v


KERNEL_CASES = ([(variant, nmk, side, (0.01, 0.5))
                 for variant in ("dihedral", "semidihedral", "quaternion")
                 for nmk in ((4, 3, 3), (5, 4, 3)) for side in "GH"] +
                [("dihedral", (6, 5, 4), side, (0.01,)) for side in "GH"])


@pytest.mark.parametrize(
    "variant,nmk,side,densities", KERNEL_CASES,
    ids=[f"{v}-{side}-{''.join(map(str, nmk))}" for v, nmk, side, _ in KERNEL_CASES])
def test_kernel_products_match_support_pairs(monkeypatch, variant, nmk, side,
                                             densities):
    """Every product drawn, sparse and dense (supports of density 0.01 and
    0.5), is byte-identical on the transform kernel (forced by a cost of
    0) and on support pairs (forced by an infinite cost)."""
    grp = _family_group(variant, *nmk, side)
    alg = GroupAlgebra(grp)
    rng = np.random.default_rng(12)
    calls = _count_kernel_calls(monkeypatch)
    for du in densities:
        for dv in densities:
            for _ in range(2):
                u, v = (alg.from_indices(np.flatnonzero(rng.random(alg.dim) < d))
                        for d in (du, dv))
                by_pairs = _product_by(monkeypatch, float("inf"), u, v)
                assert calls == []
                by_kernel = _product_by(monkeypatch, 0, u, v)
                assert len(calls) == 1 and calls.pop() is not None
                assert by_kernel.key == by_pairs.key, (du, dv)


def test_cost_rule_picks_each_path(layer_groups, monkeypatch):
    """With the measured cost, a dense product in F_2[H] at (4,3,3) runs on
    the kernel; a product by one group element, a sparse product and a
    product at p = 3 stay on support pairs."""
    groups = dict(layer_groups)
    calls = _count_kernel_calls(monkeypatch)
    alg = GroupAlgebra(groups["dihedral-H-433"])
    rng = np.random.default_rng(13)
    dense, sparse = (alg.from_indices(np.flatnonzero(rng.random(alg.dim) < d))
                     for d in (0.5, 0.05))
    assert dense * dense == table_product(dense, dense)
    assert len(calls) == 1 and calls.pop() is not None
    g = alg.embed(alg.group.elements[7])
    for u, v in ((g, dense), (dense, g), (sparse, sparse)):
        assert u * v == table_product(u, v)
    odd = GroupAlgebra(groups["heisenberg-G-211"])
    w = odd.from_vec(np.random.default_rng(14).integers(0, 3, odd.dim))
    assert w * w == table_product(w, w)
    assert calls == []


def test_kernel_outside_exactness_takes_support_pairs(layer_groups,
                                                      monkeypatch):
    """A group of order Q or more, or an axis longer than the 2^23 roots of
    unity mod Q, gives no kernel product, and ``__mul__`` then takes
    support pairs, with the same result."""
    alg = GroupAlgebra(dict(layer_groups)["quaternion-H-433"])
    wide = make_ambient(2, "dihedral", 3, 24, 3, guard=2 ** 40)
    for amb, order in ((wide, 2 ** 20), (alg.group.ambient, ntt_mod.Q)):
        stand_in = SimpleNamespace(ambient=amb, order=order, keys=None)
        assert ntt_mod.product(stand_in, None, None) is None
    u = alg.from_indices(range(0, alg.dim, 2))
    v = alg.from_indices(range(1, alg.dim, 3))
    monkeypatch.setattr(ntt_mod, "ROOT_ORDER", 4)  # below the axis of r, 8
    calls = _count_kernel_calls(monkeypatch)
    assert u * v == table_product(u, v)
    assert calls == [None]


def test_from_indices_accepts_numpy_integers(layer_groups):
    """Numpy integer indices give the same element as Python ints, at p = 2
    (where a shifted np.int64 would overflow) and at p = 3."""
    groups = dict(layer_groups)
    for name, idx in (("dihedral-H-433", [70, 3, 70, 500]),
                      ("heisenberg-G-211", [70, 3, 70, 20])):
        alg = GroupAlgebra(groups[name])
        expected = alg.from_indices(idx)
        for dtype in (np.int64, np.int32):
            assert alg.from_indices(np.array(idx, dtype=dtype)) == expected
        assert expected.support_size() == (2 if alg.p == 2 else 3)


def test_unit_criterion_vs_regular_representation(catalog):
    rng = random.Random(5)
    for alg in _algebras(catalog, ["D8", "Q8", "C9", "heis27"]):
        for _ in range(12):
            u = _random_element(alg, rng, density=rng.choice([0.2, 0.5, 0.9]))
            assert is_unit(u) == regular_rep_is_unit(u)
        assert is_unit(alg.one()) and not is_unit(alg.zero())


def test_unit_inverse_and_order(catalog):
    rng = random.Random(6)
    for alg in _algebras(catalog, ["D16", "heis27"]):
        one = alg.one()
        for _ in range(10):
            u = _random_element(alg, rng)
            if not is_unit(u):
                u = u + one
            if not is_unit(u):
                continue
            inv = unit_inverse(u)
            assert u * inv == one and inv * u == one
            o = unit_order(u)
            assert u ** o == one
            if o > 1:
                assert u ** (o // alg.p) != one  # o is the minimal p-power


def test_unit_order_is_minimal(catalog):
    alg = _algebras(catalog, ["C8"])[0]
    u = alg.embed(alg.group.generators[0])
    o = unit_order(u)
    assert o == 8
    for e in (1, 2, 4):
        assert u ** e != alg.one()


def test_class_sums_are_central_and_partition(catalog):
    for alg in _algebras(catalog, ["Q16", "heis27"]):
        sums = alg.class_sums()
        classes = classes_from_labels(conjugacy_classes(alg.group))
        assert len(sums) == len(classes)
        assert sums == [alg.from_indices(cls) for cls in classes]
        total = alg.zero()
        for s in sums:
            assert s.is_central()
            total = total + s
        assert total == alg.from_indices(range(alg.dim))


def test_class_sum_pth_power_count_vs_pairwise_oracle(layer_groups):
    for name, grp in layer_groups:
        alg = GroupAlgebra(grp)
        assert alg.class_sum_pth_power_count() == \
            pairwise_class_sum_count(alg), name


def test_class_sum_count_in_tiny_blocks(layer_groups, monkeypatch):
    """Five pairs per block: terms of one class power span blocks."""
    for name, grp in layer_groups:
        monkeypatch.setattr(algebra_mod, "_PRODUCT_BLOCK_BYTES",
                            24 * grp.ambient.width * 5)
        alg = GroupAlgebra(grp)
        assert alg.class_sum_pth_power_count() == \
            pairwise_class_sum_count(alg), name


def test_class_sum_matches_need_whole_classes(catalog):
    """Terms match class C_j only with coefficient 1 on all of C_j."""
    grp = dict(catalog)["heis27"]
    classes = classes_from_labels(conjugacy_classes(grp))
    sizes = np.array([len(c) for c in classes])
    class_of = np.empty(grp.order, dtype=np.int64)
    for j, cls in enumerate(classes):
        class_of[list(cls)] = j
    j = int(np.flatnonzero(sizes == 3)[0])
    other = int(np.flatnonzero(sizes == 3)[1])
    whole = np.array(classes[j])
    cases = [  # owner: (elements, coefficients)
        (whole, [1, 1, 1]),                                # C_j
        (whole[:2], [1, 1]),                               # part of C_j
        (whole, [1, 2, 1]),                                # a coefficient 2
        (np.r_[whole, classes[other][0]], [1, 1, 1, 1]),   # C_j and more
        (np.array(classes[0]), [1])]                       # the identity
    owners = np.concatenate([[o] * len(c[1]) for o, c in enumerate(cases)])
    elems = np.concatenate([c[0] for c in cases])
    coeffs = np.concatenate([c[1] for c in cases])
    got = algebra_mod._class_sum_matches(owners, elems, coeffs, len(cases) + 1,
                                         class_of, sizes)
    assert got.tolist() == [j, -1, -1, -1, 0, -1]


def test_aug_ideal_filtration_c4(catalog):
    alg = GroupAlgebra(dict(catalog)["C4"])
    assert aug_quotient_dims(alg.group) == [1, 1, 1, 1]
    assert alg.aug_ideal_power_basis(1).rank() == 3
    assert alg.aug_ideal_power_basis(2).rank() == 2
    assert alg.aug_ideal_power_basis(3).rank() == 1
    assert alg.aug_ideal_power_basis(4).rank() == 0


def test_jennings_formula_small_groups(catalog):
    """Jennings' formula against the filtration quotients, and the
    program's basis of each A^q against the quotients' tail sums."""
    for name in ("C4", "C8", "V4", "D8", "Q8", "D16", "C9", "heis27"):
        grp = dict(catalog)[name]
        alg = GroupAlgebra(grp)
        dims = aug_quotient_dims(grp)
        poly = jennings_dimension_polynomial(jennings_factor_orders(grp), grp.p)
        assert dims == poly, name
        assert [alg.aug_ideal_power_basis(q).rank() for q in range(1, len(dims) + 1)] \
            == [sum(dims[q:]) for q in range(1, len(dims) + 1)], name


def test_aug_ideal_power_basis_on_an_element_set_group(catalog, monkeypatch):
    """A maximal subgroup of D16 is wrapped from its element set, so every
    element is a generator; each power of the augmentation ideal is reached
    by translating through its small generators alone, with the ranks of
    the filtration quotients' tail sums."""
    sub = groups_mod.maximal_subgroups(dict(catalog)["D16"])[0]
    assert len(sub.generators) == sub.order == 8
    small = [g for g in sub.small_generators() if g != sub.identity]
    assert len(small) < sub.order - 1
    dims = aug_quotient_dims(sub)
    added = []
    add_row = FpMatrix.add_row

    def counting(self, row):
        added.append(1)
        return add_row(self, row)
    monkeypatch.setattr(FpMatrix, "add_row", counting)
    alg = GroupAlgebra(sub)
    ranks = []
    for q in range(1, len(dims) + 1):
        before = len(added)
        ranks.append(alg.aug_ideal_power_basis(q).rank())
        # A^1 from the dim - 1 rows g - 1, A^q from (s - 1) v over the
        # small generators s and the basis rows v of A^(q-1)
        assert len(added) - before == (sub.order - 1 if q == 1 else
                                       len(small) * ranks[-2])
    assert ranks == [sum(dims[q:]) for q in range(1, len(dims) + 1)]


def test_jennings_polynomial_values():
    assert jennings_dimension_polynomial([2, 2], 2) == [1, 1, 1, 1]
    assert jennings_dimension_polynomial([4, 2], 2) == [1, 2, 2, 2, 1]
    assert jennings_dimension_polynomial([3], 3) == [1, 1, 1]
    assert sum(jennings_dimension_polynomial([9, 3], 3)) == 27


def test_central_elements(catalog):
    groups = dict(catalog)
    alg = GroupAlgebra(groups["D8"])
    D8 = groups["D8"]
    zname = [g for g in D8.elements if D8.central_mask()[D8.index(g)]]
    assert len(zname) == 2
    for g in zname:
        assert alg.embed(g).is_central()
    t = groups["D8"].generators[0]
    assert not alg.embed(t).is_central()


def test_cross_algebra_operations_rejected(catalog):
    groups = dict(catalog)
    a1, a2 = GroupAlgebra(groups["C4"]), GroupAlgebra(groups["V4"])
    with pytest.raises(ValueError):
        a1.one() + a2.one()
    with pytest.raises(ValueError):
        a1.one() * a2.one()


def test_fp_matrix_gf2():
    mx = FpMatrix(2, 4)
    assert mx.add_row([1, 0, 1, 0])
    assert mx.add_row([0, 1, 1, 0])
    assert not mx.add_row([1, 1, 0, 0])  # dependent
    assert mx.rank() == 2
    assert mx.contains([1, 1, 0, 0])
    assert not mx.contains([0, 0, 0, 1])
    combo = mx.membership([1, 1, 0, 0])
    assert combo is not None
    acc = [0, 0, 0, 0]
    basis = [[1, 0, 1, 0], [0, 1, 1, 0]]
    for idx, coef in combo:
        acc = [(a + coef * b) % 2 for a, b in zip(acc, basis[idx])]
    assert acc == [1, 1, 0, 0]


def test_fp_matrix_gf3():
    mx = FpMatrix(3, 3)
    assert mx.add_row([1, 2, 0])
    assert mx.add_row([0, 1, 1])
    assert not mx.add_row([1, 0, 1])  # = (1,2,0) + (0,1,1) mod 3
    assert mx.rank() == 2
    assert mx.add_row([0, 0, 1])
    assert mx.rank() == 3
    assert mx.contains([2, 2, 2])


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(8)
    for _ in range(20):
        vec = rng.integers(0, 2, size=37).astype(np.uint8)
        assert np.array_equal(unpack_bits(pack_bits(vec), 37), vec)
