"""Subgroup machinery: closure, series, classes, maximal subgroups."""

import dataclasses
import random

import pytest

import numpy as np

from mipverify import family as family_mod
from mipverify import groups as groups_mod
from mipverify.ambient import AmbientDescriptor, GuardExceeded, make_ambient
from mipverify.family import build_family
from mipverify.groups import (abelian_maximal_subgroups, centralizer_index,
                              centralizer_mod, closure,
                              commutator_subgroup, conjugacy_classes,
                              derived_subgroup, frattini,
                              frattini_coordinates,
                              generated_subgroup,
                              jennings_factor_orders, jennings_series,
                              lower_central_series, maximal_subgroups,
                              nilpotency_class, normal_closure,
                              power_subgroup, subgroup_from_elements)
from mipverify.isomorphism import isomorphic_bruteforce

from conftest import (GENERATED_IN_CATALOG, assert_generated_matches_reclosing,
                      assert_same_group, assert_valid_tree, center,
                      classes_from_labels,
                      coordinate_box, coset_scan_maximal_subgroups, dict_closure,
                      greedy_generators, intersection, naive_closure,
                      orbit_centralizer_index, pairwise_closed, power_frattini,
                      ref_comm, ref_inv, ref_word,
                      row_cayley_table, scalar_centralizer_mod,
                      set_jennings_series, set_normal_closure,
                      table_conjugacy_classes, table_element_orders,
                      tuple_from_bfs, tuple_subgroup_from_elements,
                      unmemoized_jennings_series)
from mipverify.family import verify_structure
from mipverify.tables import semidirect_c9c9_table, wreath_cyclic_table


def _catalog_map(catalog):
    return dict(catalog)


def test_closure_matches_naive_oracle(catalog):
    groups = _catalog_map(catalog)
    rng = random.Random(424242)
    for name in ("D16", "Q16", "heis27"):
        grp = groups[name]
        amb = grp.ambient
        for _ in range(6):
            gens = [grp.elements[rng.randrange(grp.order)] for _ in range(2)]
            fast = closure(amb, gens)
            assert fast.element_set() == naive_closure(amb, gens), name


def test_closure_canonical_order_deterministic(catalog):
    grp = _catalog_map(catalog)["D16"]
    again = closure(grp.ambient, list(grp.generators))
    assert again.elements == grp.elements


def test_small_generators_regenerate(catalog):
    for name, grp in catalog:
        small = grp.small_generators()
        assert len(small) <= max(len(grp.generators), 3)
        assert closure(grp.ambient, small).element_set() == grp.element_set()


def test_small_generators_shrinks_full_element_list(catalog):
    grp = _catalog_map(catalog)["D16"]
    fat = subgroup_from_elements(grp.ambient, grp.elements)
    assert len(fat.generators) == grp.order
    small = fat.small_generators()
    assert len(small) <= 4
    assert closure(grp.ambient, small).element_set() == grp.element_set()


def test_derived_center_frattini_dihedral8(catalog):
    D8 = _catalog_map(catalog)["D8"]
    der = derived_subgroup(D8)
    assert der.order == 2
    assert center(D8).element_set() == der.element_set()
    assert frattini(D8).element_set() == der.element_set()


def test_derived_center_frattini_quaternion8(catalog):
    Q8 = _catalog_map(catalog)["Q8"]
    assert derived_subgroup(Q8).order == 2
    assert center(Q8).order == 2
    assert frattini(Q8).order == 2
    # Q8 has a unique minimal subgroup: every order-2 subgroup is the center
    assert sum(1 for o in Q8.element_orders() if o == 2) == 1


def test_lower_central_series_and_class(catalog):
    groups = _catalog_map(catalog)
    assert nilpotency_class(groups["C8"]) == 1
    assert nilpotency_class(groups["D8"]) == 2
    assert nilpotency_class(groups["D16"]) == 3
    assert nilpotency_class(groups["Q16"]) == 3
    series = lower_central_series(groups["D16"])
    orders = [s.order for s in series]
    assert orders[0] == 16 and orders[-1] == 1
    assert all(orders[i] % orders[i + 1] == 0 for i in range(len(orders) - 1))
    assert nilpotency_class(groups["heis27"]) == 2


def _p3_bases():
    """The p = 3 bases K = <s, s1> (Heisenberg, wreath, (C9 x C9):C3) and
    the family G of each at (n, m, k) = (2, 1, 1)."""
    wt, wg = wreath_cyclic_table(3)
    st, sg = semidirect_c9c9_table()
    groups = []
    for base, kwargs in (("heisenberg", {}),
                         ("wreath", {"table": wt, "table_generators": wg}),
                         ("c9c9", {"table": st, "table_generators": sg})):
        inst = build_family(3, "heisenberg" if base == "heisenberg" else "table",
                            2, 1, 1, **kwargs)
        K = closure(inst.ambient, [inst.named["s"], inst.named["s1"]])
        groups += [(f"{base}-K", K), (f"{base}-G-211", inst.G)]
    return groups


def _frattini_without_commutators(group):
    """A broken frattini: the normal closure of the generators' p-th powers,
    with the commutator seeds dropped."""
    gens = group.small_generators()
    return normal_closure(group.ambient, gens,
                          [group.ambient.power(s, group.p) for s in gens], group.order)


def test_frattini_matches_power_oracle(catalog, inst433):
    """Phi(G) from generator seeds equals G' G^p from all p-th powers on
    the catalog, the p = 3 bases, and G, H and P at (4,3,3), P the
    coordinate box."""
    groups = list(catalog) + _p3_bases() + [
        ("G-433", inst433.G), ("H-433", inst433.H),
        ("P-433", coordinate_box(inst433.ambient))]
    for name, grp in groups:
        got, want = frattini(_fresh(grp)), power_frattini(grp)
        assert np.array_equal(got.keys(), want.keys()), name


def test_frattini_oracle_catches_dropped_commutator_seeds(catalog):
    """The Heisenberg group of order 27 has exponent 3: its generators'
    cubes are trivial, and Phi = G' has order 3.  Without the commutator
    seeds the closure is trivial, and the oracle tells them apart."""
    heis = _catalog_map(catalog)["heis27"]
    want = power_frattini(heis)
    assert want.order == 3 == derived_subgroup(heis).order
    assert frattini(_fresh(heis)).keys().tolist() == want.keys().tolist()
    broken = _frattini_without_commutators(_fresh(heis))
    assert broken.order == 1
    assert not np.array_equal(broken.keys(), want.keys())


def test_coordinate_box_checks_every_word():
    """The box of a two-generator ambient is the whole ambient, and its half
    with e = 0 is <r, c, d>, both with valid words; on the Heisenberg
    ambient (h1, h2, 0) is not (h1, h2 - 1, 0) times (0, 1, 0) when h1 != 0,
    so the box is refused."""
    amb = make_ambient(2, "semidihedral", 3, 2, 1)
    for lead in (0, 1):
        box = coordinate_box(amb, lead)
        want = dict_closure(amb, box.generators)
        assert box.element_set() == frozenset(want.elements)
        assert all(ref_word(box, w) == g for w, g in zip(box.words, box.elements))
    with pytest.raises(RuntimeError, match="coordinate box"):
        coordinate_box(make_ambient(3, "heisenberg", 1, 1, 1))


def test_power_subgroup_cyclic(catalog):
    C8 = _catalog_map(catalog)["C8"]
    assert power_subgroup(C8, 1).order == 4
    assert power_subgroup(C8, 2).order == 2
    assert power_subgroup(C8, 3).order == 1


def test_frattini_of_cyclic_and_klein(catalog):
    groups = _catalog_map(catalog)
    assert frattini(groups["C8"]).order == 4
    assert frattini(groups["V4"]).order == 1


def test_maximal_subgroups_counts(catalog):
    groups = _catalog_map(catalog)
    assert len(maximal_subgroups(groups["C4"])) == 1
    assert len(maximal_subgroups(groups["V4"])) == 3
    d8_max = maximal_subgroups(groups["D8"])
    assert len(d8_max) == 3
    assert sorted(sub.is_abelian() for sub in d8_max) == [True, True, True]
    assert all(2 * sub.order == 8 for sub in d8_max)


def test_conjugacy_classes_dihedral8(catalog):
    D8 = _catalog_map(catalog)["D8"]
    classes = classes_from_labels(conjugacy_classes(D8))
    sizes = sorted(len(cls) for cls in classes)
    assert sizes == [1, 1, 2, 2, 2]
    for cls in classes:
        rep = D8.elements[cls[0]]
        assert centralizer_index(D8, rep) == len(cls)


def test_conjugacy_classes_partition(catalog):
    for name in ("Q16", "heis27"):
        grp = _catalog_map(catalog)[name]
        classes = classes_from_labels(conjugacy_classes(grp))
        seen = sorted(i for cls in classes for i in cls)
        assert seen == list(range(grp.order))


def test_normal_closure_and_commutator(catalog):
    D16 = _catalog_map(catalog)["D16"]
    t = D16.generators[0]
    nc = normal_closure(D16.ambient, D16.small_generators(), [t], D16.order)
    assert nc.order in (8, 16)
    der = commutator_subgroup(D16, D16)
    assert der.element_set() == derived_subgroup(D16).element_set()


def test_intersection(catalog):
    groups = _catalog_map(catalog)
    V4, C4 = groups["V4"], groups["C4"]
    assert intersection(V4, V4).order == 4
    D8 = groups["D8"]
    der = derived_subgroup(D8)
    cen = center(D8)
    assert intersection(der, cen).element_set() == der.element_set()


def test_jennings_series_c4():
    amb = make_ambient(2, "dihedral", 3, 2, 1)
    C4 = closure(amb, [amb.standard_generators()["c"]])
    series = jennings_series(C4)
    assert [s.order for s in series] == [4, 2, 1]
    assert jennings_factor_orders(C4) == [2, 2]


def test_jennings_series_matches_set_oracle(layer_groups):
    """Vectorized seeds give the same terms, generators and words as scalar
    seeds over the same small generators, and the same terms as seeds over
    every element of M_{i-1}."""
    for name, grp in layer_groups:
        got, want = jennings_series(grp), set_jennings_series(grp)
        full = set_jennings_series(grp, every_element=True)
        assert len(got) == len(want) == len(full), name
        for a, b, c in zip(got, want, full):
            assert (a.elements, a.generators) == (b.elements, b.generators), name
            assert np.array_equal(a.bfs_parent, b.bfs_parent), name
            assert np.array_equal(a.bfs_gen, b.bfs_gen), name
            assert a.elements == c.elements, name


def test_jennings_series_shape(catalog):
    for name, grp in catalog:
        series = jennings_series(grp)
        assert series[0].element_set() == grp.element_set()
        assert series[-1].order == 1
        factors = jennings_factor_orders(grp)
        prod = 1
        for f in factors:
            prod *= f
        assert prod == grp.order, name


def test_exponent(catalog):
    groups = _catalog_map(catalog)
    assert groups["C8"].exponent() == 8
    assert groups["V4"].exponent() == 2
    assert groups["Q8"].exponent() == 4
    assert groups["heis27"].exponent() == 3


def test_generated_subgroup_vs_closure(catalog):
    grp = _catalog_map(catalog)["SD16"]
    gens = list(grp.generators)
    assert generated_subgroup(grp.ambient, gens).element_set() == \
        closure(grp.ambient, gens).element_set()


# --- the table-free layer against its table-based and dict-based oracles -------


def _same_bfs(a, b):
    """Same elements and words, and the same breadth-first arrays (which
    the dict oracle holds as tuples)."""
    return (a.elements == b.elements and a.words == b.words
            and all(np.array_equal(getattr(a, f), getattr(b, f))
                    for f in ("bfs_order", "bfs_parent", "bfs_gen")))


def test_closure_matches_dict_oracle(layer_groups):
    """A closure is the dict oracle's, breadth-first tree and all; every
    closure-built group is the closure of its generators, and a generated
    subgroup of the catalog has its elements under a valid tree."""
    for name, grp in layer_groups:
        again = closure(grp.ambient, grp.generators)
        assert _same_bfs(again, dict_closure(grp.ambient, grp.generators)), name
        if name in GENERATED_IN_CATALOG:
            assert grp.elements == again.elements, name
            assert_valid_tree(grp, name)
        else:
            assert _same_bfs(grp, again), name


def test_closure_matches_dict_oracle_on_random_generators(layer_groups):
    rng = random.Random(7)
    for name, grp in layer_groups:
        amb = grp.ambient
        for _ in range(3):
            # repeated generators and the identity exercise the tie-breaking
            gens = [grp.elements[rng.randrange(grp.order)] for _ in range(3)]
            gens += [gens[0], amb.identity]
            rng.shuffle(gens)
            assert _same_bfs(closure(amb, gens), dict_closure(amb, gens)), name


def test_closure_guard_matches_dict_oracle(layer_groups):
    for name, grp in layer_groups:
        if grp.order < 4:
            continue
        guard = grp.order - 1
        with pytest.raises(GuardExceeded):
            dict_closure(grp.ambient, grp.generators, guard)
        with pytest.raises(GuardExceeded):
            closure(grp.ambient, grp.generators, guard)
        assert closure(grp.ambient, grp.generators, grp.order).order == grp.order


def test_element_orders_match_table_oracle(layer_groups):
    for name, grp in layer_groups:
        orders = subgroup_from_elements(grp.ambient, grp.elements,
                                        verify=False).element_orders()
        assert np.array_equal(orders, table_element_orders(grp)), name


def test_maximal_subgroups_match_coset_scan_oracle(layer_groups):
    for name, grp in layer_groups:
        got = [sub.elements for sub in maximal_subgroups(grp)]
        assert got == coset_scan_maximal_subgroups(grp), name


def test_conjugacy_classes_match_table_oracle(layer_groups):
    for name, grp in layer_groups:
        assert classes_from_labels(conjugacy_classes(grp)) == \
            table_conjugacy_classes(grp), name


def test_conjugacy_class_labels_are_class_minima(layer_groups):
    """Each element is labelled with the smallest element of its class; the
    labels are read-only and kept on the group."""
    for name, grp in layer_groups:
        label = conjugacy_classes(grp)
        assert np.array_equal(label[label], label), name
        assert (label <= np.arange(grp.order)).all(), name
        assert not label.flags.writeable, name
        assert conjugacy_classes(grp) is label, name
        assert classes_from_labels(label) == table_conjugacy_classes(grp), name


def test_greedy_generators_match_oracle(layer_groups):
    for name, grp in layer_groups:
        amb = grp.ambient
        seeds = {amb.power(g, grp.p) for g in grp.elements[::3]}
        seeds.update(amb.comm(a, b) for a in grp.generators for b in grp.generators)
        assert generated_subgroup(amb, seeds).generators == \
            greedy_generators(amb, seeds), name
        fat = subgroup_from_elements(amb, grp.elements, verify=False)
        if fat.order > 3:
            assert fat.small_generators() == greedy_generators(amb, grp.elements), name


def test_words_read_off_the_bfs_tree(catalog):
    for name, grp in catalog:
        for i, word in enumerate(grp.words):
            assert ref_word(grp, word) == grp.elements[i], name
    D16 = _catalog_map(catalog)["D16"]
    fat = subgroup_from_elements(D16.ambient, D16.elements)
    ident = fat.identity_index
    assert fat.words == tuple(() if i == ident else (i,) for i in range(fat.order))


def test_cayley_table_matches_row_oracle(layer_groups):
    for name, grp in layer_groups:
        fresh = closure(grp.ambient, grp.generators)  # no cached table
        assert np.array_equal(fresh.cayley_table(), row_cayley_table(grp)), name
    G = dict(layer_groups)["dihedral-G-433"]
    sub = maximal_subgroups(G)[1]  # every element its own generator
    assert len(sub.generators) == sub.order
    assert np.array_equal(sub.cayley_table(), row_cayley_table(sub))


def test_frattini_coordinates_homomorphism_onto_with_kernel_phi(layer_groups):
    for name, grp in layer_groups:
        p = grp.p
        coords = frattini_coordinates(grp)
        d = coords.shape[1]
        assert coords.shape == (grp.order, d), name
        assert coords.min(initial=0) >= 0 and coords.max(initial=0) < p, name
        # f(g a) = f(g) + f(a) for every g and generator a gives f(gh) =
        # f(g) + f(h) for all h, by induction on the word of h
        for a, col in zip(grp.generators, grp.right_columns(grp.generators)):
            assert np.array_equal(coords[col],
                                  (coords + coords[grp.index(a)]) % p), name
        assert len({tuple(r) for r in coords.tolist()}) == p ** d, name
        kernel = {grp.elements[i] for i in np.flatnonzero(~coords.any(axis=1))}
        assert kernel == frattini(grp).element_set(), name
        # the stored generators are the basis: generator j has row e_j
        rows = coords[[grp.index(a) for a in grp.generators]]
        assert np.array_equal(rows, np.eye(d, dtype=rows.dtype)), name


def test_frattini_coordinates_need_a_basis_of_stored_generators(layer_groups):
    """Coordinates are refused when the stored generators are not a basis
    of G/Phi(G): C8 closed on c and c^2 (d = 1, two generators), and a
    maximal subgroup wrapped from its element set."""
    amb = make_ambient(2, "dihedral", 3, 3, 1)
    c = amb.standard_generators()["c"]
    c8 = closure(amb, [c, amb.power(c, 2)])
    assert c8.order == 8 and frattini(c8).order == 4
    with pytest.raises(ValueError, match="not a basis"):
        frattini_coordinates(c8)
    with pytest.raises(ValueError, match="not a basis"):
        maximal_subgroups(c8)
    sub = maximal_subgroups(dict(layer_groups)["dihedral-G-433"])[1]
    assert sub._generators is None
    with pytest.raises(ValueError, match="not a basis"):
        frattini_coordinates(sub)


def test_cayley_table_budget(catalog, monkeypatch):
    D16 = _catalog_map(catalog)["D16"]
    grp = closure(D16.ambient, D16.generators)  # a copy with no cached table
    itemsize = np.min_scalar_type(15).itemsize
    monkeypatch.setattr(groups_mod, "TABLE_BUDGET_BYTES", 16 * 16 * itemsize - 1)
    with pytest.raises(GuardExceeded, match="table budget"):
        grp.cayley_table()
    assert grp._table is None
    monkeypatch.setattr(groups_mod, "TABLE_BUDGET_BYTES", 16 * 16 * itemsize)
    assert grp.cayley_table().shape == (16, 16)


def test_cayley_table_takes_the_narrowest_index_type(catalog, inst433):
    """Entries are min_scalar_type(order - 1): uint8 at |G| = 16, uint16 at
    512 and 2048, and they equal the int32 row oracle."""
    G543 = build_family(2, "dihedral", 5, 4, 3).G
    for grp, want in ((_catalog_map(catalog)["D16"], np.uint8),
                      (inst433.G, np.uint16), (G543, np.uint16)):
        table = grp.cayley_table()
        assert table.dtype == np.min_scalar_type(grp.order - 1) == want
        assert table.nbytes == grp.order ** 2 * np.dtype(want).itemsize
    assert np.array_equal(G543.cayley_table(), row_cayley_table(G543))


def _verified_closed(amb, elements):
    try:
        subgroup_from_elements(amb, elements, verify=True)
    except ValueError:
        return False
    return True


def _closure_candidates(grp):
    """Closed and non-closed element sets drawn from one group."""
    amb = grp.ambient
    elems = list(grp.elements)
    gens = list(grp.small_generators())
    products = [amb.mul(a, b) for a in gens for b in gens]
    sets = {
        "group": elems,
        "minus-last": elems[:-1],
        "minus-middle": elems[:len(elems) // 2] + elems[len(elems) // 2 + 1:],
        "gens-and-half-products": [grp.identity] + gens + products[::2],
    }
    maxes = maximal_subgroups(grp) if grp.order > 1 else []
    if maxes:
        sub = list(maxes[0].elements)
        outside = next(g for g in elems if g not in maxes[0])
        sets["maximal"] = sub
        sets["maximal-plus-one"] = sub + [outside]
    return sets


def test_subgroup_from_elements_rejects_group_minus_one_element(layer_groups):
    for name, grp in layer_groups:
        if grp.order < 3:
            continue
        for drop in (grp.elements[-1], grp.elements[1]):
            rest = [g for g in grp.elements if g != drop]
            with pytest.raises(ValueError, match="not closed"):
                subgroup_from_elements(grp.ambient, rest)


def test_subgroup_from_elements_rejects_partial_products(catalog):
    D16 = _catalog_map(catalog)["D16"]
    amb = D16.ambient
    t, r = D16.generators
    with pytest.raises(ValueError, match="not closed"):
        subgroup_from_elements(amb, [amb.identity, t, r, amb.mul(t, r)])
    # three commuting involutions: every pair spans a Klein four-group of
    # order |S| = 4 that is not S, so the first closure that leaves S stays
    # within the guard |S| and is rejected by membership alone
    a2 = make_ambient(2, "dihedral", 3, 3, 1)
    g2 = a2.standard_generators()
    invs = [g2["t"], a2.power(g2["c"], 4), g2["d"]]
    assert closure(a2, invs).order == 8
    for extra in ([], [a2.mul(invs[0], invs[1])]):
        with pytest.raises(ValueError, match="not closed"):
            subgroup_from_elements(a2, [a2.identity] + invs + extra)


def test_subgroup_from_elements_matches_pairwise_oracle(layer_groups):
    for name, grp in layer_groups:
        for kind, elements in _closure_candidates(grp).items():
            closed = pairwise_closed(grp.ambient, elements)
            assert _verified_closed(grp.ambient, elements) == closed, (name, kind)
            if closed and len(set(elements)) > 3:
                sub = subgroup_from_elements(grp.ambient, elements)
                assert sub.small_generators() == \
                    greedy_generators(grp.ambient, elements), (name, kind)


def test_bfs_levels_hold_the_word_lengths(layer_groups):
    """Level l of the breadth-first tree holds the elements whose words
    have length l, for closures and for groups wrapped from element sets
    (a generated subgroup's tree is read on the closure of its generators)."""
    for name, grp in layer_groups:
        built = (closure(grp.ambient, grp.generators)
                 if name in GENERATED_IN_CATALOG else grp)
        for g in (built, subgroup_from_elements(grp.ambient, grp.elements, verify=False)):
            levels = g.bfs_levels
            assert levels[0] == 0 and levels[1] == 1 and levels[-1] == g.order, name
            for depth, (lo, hi) in enumerate(zip(levels[:-1], levels[1:])):
                assert hi > lo, name
                assert {len(g.words[i]) for i in g.bfs_order[lo:hi]} == {depth}, name


def test_transport_along_right_columns_reads_table_rows(layer_groups):
    """Transport from h along the group's own right columns lands on h*g
    for every g: row h of the table.  From every point at once, row g is
    column g of the table, in the columns' int32."""
    for name, grp in layer_groups:
        table = row_cayley_table(grp)
        cols = np.stack(grp.right_columns(grp.generators))
        for h in {0, grp.order // 2, grp.order - 1}:
            assert np.array_equal(grp.transport(cols, h), table[h]), name
        composed = grp.transport(cols, np.arange(grp.order, dtype=np.int32))
        assert composed.dtype == np.int32, name
        assert np.array_equal(composed, table.T), name


def test_walk_reads_table_entries(layer_groups):
    """Each start carried along its own target's word lands on
    start * target: the Cayley table entry, on deep trees and on the
    one-level tree of an element-set group, identity starts and targets
    included."""
    rng = np.random.default_rng(7)
    sets = [(f"{name}-set", subgroup_from_elements(grp.ambient, grp.array()))
            for name, grp in layer_groups if grp.order <= 64]
    assert sets and all(len(grp.bfs_levels) == 3 for _, grp in sets)
    for name, grp in layer_groups + sets:
        table = grp.cayley_table()
        lefts = np.concatenate(([0, 0, grp.order - 1],
                                rng.integers(grp.order, size=500)))
        rights = np.concatenate(([0, grp.order - 1, 0],
                                 rng.integers(grp.order, size=500)))
        cols = np.stack(grp.right_columns(grp.generators))
        got = grp.walk(cols, lefts, rights)
        assert got.dtype == np.int32, name
        assert np.array_equal(got, table[lefts, rights]), name


def test_walk_from_one_origin_is_transport(layer_groups):
    """With every start the same origin, walk gives transport's images."""
    for name, grp in layer_groups:
        cols = np.stack(grp.right_columns(grp.generators))
        targets = np.arange(grp.order)
        for origin in {0, grp.order // 3, grp.order - 1}:
            starts = np.full(grp.order, origin)
            assert np.array_equal(grp.walk(cols, starts, targets),
                                  grp.transport(cols, origin)), name


def test_maximal_subgroups_carry_generators(layer_groups, monkeypatch):
    """The carried generators of every maximal subgroup close to exactly
    its elements, and is_abelian reads them with no closure, agreeing with
    the greedy generators of the same element set."""
    subs, want = [], []
    for name, grp in layer_groups:
        for sub in maximal_subgroups(grp):
            gens = sub.small_generators()
            assert len(gens) < max(sub.order, 4), name
            assert np.array_equal(closure(grp.ambient, gens).keys(), sub.keys()), name
            subs.append(sub)
            want.append(subgroup_from_elements(sub.ambient, sub.elements).is_abelian())

    def no_closure(*args, **kwargs):
        raise AssertionError("closure run")
    monkeypatch.setattr(groups_mod, "_bfs", no_closure)
    assert [sub.is_abelian() for sub in subs] == want


def _group_summary(grp):
    """What the group layer reads off grp, as key lists and counts."""
    der = derived_subgroup(grp)
    return (frattini(grp).keys().tolist(), der.keys().tolist(),
            [sub.keys().tolist() for sub in maximal_subgroups(grp)],
            [sub.keys().tolist() for sub in abelian_maximal_subgroups(grp)],
            [term.order for term in jennings_series(grp)],
            classes_from_labels(conjugacy_classes(grp)),
            centralizer_mod(grp, grp, der).keys().tolist(), grp.is_abelian())


def test_group_layer_runs_on_rows_alone(layer_groups, monkeypatch):
    """With the one-element mul, inv, power and comm of the ambient made to
    raise, every structural operation and the isomorphism oracle still run
    on fresh copies of the groups (no cached results), with the same
    answers."""
    fresh = [(name, dataclasses.replace(
        grp, _table=None, _orders=None, _central_mask=None, _frattini=None,
        _class_label=None, _abelian_maximal=None))
        for name, grp in layer_groups]
    want = [_group_summary(grp) for _, grp in layer_groups]

    def scalar_call(*args, **kwargs):
        raise AssertionError("one-element group law called")
    for method in ("mul", "inv", "power", "comm"):
        monkeypatch.setattr(AmbientDescriptor, method, scalar_call)
    assert [_group_summary(grp) for _, grp in fresh] == want
    pairs = [grp for _, grp in fresh if len(grp.generators) == 2]
    assert len(pairs) >= 8
    assert all(isomorphic_bruteforce(grp, grp) for grp in pairs)


def test_centralizer_index_matches_orbit_oracle(layer_groups):
    for name, grp in layer_groups:
        for cls in classes_from_labels(conjugacy_classes(grp)):
            rep = grp.elements[cls[0]]
            assert centralizer_index(grp, rep) == len(cls) == \
                orbit_centralizer_index(grp, rep), name


def test_inverse_permutation_matches_scalar_inverses(layer_groups):
    for name, grp in layer_groups:
        want = [grp.index(ref_inv(grp.ambient, g)) for g in grp.elements]
        got = grp.inverse_permutation()
        assert got.dtype == np.int32 and got.tolist() == want, name


def _centralizer_cases(grp):
    """(upper, lower) pairs with lower normal in grp and contained in upper."""
    der = derived_subgroup(grp)
    phi = frattini(grp)
    trivial = closure(grp.ambient, [])
    return [(grp, der), (der, frattini(der)), (grp, phi), (phi, frattini(phi)),
            (grp, trivial)]


def test_centralizer_mod_matches_scalar_oracle(layer_groups):
    for name, grp in layer_groups:
        for upper, lower in _centralizer_cases(grp):
            got = centralizer_mod(grp, upper, lower)
            assert got.element_set() == \
                scalar_centralizer_mod(grp, upper, lower), name
        assert centralizer_mod(grp, grp, closure(grp.ambient, [])).element_set() \
            == center(grp).element_set(), name


def test_centralizer_mod_rejects_lower_outside_upper(catalog):
    D16 = _catalog_map(catalog)["D16"]
    with pytest.raises(ValueError, match="contained in upper"):
        centralizer_mod(D16, derived_subgroup(D16), D16)


def test_normal_closure_matches_set_oracle(layer_groups):
    rng = random.Random(77)
    for name, grp in layer_groups:
        gens = grp.small_generators()
        seed_sets = [[grp.identity], list(gens[:1]),
                     [ref_comm(grp.ambient, a, b) for a in gens for b in gens]]
        seed_sets += [rng.sample(grp.elements, min(3, grp.order))
                      for _ in range(3)]
        for seeds in seed_sets:
            want = set_normal_closure(grp, seeds)
            for got in (normal_closure(grp.ambient, gens, seeds, grp.order),
                        normal_closure(grp.ambient, np.array(gens, dtype=np.int64),
                                       np.array(seeds, dtype=np.int64), grp.order)):
                assert got.elements == want.elements, name
                assert got.generators == want.generators, name
                assert np.array_equal(got.bfs_order, want.bfs_order), name


# --- the array-backed group against its tuple-built oracle ---------------------


def _int32_bfs(grp):
    return all(getattr(grp, f).dtype == np.int32
               for f in ("bfs_order", "bfs_parent", "bfs_gen"))


def test_array_group_matches_tuple_oracle(layer_groups):
    """Every closure, and groups wrapped from element sets (a maximal
    subgroup, an intersection, a centralizer), equal field by field the
    group built as tuples with a dict index; maximal subgroups come in the
    order of their element lists.  A generated subgroup of the catalog
    equals it but for its tree, which is valid.  The breadth-first arrays
    are int32.  A centralizer that keeps every element, here
    N = C_G(G'/Phi(G')) = G, is the group itself, with its own tree; the
    wrapped centralizer is the centre."""
    for name, grp in layer_groups:
        amb, gens = grp.ambient, grp.generators
        want = tuple_from_bfs(amb, gens, groups_mod._bfs(amb, gens, amb.order))
        assert_same_group(grp, want, name, tree=name not in GENERATED_IN_CATALOG)
        assert _int32_bfs(grp), name
        assert_same_group(closure(amb, gens), want, name)
        maxes = [sub.elements for sub in maximal_subgroups(grp)]
        assert maxes == sorted(maxes), name
    named = dict(layer_groups)
    G, H = named["dihedral-G-433"], named["dihedral-H-433"]
    der = derived_subgroup(G)
    assert centralizer_mod(G, der, frattini(der)) is G
    cases = {"maximal": maximal_subgroups(G)[1], "intersection": intersection(G, H),
             "centralizer": centralizer_mod(G, G, closure(G.ambient, []))}
    for kind, sub in cases.items():
        want = tuple_subgroup_from_elements(G.ambient, sub.elements)
        # a maximal subgroup carries its small generators
        assert_same_group(sub, want, kind, small_generators=kind != "maximal")
        assert _int32_bfs(sub), kind
        for given in (sub.array(), sub.array()[::-1], list(sub.elements) * 2):
            again = subgroup_from_elements(G.ambient, given)
            assert_same_group(again, want, kind)
            assert _int32_bfs(again), kind
            assert len(again.generators) == again.order, kind


def test_lookup_refuses_aliased_and_malformed_tuples(layer_groups):
    """A digit equal to its radix encodes onto another element's key; the
    lookup refuses it, and tuples of the wrong width, before encoding."""
    for name, grp in layer_groups:
        amb = grp.ambient
        if amb.width < 2:
            continue
        g = next((g for g in grp.elements if g[-1] == 0 and g[-2] > 0), None)
        if g is None:
            continue
        alias = g[:-2] + (g[-2] - 1, amb.radices[-1])
        assert amb.key(alias) == amb.key(g), name
        bad = [alias, g + (0,), g[:-1], g[:-1] + (-1,), (0,) * (amb.width - 1) + (-1,)]
        for h in bad:
            assert h not in grp, (name, h)
            with pytest.raises(KeyError):
                grp.index(h)
        assert g in grp and grp.element(grp.index(g)) == g, name


def _fresh(grp):
    """A copy of a closure group with nothing cached."""
    return closure(grp.ambient, grp.generators)


def test_incremental_absorption_matches_reclosing_oracle(layer_groups, monkeypatch):
    """Every generated_subgroup call made by frattini, derived_subgroup and
    jennings_series, and random seed sets, give the essential seeds, the
    elements and the small generators of the absorption that closes each
    prefix again, with a valid derivation tree."""
    real = groups_mod.generated_subgroup
    calls = []

    def checked(ambient, seeds, guard=None):
        got = real(ambient, seeds, guard)
        assert_generated_matches_reclosing(got, ambient, seeds, guard, len(calls))
        calls.append(len(got.generators))
        return got

    monkeypatch.setattr(groups_mod, "generated_subgroup", checked)
    rng = random.Random(11)
    for name, grp in layer_groups:
        frattini(_fresh(grp))
        derived_subgroup(_fresh(grp))
        jennings_series(_fresh(grp))
        for size in (1, 3, 8):
            picks = [grp.elements[rng.randrange(grp.order)] for _ in range(size)]
            checked(grp.ambient, picks, grp.order)
            checked(grp.ambient, np.array(picks, dtype=np.int64))
    assert len(calls) > 8 * len(layer_groups) and max(calls) >= 2


def test_generated_subgroups_run_no_closure(layer_groups, monkeypatch):
    """generated_subgroup, frattini and jennings_series enumerate each
    subgroup once, in the absorption: none calls closure or _bfs."""
    fresh = [(name, _fresh(grp)) for name, grp in layer_groups]
    calls = []
    for target in ("closure", "_bfs"):
        real = getattr(groups_mod, target)

        def counted(*args, real=real, target=target, **kwargs):
            calls.append(target)
            return real(*args, **kwargs)
        monkeypatch.setattr(groups_mod, target, counted)
    for name, grp in fresh:
        assert generated_subgroup(grp.ambient, grp.array(), grp.order).order == grp.order
        frattini(grp)
        jennings_series(grp)
    assert calls == []
    groups_mod.closure(fresh[0][1].ambient, fresh[0][1].generators)
    assert calls == ["closure", "_bfs"]


def _jennings_cases(catalog):
    yield from catalog
    for variant in ("dihedral", "semidihedral", "quaternion"):
        for nmk in ((4, 3, 3), (5, 4, 3)):
            inst = build_family(2, variant, *nmk)
            yield f"{variant}-G-{nmk}", inst.G
            yield f"{variant}-H-{nmk}", inst.H
    wt, wg = wreath_cyclic_table(3)
    st, sg = semidirect_c9c9_table()
    yield "heisenberg-G-211", build_family(3, "heisenberg", 2, 1, 1).G
    yield "wreath-G-211", build_family(3, "table", 2, 1, 1, table=wt,
                                       table_generators=wg).G
    yield "c9c9-G-211", build_family(3, "table", 2, 1, 1, table=st,
                                     table_generators=sg).G


def test_jennings_breakpoints_match_unmemoized_series(catalog, monkeypatch):
    """The series read at its breakpoints has the terms and factor orders
    of the loop that closes every index, and runs fewer normal closures."""
    real = groups_mod.normal_closure
    closures = []

    def counted(*args, **kwargs):
        closures.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(groups_mod, "normal_closure", counted)
    cases, terms = list(_jennings_cases(catalog)), 0
    for name, grp in cases:
        got, want = jennings_series(_fresh(grp)), unmemoized_jennings_series(_fresh(grp))
        assert [t.keys().tolist() for t in got] == [t.keys().tolist() for t in want], name
        assert jennings_factor_orders(_fresh(grp)) == [
            a.order // b.order for a, b in zip(want, want[1:])], name
        # a repeated term is the earlier object itself
        assert all(a is b for a, b in zip(got, got[1:]) if a.order == b.order), name
        terms += len(got) - 1
    closures.clear()
    for name, grp in cases:
        jennings_series(_fresh(grp))
    assert len(closures) < terms


def test_incremental_absorption_guard_and_closedness(layer_groups):
    """The grown subgroups keep the guard, and a set that is not closed is
    refused whether given as tuples or as rows."""
    for name, grp in layer_groups:
        if grp.order < 4:
            continue
        amb = grp.ambient
        with pytest.raises(GuardExceeded):
            generated_subgroup(amb, grp.elements, guard=grp.order - 1)
        assert generated_subgroup(amb, grp.array(), guard=grp.order).order == grp.order
        rest = np.delete(grp.array(), grp.order // 2, axis=0)
        for given in (rest, list(map(tuple, rest.tolist()))):
            with pytest.raises(ValueError, match="not closed"):
                subgroup_from_elements(amb, given)


def test_structure_holds_no_element_tuples(monkeypatch):
    """The structural verification reads G, H and their meets with M
    through rows and keys only: none of them builds its element tuples."""
    inst = build_family(2, "dihedral", 5, 4, 3)
    wrapped = []
    wrap = family_mod.subgroup_from_elements

    def recording(*args, **kwargs):
        wrapped.append(wrap(*args, **kwargs))
        return wrapped[-1]
    monkeypatch.setattr(family_mod, "subgroup_from_elements", recording)
    assert verify_structure(inst).ok
    assert [grp.order for grp in wrapped] == [inst.G.order // 2] * 2
    for grp in (inst.G, inst.H, *wrapped):
        assert "elements" not in vars(grp)
