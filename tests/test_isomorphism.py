"""Recognition clauses and the brute-force isomorphism oracle."""

import random
from itertools import product

import numpy as np
import pytest

from mipverify import isomorphism as isomorphism_mod
from mipverify.ambient import TWO_GENERATOR_VARIANTS
from mipverify.family import build_family
from mipverify.groups import (closure, conjugacy_classes, frattini_coordinates,
                              generated_subgroup, subgroup_from_elements)
from mipverify.isomorphism import (OracleBoundExceeded, _generates,
                                   find_presentation_witness,
                                   isomorphic_bruteforce, pair_relations)

from conftest import (closure_presentation_witness, enumeration_isomorphic,
                      recognize_any_pair, recognize_presented_group, ref_conj,
                      ref_order)


def _by_name(catalog):
    return dict(catalog)


def test_bruteforce_distinguishes_small_groups(catalog):
    groups = _by_name(catalog)
    assert not isomorphic_bruteforce(groups["V4"], groups["C4"])
    assert not isomorphic_bruteforce(groups["D8"], groups["Q8"])
    assert not isomorphic_bruteforce(groups["D16"], groups["SD16"])
    assert not isomorphic_bruteforce(groups["D16"], groups["Q16"])
    assert not isomorphic_bruteforce(groups["SD16"], groups["Q16"])


def test_bruteforce_accepts_relabelled_copy(catalog):
    groups = _by_name(catalog)
    D16 = groups["D16"]
    t, r = D16.generators
    # same group on a different generating pair: (t r^2, r) still presents D16
    amb = D16.ambient
    other = closure(amb, [amb.mul(t, amb.mul(r, r)), r])
    assert other.element_set() == D16.element_set()
    assert isomorphic_bruteforce(other, D16)
    assert isomorphic_bruteforce(D16, D16)


def test_bruteforce_differing_orders_and_bound(catalog):
    groups = _by_name(catalog)
    assert not isomorphic_bruteforce(groups["D8"], groups["D16"])
    with pytest.raises(OracleBoundExceeded):
        isomorphic_bruteforce(groups["D16"], groups["Q16"], bound=8)


def _verdict(search, a_group, b_group):
    try:
        return search(a_group, b_group)
    except ValueError as exc:
        return str(exc)


def _as_element_set(group):
    """The same elements wrapped as an element set: every element is a
    generator, on one breadth-first level."""
    return subgroup_from_elements(group.ambient, group.array())


@pytest.fixture(scope="module")
def oracle_pairs(catalog):
    """(label, A, B, verdict of the full enumeration): every ordered pair of
    the catalog, G and H of the three 2-case kinds at (4,3,3) across kinds,
    and a D16 on (t r^2, r), whose t r^2 is not the smallest of its class."""
    d16 = _by_name(catalog)["D16"]
    amb = d16.ambient
    t, r = d16.generators
    relabelled = closure(amb, [amb.mul(t, amb.power(r, 2)), r])
    a1 = d16.index(relabelled.generators[0])
    assert conjugacy_classes(d16)[a1] != a1
    family = []
    for variant in ("dihedral", "semidihedral", "quaternion"):
        inst = build_family(2, variant, 4, 3, 3)
        family += [(f"{variant}-G", inst.G), (f"{variant}-H", inst.H)]
    cases = [(f"{na}->{nb}", a, b) for na, a in catalog for nb, b in catalog]
    cases += [(f"{na}->{nb}", a, b) for na, a in family for nb, b in family]
    cases += [("D16(t r^2, r)->D16", relabelled, d16)]
    cases += [(f"{label}->set", a, _as_element_set(b)) for label, a, b in cases
              if a.order == b.order and len(a.generators) == 2]
    return [(label, a, b, _verdict(enumeration_isomorphic, a, b))
            for label, a, b in cases]


@pytest.mark.parametrize("block_entries", [None, 1], ids=["blocks", "one-b1-per-block"])
def test_oracle_matches_full_enumeration(oracle_pairs, block_entries, monkeypatch):
    """Class-minimum first images and blocked masks give the verdict of the
    enumeration over every b1, also with one b1 per block and on targets
    wrapped from element sets."""
    if block_entries is not None:
        monkeypatch.setattr(isomorphism_mod, "_BLOCK_ENTRIES", block_entries)
    verdicts = {}
    for label, a, b, want in oracle_pairs:
        assert _verdict(isomorphic_bruteforce, a, b) == want, label
        verdicts[label] = want
    assert verdicts["D16(t r^2, r)->D16"] is True
    assert verdicts["D16(t r^2, r)->D16->set"] is True
    # the three G's are isomorphic, and so are the three H's; no G is an H
    kinds = product(("dihedral", "semidihedral", "quaternion"), "GH")
    for (ka, wa), (kb, wb) in product(list(kinds), repeat=2):
        assert verdicts[f"{ka}-{wa}->{kb}-{wb}"] is (wa == wb)


def test_recognition_accepts_g_pair(inst433):
    res = recognize_presented_group(inst433.G, inst433.x, inst433.y, 4, 3, 3)
    assert res.ok
    assert [c.id for c in res.clauses] == [
        "parameters", "order-a", "order-b", "a-square-central",
        "b-square-central", "derived-order",
        "central-squares-meet-derived-trivially"]
    assert all(c.passed for c in res.clauses)


def test_recognition_rejects_h_pair_on_g_parameters(inst433):
    # (x, z) generates H whose z^2 is NOT central: recognition must fail there
    res = recognize_presented_group(inst433.H, inst433.x, inst433.z, 4, 3, 3)
    assert not res.ok
    failing = [c.id for c in res.clauses if not c.passed]
    assert "b-square-central" in failing


def test_recognition_requires_generating_pair(inst433):
    c = inst433.named["c"]
    with pytest.raises(ValueError):
        recognize_presented_group(inst433.G, inst433.x, c, 4, 3, 3)


def test_recognize_any_pair(inst433):
    pair = recognize_any_pair(inst433.G, 4, 3, 3)
    assert pair is not None
    a, b = pair
    assert recognize_presented_group(inst433.G, a, b, 4, 3, 3).ok
    assert recognize_any_pair(inst433.G, 3, 3, 3) is None  # bad parameters


def test_presentation_witness_g_and_h(inst433):
    G, H = inst433.G, inst433.H
    assert find_presentation_witness(G, 4, 3, 3, relations="g") is not None
    assert find_presentation_witness(G, 4, 3, 3, relations="h") is None
    assert find_presentation_witness(H, 4, 3, 3, relations="h") is not None
    assert find_presentation_witness(H, 4, 3, 3, relations="g") is None
    with pytest.raises(ValueError):
        find_presentation_witness(G, 4, 3, 3, relations="x")


def test_witness_pair_satisfies_relations(inst433):
    G = inst433.G
    a, b = find_presentation_witness(G, 4, 3, 3, relations="g")
    amb = G.ambient
    u = amb.comm(b, a)
    assert ref_order(amb, a) == 16 and ref_order(amb, b) == 8
    assert ref_order(amb, u) == 4
    assert ref_conj(amb, b, a) == amb.mul(b, u)
    assert ref_conj(amb, u, a) == amb.inv(u)
    assert ref_conj(amb, u, b) == amb.inv(u)
    assert closure(G.ambient, [a, b]).order == G.order


def _failing(group, a, b, nmk, relations):
    return [name for name, held in pair_relations(group, a, b, *nmk, relations).items()
            if not held]


@pytest.mark.parametrize("nmk", [(4, 3, 3), (5, 4, 3), (6, 5, 4), (7, 6, 4)],
                         ids=lambda nmk: "".join(map(str, nmk)))
def test_stored_pairs_satisfy_their_relation_set(nmk):
    """In every variant G's stored pair (x, y) satisfies the "g" set and
    H's (x, z) the "h" set; each fails the other set only at u^b."""
    for variant in TWO_GENERATOR_VARIANTS:
        inst = build_family(2, variant, *nmk)
        G, H, x, y, z = inst.G, inst.H, inst.x, inst.y, inst.z
        assert G.generators == (x, y) and H.generators == (x, z)
        assert _failing(G, x, y, nmk, "g") == [], variant
        assert _failing(G, x, y, nmk, "h") == ["u^b"], variant
        assert _failing(H, x, z, nmk, "h") == [], variant
        assert _failing(H, x, z, nmk, "g") == ["u^b"], variant


@pytest.fixture(scope="module")
def presented_instances():
    return [build_family(2, variant, *nmk)
            for nmk in ((4, 3, 3), (5, 4, 3))
            for variant in ("dihedral", "semidihedral", "quaternion")]


def test_each_relation_carries_weight(presented_instances):
    """For each relation of the "g" set, a pair that fails it and no other."""
    for inst in presented_instances:
        n, m, k = inst.nmk
        G, H, x, y, z = inst.G, inst.H, inst.x, inst.y, inst.z
        cases = {
            "order-a": (G, x, y, (n + 1, m, k)),
            "order-b": (G, x, y, (n, m + 1, k)),
            # [x^2, x] = 1, and |x^2| = 2^(n-1)
            "u-nontrivial": (G, x, inst.ambient.power(x, 2), (n, n - 1, k)),
            # |[y, x]| = 2^(k-1)
            "u-exponent": (G, x, y, (n, m, k - 1)),
            # z centralizes [x, z] and x inverts it; |z| = 2^m
            "u^a": (H, z, x, (m, n, k)),
            "u^b": (H, x, z, (n, m, k)),
        }
        for relation, (grp, a, b, nmk) in cases.items():
            assert _failing(grp, a, b, nmk, "g") == [relation], \
                (inst.variant, inst.nmk, relation)
    with pytest.raises(ValueError):
        pair_relations(G, x, y, n, m, k, "x")


def test_presentation_witness_matches_closure_oracle(presented_instances):
    """Generation read off G/Phi(G) picks the pair that one closure per
    relation-satisfying candidate picks, for both relation sets."""
    for inst in presented_instances:
        n, m, k = inst.nmk
        for which, grp in (("G", inst.G), ("H", inst.H)):
            for relations in ("g", "h"):
                assert find_presentation_witness(grp, n, m, k, relations) == \
                    closure_presentation_witness(grp, n, m, k, relations), \
                    (inst.variant, inst.nmk, which, relations)


def test_presentation_witness_none_for_three_generator_group(inst433):
    """<tc, r, d^2> has order 2^9 and needs three generators.  (tc, r)
    satisfies the "h" relations but generates only 2^7 elements, so no pair
    of the group is a witness."""
    amb, named = inst433.ambient, inst433.named
    a, b = amb.mul(named["t"], named["c"]), named["r"]
    grp = closure(amb, [a, b, amb.power(named["d"], 2)])
    assert grp.order == 512 and frattini_coordinates(grp).shape[1] == 3
    u = amb.comm(b, a)
    assert (ref_order(amb, a), ref_order(amb, b), ref_order(amb, u)) == (16, 8, 4)
    assert ref_conj(amb, b, a) == amb.mul(b, u) and ref_conj(amb, u, a) == amb.inv(u)
    assert ref_conj(amb, u, b) == u
    assert closure(amb, [a, b]).order == 128
    for relations in ("g", "h"):
        assert find_presentation_witness(grp, 4, 3, 3, relations) is None
        assert closure_presentation_witness(grp, 4, 3, 3, relations) is None


def test_burnside_generation_matches_closure(layer_groups):
    """A pair generates iff its rows in G/Phi(G) span it, checked against
    closure on random pairs of every group with d <= 2."""
    rng = random.Random(2024)
    for name, grp in layer_groups:
        coords = frattini_coordinates(grp)
        if coords.shape[1] > 2:
            continue
        for a in rng.sample(range(grp.order), min(3, grp.order)):
            bs = np.array(rng.sample(range(grp.order), min(24, grp.order)))
            want = [closure(grp.ambient, (grp.elements[a], grp.elements[b])).order
                    == grp.order for b in bs.tolist()]
            assert _generates(coords, grp.p, a, bs).tolist() == want, name
