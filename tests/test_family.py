"""Family construction and clause-by-clause structural verification."""

import dataclasses
import sys

import numpy as np
import pytest

from mipverify import family as family_mod
from mipverify import groups as groups_mod
from mipverify import isomorphism as isomorphism_mod
from mipverify.ambient import (AmbientDescriptor, TWO_GENERATOR_VARIANTS,
                               make_ambient)
from mipverify.cli import main
from mipverify.family import (FamilyInstance, build_family, compare_variants,
                              verify_structure)
from mipverify.groups import closure, derived_subgroup, maximal_subgroups
from mipverify.invariants import abelian_type
from mipverify.tables import semidirect_c9c9_table, wreath_cyclic_table

from conftest import (coordinate_box, dict_closure, intersection,
                      power_frattini, ref_order)

CLAUSE_IDS = ["orders", "derived-and-class", "frattini", "m-abelian-maximal",
              "g-meet-m", "h-meet-m", "exponent-gap-non-isomorphic"]


def test_build_family_shapes(inst433):
    assert inst433.params == (2, "dihedral", 4, 3, 3)
    assert inst433.ambient.order == 2048
    assert inst433.G.order == 512
    assert inst433.H.order == 512
    amb = inst433.ambient
    assert ref_order(amb, inst433.x) == 16
    assert ref_order(amb, inst433.y) == 8
    assert ref_order(amb, inst433.z) == 8
    # the two groups share the generator x inside the same ambient
    assert inst433.x in inst433.G and inst433.x in inst433.H


def test_generator_constructions(inst433):
    amb = inst433.ambient
    named = inst433.named
    t, s, r, c, d = (named[k] for k in ("t", "s", "r", "c", "d"))
    assert r == amb.mul(t, s)
    assert inst433.x == amb.mul(t, c)
    assert inst433.y == amb.mul(s, d)
    assert inst433.z == amb.mul(r, d)


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        build_family(2, "dihedral", 3, 3, 3)  # needs n > m
    with pytest.raises(ValueError):
        build_family(2, "dihedral", 4, 3, 2)  # needs k >= 3
    with pytest.raises(ValueError):
        build_family(2, "table", 4, 3, 3)  # 2-case needs a named kind


def test_verify_structure_all_clauses(inst433):
    report = verify_structure(inst433)
    assert [c.id for c in report.clauses] == CLAUSE_IDS
    assert report.ok and report.clauses.first_failing is None
    data = {c.id: c.data for c in report.clauses}
    assert data["orders"]["order_g"] == 512
    assert (data["orders"]["order_p"], data["orders"]["order_m"]) == (2048, 1024)
    assert data["derived-and-class"]["derived_order"] == 4
    assert data["derived-and-class"]["class_g"] == 3
    assert data["frattini"]["frattini_order"] == 128  # 4 * 8 * 4
    gap = data["exponent-gap-non-isomorphic"]
    assert gap["exp_g_meet_m"] == 16 and gap["exp_h_meet_m"] == 8
    assert gap["unique_abelian_maximal"] is True
    assert gap["oracle_ran"] is True and gap["oracle_non_isomorphic"] is True


def test_exponent_gap_at_5_3_3_and_5_4_3():
    for (n, m, k), order in (((5, 3, 3), 1024), ((5, 4, 3), 2048)):
        inst = build_family(2, "dihedral", n, m, k)
        assert inst.G.order == order and inst.H.order == order
        report = verify_structure(inst)
        assert report.ok, report.clauses.first_failing
        gap = {c.id: c.data for c in report.clauses}["exponent-gap-non-isomorphic"]
        assert gap["exp_g_meet_m"] == 2 ** n
        assert gap["exp_h_meet_m"] == 2 ** (n - 1)


def test_g_meet_m_type(inst433):
    M = coordinate_box(inst433.ambient, lead=1)
    gm = intersection(inst433.G, M)
    assert gm.order == 256
    assert abelian_type(gm) == (16, 4, 4)
    hm = intersection(inst433.H, M)
    assert hm.order == 256
    assert abelian_type(hm) == (8, 8, 4)


def test_structure_detects_tampering(inst433):
    # swap G for H: the G-specific clauses must fail, the shared ones hold
    import dataclasses
    tampered = dataclasses.replace(inst433, G=inst433.H)
    report = verify_structure(tampered)
    assert not report.ok
    failing = [c.id for c in report.clauses if not c.passed]
    assert failing == ["g-meet-m", "exponent-gap-non-isomorphic"]


def test_verify_structure_rejects_odd_instance():
    inst = build_family(3, "heisenberg", 2, 1, 1)
    with pytest.raises(ValueError):
        verify_structure(inst)


def test_compare_variants_433():
    report = compare_variants(build_family(2, "dihedral", 4, 3, 3))
    assert report.ok
    data = {c.id: c.data for c in report.clauses}
    assert data["g-variants-isomorphic"] == {
        "dihedral-vs-semidihedral": True, "dihedral-vs-quaternion": True,
        "semidihedral-vs-quaternion": True}
    assert data["h-variants-isomorphic"] == {
        "dihedral-vs-semidihedral": True, "dihedral-vs-quaternion": True,
        "semidihedral-vs-quaternion": True}
    assert data["g-vs-h-control"] == {"g_abelian_maximal_exponents": [16],
                                      "h_abelian_maximal_exponents": [8]}
    assert all(data["presentation-witnesses"].values())


def _control_exponents(group):
    return sorted(sub.exponent() for sub in groups_mod.abelian_maximal_subgroups(group))


@pytest.mark.parametrize("nmk", [(4, 3, 3), (5, 4, 3)], ids=["433", "543"])
def test_control_invariant_carries_weight(nmk):
    """The control's exponent lists agree on isomorphic groups (the three
    variants' G's, and their H's) and differ for G and H; with H replaced
    by G the control fails."""
    n = nmk[0]
    exponents = set()
    for variant in TWO_GENERATOR_VARIANTS:
        inst = build_family(2, variant, *nmk)
        exponents.add((tuple(_control_exponents(inst.G)),
                       tuple(_control_exponents(inst.H))))
    assert exponents == {((2 ** n,), (2 ** (n - 1),))}

    inst = build_family(2, "dihedral", *nmk)
    h_is_g = dataclasses.replace(inst, H=inst.G)
    control = {c.id: c for c in compare_variants(h_is_g).clauses}["g-vs-h-control"]
    assert not control.passed
    assert control.data == {"g_abelian_maximal_exponents": [2 ** n],
                            "h_abelian_maximal_exponents": [2 ** n]}


def test_compare_variants_654_needs_no_table_and_no_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the brute-force oracle was called")

    monkeypatch.setattr(groups_mod, "TABLE_BUDGET_BYTES", 0)
    monkeypatch.setattr(isomorphism_mod, "isomorphic_bruteforce", refuse)
    report = compare_variants(build_family(2, "dihedral", 6, 5, 4))
    assert report.ok, report.clauses.first_failing
    assert {c.id: c.data for c in report.clauses}["g-vs-h-control"] == {
        "g_abelian_maximal_exponents": [64], "h_abelian_maximal_exponents": [32]}


def test_compare_variants_builds_only_the_controls_table(monkeypatch):
    """The variant isomorphisms come from relations on rows and the G-vs-H
    control from maximal subgroups: no Cayley table is built."""
    built = []
    cayley_table = groups_mod.FiniteGroup.cayley_table

    def counting(group):
        if group._table is None:
            built.append(group.generators)
        return cayley_table(group)

    monkeypatch.setattr(groups_mod.FiniteGroup, "cayley_table", counting)
    assert compare_variants(build_family(2, "dihedral", 5, 4, 3)).ok
    assert built == []


def test_odd_heisenberg_instance():
    inst = build_family(3, "heisenberg", 2, 1, 1)
    assert inst.p == 3
    assert inst.ambient.order == 729
    assert inst.G.order == 81
    assert inst.H is None and inst.z is None
    der = derived_subgroup(inst.G)
    assert der.order == 3


def test_odd_wreath_and_semidirect_instances():
    wt, wg = wreath_cyclic_table(3)
    inst = build_family(3, "table", 2, 1, 1, table=wt, table_generators=wg)
    assert inst.ambient.order == 2187 and inst.G.order == 243
    assert derived_subgroup(inst.G).order == 9
    st, sg = semidirect_c9c9_table()
    inst2 = build_family(3, "table", 1, 1, 1, table=st, table_generators=sg)
    assert inst2.ambient.order == 2187 and inst2.G.order == 243
    assert derived_subgroup(inst2.G).order == 27


def test_odd_base_hypotheses_enforced():
    # C27 is cyclic: class 1, not the maximal class 2 required at order p^3
    amb = make_ambient(3, "heisenberg", 1, 3, 1)
    C27 = closure(amb, [amb.standard_generators()["c"]])
    table = C27.cayley_table()
    with pytest.raises(ValueError):
        build_family(3, "table", 1, 1, 1, table=table, table_generators=(1,))


def test_abelian_odd_base_with_a_redundant_generator_pair():
    """C9 given by its table with the generator pair (1, 3): abelian, so
    its maximal subgroup is abelian, and no Frattini coordinates are read
    (3 is a power of 1, so the pair is no basis of C9/Phi)."""
    table = [[(i + j) % 9 for j in range(9)] for i in range(9)]
    inst = build_family(3, "table", 1, 1, 1, table=table, table_generators=(1, 3))
    assert inst.ambient.order == 9 * 3 * 3 and inst.G.order == 27
    assert derived_subgroup(inst.G).order == 1


def test_odd_requires_positive_parameters():
    with pytest.raises(ValueError):
        build_family(3, "heisenberg", 0, 1, 1)


def test_structure_654_builds_no_table(monkeypatch):
    """The group layer answers every clause at (6,5,4) without a Cayley table
    (the brute-force oracle stays off above its bound)."""
    monkeypatch.setattr(groups_mod, "TABLE_BUDGET_BYTES", 0)
    report = verify_structure(build_family(2, "dihedral", 6, 5, 4))
    assert report.ok
    data = {c.id: c.data for c in report.clauses}
    gap = data["exponent-gap-non-isomorphic"]
    assert (gap["exp_g_meet_m"], gap["exp_h_meet_m"]) == (64, 32)
    assert gap["oracle_ran"] is False


def test_verify_structure_computes_frattini_once_per_group(monkeypatch):
    """Phi(G) and Phi(H) are each computed once: clause (iii) and the
    maximal subgroups of G and H share them.  Phi(P) is a normal closure
    under P's generators; P is no group."""
    inst = build_family(2, "dihedral", 4, 3, 3)
    computed_for = []
    frattini = groups_mod.frattini

    def counting(group):
        if group._frattini is None:
            computed_for.append(group)
        return frattini(group)
    monkeypatch.setattr(groups_mod, "frattini", counting)
    monkeypatch.setattr(family_mod, "frattini", counting)
    assert verify_structure(inst).ok
    assert sorted(map(id, computed_for)) == sorted(map(id, (inst.G, inst.H)))


def test_verify_structure_labels_no_orbits(monkeypatch):
    """The structure report reads its Frattini coordinates off the words
    of G and H: no orbit labelling runs for them.  The one labelling is the
    conjugacy classes of H, where the isomorphism oracle takes the image of
    G's first generator; above the oracle's bound there is none."""
    orbit_minima = groups_mod._orbit_minima
    runs = []

    def counting(*args, **kwargs):
        runs.append(sys._getframe(1).f_code.co_name)
        return orbit_minima(*args, **kwargs)
    monkeypatch.setattr(groups_mod, "_orbit_minima", counting)
    for nmk, want in (((4, 3, 3), ["conjugacy_classes"]), ((6, 5, 4), [])):
        inst = build_family(2, "dihedral", *nmk)
        runs.clear()
        assert verify_structure(inst).ok
        assert runs == want, nmk


def test_abelian_maximal_scan_is_cached_per_group(monkeypatch):
    """The abelian maximal subgroups are the abelian entries of
    maximal_subgroups, scanned once per group."""
    inst = build_family(2, "dihedral", 4, 3, 3)
    want = [sub for sub in maximal_subgroups(inst.G) if sub.is_abelian()]
    scans = []
    scan = groups_mod.maximal_subgroups

    def counting(group):
        scans.append(group)
        return scan(group)
    monkeypatch.setattr(groups_mod, "maximal_subgroups", counting)
    first = groups_mod.abelian_maximal_subgroups(inst.G)
    assert [sub.keys().tolist() for sub in first] == [sub.keys().tolist() for sub in want]
    assert len(first) == 1
    again = groups_mod.abelian_maximal_subgroups(inst.G)
    assert [id(sub) for sub in again] == [id(sub) for sub in first]
    assert scans == [inst.G]


@pytest.mark.parametrize("variant", TWO_GENERATOR_VARIANTS)
def test_variants_reuse_the_structure_instance(variant, monkeypatch):
    """Given the instance the structure report read, compare_variants closes
    G and H only for the two other kinds and scans no maximal subgroups of
    the lent groups again; the report is unchanged."""
    want = compare_variants(build_family(2, "dihedral", 4, 3, 3)).as_dict()
    inst = build_family(2, variant, 4, 3, 3)
    assert verify_structure(inst).ok
    closed, scanned = [], []
    scan = groups_mod.maximal_subgroups

    def closing(p, v, *args, **kwargs):
        closed.append(v)
        return build_family(p, v, *args, **kwargs)

    def scanning(group):
        scanned.append(group)
        return scan(group)
    monkeypatch.setattr(family_mod, "build_family", closing)
    monkeypatch.setattr(groups_mod, "maximal_subgroups", scanning)
    assert compare_variants(inst).as_dict() == want
    assert closed == [v for v in TWO_GENERATOR_VARIANTS if v != variant]
    # the control scans the dihedral G and H, unless they are the lent ones,
    # whose scans the structure report cached
    assert not any(group is inst.G or group is inst.H for group in scanned)
    assert len(scanned) == (0 if variant == "dihedral" else 2)


@pytest.mark.parametrize("variant", TWO_GENERATOR_VARIANTS)
@pytest.mark.parametrize("nmk", [(4, 3, 3), (5, 4, 3)], ids=["433", "543"])
def test_structure_reads_p_and_m_like_the_coordinate_box(nmk, variant, monkeypatch):
    """The report reads P and M off the ambient's normal form; its P',
    Phi(P), |M|, "M is abelian" and meets with M equal those of the
    enumerated coordinate boxes.  The boxes hold the elements of P =
    <t, r, c, d> and M = <r, c, d>, and their words are right: read along
    their own right columns from every element, they give arange."""
    inst = build_family(2, variant, *nmk)
    amb, named = inst.ambient, inst.named
    box, half = coordinate_box(amb), coordinate_box(amb, lead=1)
    for grp, gens in ((box, "trcd"), (half, "rcd")):
        want = dict_closure(amb, [named[g] for g in gens])
        assert grp.element_set() == frozenset(want.elements)
        assert grp.generators == tuple(named[g] for g in gens)
        columns = np.array(grp.right_columns(grp.generators))
        assert np.array_equal(grp.transport(columns, np.int32(0)), np.arange(grp.order))
    closed, wrapped = [], []
    normal_closure, wrap = family_mod.normal_closure, family_mod.subgroup_from_elements

    def closing(*args, **kwargs):
        closed.append(normal_closure(*args, **kwargs))
        return closed[-1]

    def wrapping(*args, **kwargs):
        wrapped.append(wrap(*args, **kwargs))
        return wrapped[-1]
    monkeypatch.setattr(family_mod, "normal_closure", closing)
    monkeypatch.setattr(family_mod, "subgroup_from_elements", wrapping)
    report = verify_structure(inst)
    assert report.ok
    data = {c.id: c.data for c in report.clauses}
    derived, frat = closed
    assert np.array_equal(derived.keys(), derived_subgroup(box).keys())
    assert np.array_equal(frat.keys(), power_frattini(box).keys())
    assert data["orders"]["order_p"] == box.order
    assert data["m-abelian-maximal"] == {"order_m": half.order,
                                         "abelian": bool(half.central_mask().all())}
    assert data["m-abelian-maximal"]["abelian"] is True
    for got, grp in zip(wrapped, (inst.G, inst.H)):
        assert np.array_equal(got.keys(), intersection(grp, half).keys())


class _CarryIntoC(AmbientDescriptor):
    """A broken two-generator law: e1 & e2 is added into the C coordinate,
    so t^2 = c and K = <t, ts> leaves K x 1 x 1."""

    def mul_array(self, lefts, rights):
        out = super().mul_array(lefts, rights)
        out[:, 2] = (out[:, 2] + (lefts[:, 0] & rights[:, 0])) % self.radices[2]
        return out


class _ShortC(AmbientDescriptor):
    """A broken two-generator law: the C coordinate wraps at half its
    radix, so c's order comes out short."""

    def mul_array(self, lefts, rights):
        out = super().mul_array(lefts, rights)
        out[:, 2] %= self.radices[2] // 2
        return out


@pytest.mark.parametrize("broken", [_CarryIntoC, _ShortC], ids=["carry-into-c", "short-c"])
def test_structure_refuses_an_ambient_without_the_normal_form(broken, inst433):
    """The report reads |P|, |M|, P', Phi(P) and the meets with M off the
    normal form t^e r^i c^a d^b, so an ambient whose law breaks it is
    refused with RuntimeError (exit 4) before any clause is read."""
    amb = inst433.ambient
    copy = broken(**{f.name: getattr(amb, f.name) for f in dataclasses.fields(amb)})
    with pytest.raises(RuntimeError, match="not the product of t"):
        verify_structure(dataclasses.replace(inst433, ambient=copy))


def test_witness_invariants_export_never_close_p_or_m(monkeypatch, tmp_path):
    """An instance has no P or M, and every command, the structure report
    with and without --variants too, runs to exit 0 and closes nothing
    larger than G, in the family module or the group layer."""
    assert not hasattr(FamilyInstance, "P") and not hasattr(FamilyInstance, "M")
    orders = []

    def recording(closing):
        def closed(*args, **kwargs):
            group = closing(*args, **kwargs)
            orders.append(group.order)
            return group
        return closed
    monkeypatch.setattr(family_mod, "closure", recording(family_mod.closure))
    monkeypatch.setattr(groups_mod, "closure", recording(groups_mod.closure))
    out = str(tmp_path / "report.json")
    nmk = ["--n", "4", "--m", "3", "--k", "3"]
    odd = ["--p", "3", "--n", "2", "--m", "1", "--k", "1"]
    runs = [(["witness", *nmk], 512),
            (["witness", *nmk, "--beta", "general", "--zeta", "class-sum"], 512),
            (["invariants", *nmk, "--pair"], 512),
            (["invariants", *odd, "--variant", "c9c9"], 729),
            (["invariants", *odd], 81),
            (["export", *nmk, "--outdir", str(tmp_path / "export")], 512),
            (["family", *nmk], 512),
            (["family", *nmk, "--variants"], 512)]
    for argv, order_g in runs:
        orders.clear()
        assert main([*argv, "--output", out]) == 0, argv
        assert max(orders) == order_g, argv
