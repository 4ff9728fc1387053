"""Algebra-determined invariant reports and their frozen values."""

import sys
from collections import Counter

import pytest

from mipverify import groups as groups_mod
from mipverify.algebra import FpMatrix, GroupAlgebra
from mipverify.ambient import make_ambient
from mipverify.family import build_family
from mipverify.groups import (closure, derived_subgroup, generated_subgroup,
                              maximal_subgroups)
from mipverify.invariants import (abelian_type, compute_N, ideal_subring_dim,
                                  invariant_report, reports_invariant_equal)
from mipverify.tables import semidirect_c9c9_table, wreath_cyclic_table

from conftest import (abelian_type_census_check, coordinate_box,
                      dense_ideal_dims, eliminated_ideal_dims, intersection,
                      pairwise_class_sum_count, power_frattini,
                      table_conjugacy_classes)


@pytest.fixture(scope="module")
def reports433(inst433, FG433, FH433):
    return (invariant_report(inst433.G, FG433, "G"),
            invariant_report(inst433.H, FH433, "H"))


def test_abelian_type_known_values(catalog):
    groups = dict(catalog)
    assert abelian_type(groups["C8"]) == (8,)
    assert abelian_type(groups["V4"]) == (2, 2)
    assert abelian_type(groups["C8xC2"]) == (8, 2)
    assert abelian_type(groups["C9"]) == (9,)
    assert abelian_type(groups["C3xC3"]) == (3, 3)
    assert abelian_type(groups["C2"]) == (2,)


def test_abelian_type_vs_census_oracle(catalog):
    for name, grp in catalog:
        if grp.is_abelian():
            assert abelian_type_census_check(grp, abelian_type(grp)), name


def test_abelian_type_rejects_nonabelian(catalog):
    with pytest.raises(ValueError):
        abelian_type(dict(catalog)["D8"])


def test_abelian_type_trivial():
    amb = make_ambient(2, "dihedral", 3, 1, 1)
    triv = closure(amb, [amb.identity])
    assert abelian_type(triv) == ()


def test_compute_n_two_case(inst433):
    NG = compute_N(inst433.G)
    assert NG.order == inst433.G.order  # derived subgroup is central mod Phi
    NH = compute_N(inst433.H)
    assert NH.order == inst433.H.order


def test_compute_n_abelian(catalog):
    C8 = dict(catalog)["C8"]
    assert compute_N(C8).element_set() == C8.element_set()


def test_report_433_frozen_values(reports433):
    rg, rh = reports433
    for rep in (rg, rh):
        assert rep.p == 2
        assert rep.group_order == 512
        assert rep.n_order == 512 and rep.n_index == 1
        assert not rep.n_abelian
        assert rep.bjz_factors == (4, 8, 1, 8, 1, 1, 1, 2)
        assert rep.ideal_dims == (511, 511)
        assert rep.class_sum_pth_power_count == 16
        assert rep.phi_minus_zn == 64 and rep.phi_minus_zg == 64
        assert rep.abelian_type_n is None
        assert rep.class_size_census == ((2, 32),)
        assert rep.proposition_inapplicable is True


def test_reports_equal_g_h(reports433):
    rg, rh = reports433
    assert reports_invariant_equal(rg, rh)
    assert reports_invariant_equal(rg, rg)


def test_sehgal_census_is_generator_diagnostic(reports433):
    rg, rh = reports433
    # the per-generator census legitimately differs between G and H ...
    assert rg.sehgal_census != rh.sehgal_census
    gy = rg.sehgal_census[1]
    hz = rh.sehgal_census[1]
    assert gy["p_th_power_central"] is True
    assert hz["p_th_power_central"] is False
    assert hz["centralizer_index"] == 2 and hz["index_equals_p"] is True
    # ... and is therefore excluded from the equality contract (see above)


def test_reports_not_equal_to_abelian_512(reports433):
    amb = make_ambient(2, "dihedral", 3, 9, 1)
    C512 = closure(amb, [amb.standard_generators()["c"]])
    r512 = invariant_report(C512, GroupAlgebra(C512), "C512")
    assert not reports_invariant_equal(reports433[0], r512)


def test_reports_cross_prime_rejected(reports433, catalog):
    C9 = dict(catalog)["C9"]
    r9 = invariant_report(C9, GroupAlgebra(C9), "C9")
    with pytest.raises(ValueError):
        reports_invariant_equal(reports433[0], r9)


def test_ideal_subring_dims_433(inst433, FG433):
    NG = compute_N(inst433.G)
    dims = ideal_subring_dim(FG433, NG)
    assert dims == (511, 511)  # N = G, so I(N) is the whole augmentation ideal


def _ideal_dim_subgroups(G):
    """N = C_G(G'/Phi(G')), N = G' and the first maximal subgroup other than
    N: each contains G'."""
    N = compute_N(G)
    other = next(M for M in maximal_subgroups(G)
                 if M.element_set() != N.element_set())
    return {"N": N, "derived": derived_subgroup(G), "maximal": other}


def _closed_form(G, N):
    der = derived_subgroup(G)
    return (N.order - 1,
            G.order - G.order // der.order + N.order // der.order - 1)


def _odd_base(base):
    if base == "heisenberg":
        return build_family(3, "heisenberg", 2, 1, 1).G
    table, gens = (wreath_cyclic_table(3) if base == "wreath"
                   else semidirect_c9c9_table())
    return build_family(3, "table", 2, 1, 1, table=table,
                        table_generators=gens).G


@pytest.fixture(scope="module", params=["G-433", "H-433", "heisenberg",
                                        "wreath"])
def small_ideal_case(request, inst433):
    if request.param.endswith("433"):
        return getattr(inst433, request.param[0])
    return _odd_base(request.param)


def test_ideal_dims_closed_form_matches_both_eliminations(small_ideal_case):
    G = small_ideal_case
    FG = GroupAlgebra(G)
    for name, N in _ideal_dim_subgroups(G).items():
        dims = ideal_subring_dim(FG, N)
        assert dims == _closed_form(G, N), name
        assert dims == eliminated_ideal_dims(FG, N), name
        assert dims == dense_ideal_dims(G, N), name


def test_ideal_dims_closed_form_matches_dense_elimination_c9c9():
    """The benchmark's c9c9 base at (2,1,1), where FpMatrix is too slow."""
    G = _odd_base("c9c9")
    FG = GroupAlgebra(G)
    subgroups = _ideal_dim_subgroups(G)
    assert G.order == 729 and derived_subgroup(G).order == 27
    assert subgroups["N"].order == 243
    for name, N in subgroups.items():
        dims = ideal_subring_dim(FG, N)
        assert dims == _closed_form(G, N) == dense_ideal_dims(G, N), name
    assert ideal_subring_dim(FG, subgroups["N"]) == (242, 710)


def test_ideal_dims_reject_n_without_derived_subgroup(inst433, FG433):
    G = inst433.G
    trivial = closure(G.ambient, [G.identity])
    cyclic = closure(G.ambient, [G.generators[0]])
    for N in (trivial, cyclic):
        assert not derived_subgroup(G).element_set() <= N.element_set()
        with pytest.raises(ValueError, match="derived subgroup"):
            ideal_subring_dim(FG433, N)
    outside = closure(inst433.ambient, [inst433.named["c"]])
    with pytest.raises(ValueError, match="subgroup of the algebra's group"):
        ideal_subring_dim(FG433, outside)


def test_ideal_dims_543_pair_golden():
    """The benchmark's (5,4,3) pair: N = G, so both dimensions are |G| - 1."""
    inst = build_family(2, "dihedral", 5, 4, 3)
    for G in (inst.G, inst.H):
        rep = invariant_report(G, GroupAlgebra(G))
        assert rep.group_order == 2048 and rep.n_order == 2048
        assert rep.ideal_dims == (2047, 2047)


def test_report_543_pair_builds_no_table(monkeypatch):
    """The (5,4,3) reports, golden field by field, with no Cayley table."""
    monkeypatch.setattr(groups_mod, "TABLE_BUDGET_BYTES", 0)
    inst = build_family(2, "dihedral", 5, 4, 3)
    common = {
        "p": 2, "group_order": 2048,
        "n": {"order": 2048, "abelian": False, "index": 1},
        "bjz_factors": [4, 8, 1, 8, 1, 1, 1, 4, 1, 1, 1, 1, 1, 1, 1, 2],
        "ideal_dims": [2047, 2047], "class_sum_pth_power_count": 64,
        "phi_minus_zn": 256, "phi_minus_zg": 256, "abelian_type_n": None,
        "class_size_census": [[2, 128]], "proposition_inapplicable": True}
    gen_a = {"generator": 0, "order": 32, "p_th_power_central": True,
             "centralizer_index": 4, "index_equals_p": None}
    sehgal = {"G": [gen_a, {"generator": 1, "order": 16,
                            "p_th_power_central": True,
                            "centralizer_index": 4, "index_equals_p": None}],
              "H": [gen_a, {"generator": 1, "order": 16,
                            "p_th_power_central": False,
                            "centralizer_index": 2, "index_equals_p": True}]}
    for name, G in (("G", inst.G), ("H", inst.H)):
        rep = invariant_report(G, GroupAlgebra(G), name).as_dict()
        assert rep == dict(common, identifier=name, sehgal_census=sehgal[name])


def test_derived_ideal_dimension_433(inst433, FG433):
    """dim I(G')F2G = |G| - [G : G'] from the coset-sum kernel description."""
    G = inst433.G
    der = derived_subgroup(G)
    mx = FpMatrix(2, FG433.dim)
    for w in der.elements:
        if w == G.identity:
            continue
        for g in G.elements:
            mx.add_row(FG433.embed(G.ambient.mul(w, g)) + FG433.embed(g))
    assert mx.rank() == G.order - G.order // der.order == 384


def test_abelian_control_report(catalog):
    C8 = dict(catalog)["C8"]
    rep = invariant_report(C8, GroupAlgebra(C8), "C8")
    assert rep.n_abelian and rep.n_index == 1
    assert rep.phi_minus_zn == 0 and rep.phi_minus_zg == 0
    assert rep.class_size_census == ()
    assert rep.abelian_type_n == (8,)
    assert rep.proposition_inapplicable is True


def test_heisenberg_report():
    inst = build_family(3, "heisenberg", 2, 1, 1)
    rep = invariant_report(inst.G, GroupAlgebra(inst.G), "heisenberg")
    assert rep.group_order == 81
    # the derived subgroup is central, so N = G: the index-p analysis is void
    assert rep.n_order == 81 and rep.n_index == 1 and not rep.n_abelian
    assert rep.proposition_inapplicable is True
    assert rep.bjz_factors == (9, 3, 3)
    assert rep.ideal_dims == (80, 80)
    assert rep.class_sum_pth_power_count == 1
    assert rep.class_size_census == ()


def test_wreath_report():
    wt, wg = wreath_cyclic_table(3)
    inst = build_family(3, "table", 2, 1, 1, table=wt, table_generators=wg)
    rep = invariant_report(inst.G, GroupAlgebra(inst.G), "wreath")
    assert rep.group_order == 243
    assert rep.n_order == 81 and rep.n_index == 3 and rep.n_abelian
    assert rep.abelian_type_n == (9, 3, 3)
    assert rep.bjz_factors == (27, 1, 3)
    assert rep.ideal_dims == (80, 224)
    assert rep.class_sum_pth_power_count == 1
    assert rep.phi_minus_zn == 0 and rep.phi_minus_zg == 0
    assert rep.class_size_census == ()
    assert rep.proposition_inapplicable is False


def test_semidirect_c9c9_report():
    st, sg = semidirect_c9c9_table()
    inst = build_family(3, "table", 1, 1, 1, table=st, table_generators=sg)
    rep = invariant_report(inst.G, GroupAlgebra(inst.G), "c9c9")
    assert rep.group_order == 243
    assert rep.n_order == 81 and rep.n_index == 3 and rep.n_abelian
    assert rep.abelian_type_n == (9, 9)
    assert rep.bjz_factors == (9, 1, 9)
    assert rep.ideal_dims == (80, 236)
    assert rep.class_sum_pth_power_count == 3
    assert rep.phi_minus_zn == 0 and rep.phi_minus_zg == 6
    assert rep.class_size_census == ((3, 2),)
    assert rep.proposition_inapplicable is False
    gen1 = rep.sehgal_census[1]
    assert gen1["order"] == 9
    assert gen1["p_th_power_central"] is False
    assert gen1["index_equals_p"] is True


def test_class_sum_count_matches_oracle_on_odd_trio():
    wt, wg = wreath_cyclic_table(3)
    st, sg = semidirect_c9c9_table()
    instances = [
        build_family(3, "heisenberg", 2, 1, 1),
        build_family(3, "table", 2, 1, 1, table=wt, table_generators=wg),
        build_family(3, "table", 1, 1, 1, table=st, table_generators=sg),
    ]
    for inst in instances:
        alg = GroupAlgebra(inst.G)
        assert alg.class_sum_pth_power_count() == pairwise_class_sum_count(alg)


@pytest.mark.parametrize("case", ["G-433", "H-433", "G-543", "H-543",
                                  "heisenberg", "wreath", "c9c9"])
def test_class_size_census_matches_table_oracle(case, inst433):
    """The census counts, by size, the classes of the Cayley table's
    conjugation orbits that lie in Phi(N) (by its definition G' G^p) and
    are not singletons, i.e. not in Z(G)."""
    if case.endswith("433"):
        G = getattr(inst433, case[0])
    elif case.endswith("543"):
        G = getattr(build_family(2, "dihedral", 5, 4, 3), case[0])
    else:
        G = _odd_base(case)
    in_phi = power_frattini(compute_N(G)).has_keys(G.keys())
    census = Counter(len(cls) for cls in table_conjugacy_classes(G)
                     if len(cls) > 1 and in_phi[cls[0]])
    report = invariant_report(G, GroupAlgebra(G))
    assert report.class_size_census == tuple(sorted(census.items()))


def test_g_meet_m_fields(inst433):
    gm = intersection(inst433.G, coordinate_box(inst433.ambient, lead=1))
    assert abelian_type(gm) == (16, 4, 4)
    assert abelian_type_census_check(gm, (16, 4, 4))


def test_conjugacy_classes_once_per_group(monkeypatch):
    """The report, the class sums, their p-th power count and the
    centralizer indices read one orbit computation of the classes."""
    inst = build_family(2, "dihedral", 4, 3, 3)
    FG = GroupAlgebra(inst.G)
    orbit_minima = groups_mod._orbit_minima
    runs = []

    def counting(*args, **kwargs):
        runs.append(sys._getframe(1).f_code.co_name)
        return orbit_minima(*args, **kwargs)
    monkeypatch.setattr(groups_mod, "_orbit_minima", counting)
    invariant_report(inst.G, FG)
    FG.class_sums()
    FG.class_sum_pth_power_count()
    assert runs == ["conjugacy_classes"]
