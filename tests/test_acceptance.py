"""Acceptance checks: one test (and one printed line) per numbered criterion.

Criterion 6 checks the closed form of beta^(2^(m-1)) whose final bracket
term is d^(2^(m-1)), and pins where the variant ending in z^(2^(m-1)) holds
(exactly when m - 1 >= k).  Criterion 7 checks N = C_G(G'/Phi(G')) against
a naive set-based centralizer on the Heisenberg base, where G' is central
and N = G, and on the (C9xC9):C3 base, where N is abelian of index 3.
"""

import json
import random
import subprocess
import sys
import time

import pytest

from mipverify.algebra import GroupAlgebra, is_unit
from mipverify.family import build_family, compare_variants, verify_structure
from mipverify.groups import derived_subgroup, jennings_factor_orders
from mipverify.invariants import abelian_type, compute_N, invariant_report
from mipverify.isomorphism import isomorphic_bruteforce
from mipverify.tables import semidirect_c9c9_table, wreath_cyclic_table
from mipverify.witness import build_beta, build_beta_k3, verify_witness

from conftest import (abelian_type_census_check, algebra_unit_recognition,
                      aug_quotient_dims, coordinate_box, intersection,
                      jennings_dimension_polynomial,
                      naive_derived_centralizer, naive_product,
                      pairwise_class_sum_count, ref_comm,
                      regular_rep_is_unit)


acceptance_lines: list = []


def _line(num: int, passed: bool, detail: str) -> None:
    text = f"criterion {num}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(text)
    acceptance_lines.append(text)


def test_criterion_1_structure_433(inst433):
    t0 = time.monotonic()
    report = verify_structure(inst433)
    data = {c.id: c.data for c in report.clauses}
    der_g = derived_subgroup(inst433.G)
    der_h = derived_subgroup(inst433.H)
    checks = {
        "orders": inst433.G.order == 512 and inst433.H.order == 512,
        "derived": der_g.order == 4 and der_h.order == 4
                   and der_g.exponent() == 4 and der_h.exponent() == 4,
        "class": data["derived-and-class"]["class_g"] == 3
                 and data["derived-and-class"]["class_h"] == 3,
        "frattini": next(c.passed for c in report.clauses
                         if c.id == "frattini"),
        "gap": data["exponent-gap-non-isomorphic"]["exp_g_meet_m"] == 16
               and data["exponent-gap-non-isomorphic"]["exp_h_meet_m"] == 8,
        "invariant-route": data["exponent-gap-non-isomorphic"]
                           ["unique_abelian_maximal"] is True,
        "oracle-route": data["exponent-gap-non-isomorphic"]
                        ["oracle_non_isomorphic"] is True
                        and not isomorphic_bruteforce(inst433.G, inst433.H),
        "all-clauses": report.ok,
    }
    elapsed = time.monotonic() - t0
    ok = all(checks.values()) and elapsed < 10
    _line(1, ok, f"structure at (4,3,3): orders 512, derived cyclic of "
                 f"order 4, class 3, shared Frattini, exponent gap 16 vs 8, "
                 f"non-isomorphic by both routes [{elapsed:.1f}s]")
    assert all(checks.values()), checks
    assert elapsed < 10


def test_criterion_2_structure_533_543():
    t0 = time.monotonic()
    results = {}
    for (n, m, k), order in (((5, 3, 3), 2 ** 10), ((5, 4, 3), 2 ** 11)):
        inst = build_family(2, "dihedral", n, m, k)
        report = verify_structure(inst)
        gap = {c.id: c.data for c in report.clauses}[
            "exponent-gap-non-isomorphic"]
        results[(n, m, k)] = (inst.G.order == order
                              and inst.H.order == order
                              and gap["exp_g_meet_m"] == 2 ** n
                              and gap["exp_h_meet_m"] == 2 ** (n - 1)
                              and report.ok)
    elapsed = time.monotonic() - t0
    ok = all(results.values()) and elapsed < 60
    _line(2, ok, f"structure at (5,3,3) order 2^10 and (5,4,3) order 2^11 "
                 f"with exponent gap 2^n vs 2^(n-1) [{elapsed:.1f}s]")
    assert all(results.values()), results
    assert elapsed < 60


def test_criterion_3_witness_certificate(inst433, FG433, FH433):
    t0 = time.monotonic()
    beta = build_beta(FH433, inst433.x, inst433.z)
    cert = verify_witness(FG433, FH433, beta, (4, 3, 3), exhaustive=True)
    data = {c.id: c.data for c in cert.clauses}
    checks = {
        "valid": cert.valid,
        "beta-order-8": cert.beta_order == 8,
        "square-central": data["beta-square-central"]["fixed_by_x"] is True,
        "closure-512": data["closure-size"]["size"] == 512,
        "recognition": algebra_unit_recognition(
            FH433, inst433.G.order, FH433.embed(inst433.x), beta, 4, 3, 3)[0],
        "spanning-512": cert.rank == 512,
        "independent-mod-a2": data["independent-mod-a2"]["x_outside"]
                              and data["independent-mod-a2"]["beta_outside"],
        "exhaustive-pairs": data["basis-transport"]["pairs"] == 512 * 512
                            and data["basis-transport"]["mismatches"] == 0,
    }
    elapsed = time.monotonic() - t0
    ok = all(checks.values()) and elapsed < 300
    _line(3, ok, f"witness 1 + x(1+z) at (4,3,3): valid certificate with "
                 f"exhaustive multiplicativity over 512^2 pairs [{elapsed:.1f}s]")
    assert all(checks.values()), checks
    assert elapsed < 300


def test_criterion_4_k3_witness(inst433, FG433, FH433):
    t0 = time.monotonic()
    d_sq = inst433.ambient.power(inst433.named["d"], 2)
    beta = build_beta_k3(FH433, inst433.x, inst433.z, d_sq, 3)
    cert = verify_witness(FG433, FH433, beta, (4, 3, 3), exhaustive=True)
    elapsed = time.monotonic() - t0
    ok = cert.valid and elapsed < 300
    _line(4, ok, f"k3-variant witness d^2 + zx[z,x](1+z) at (4,3,3): "
                 f"valid certificate [{elapsed:.1f}s]")
    assert cert.valid, cert.clauses.first_failing
    assert elapsed < 300


def test_criterion_5_ambient_variants(inst433):
    t0 = time.monotonic()
    report = compare_variants(build_family(2, "dihedral", 4, 3, 3))
    data = {c.id: c.data for c in report.clauses}
    g_ok = all(data["g-variants-isomorphic"].values())
    h_ok = all(data["h-variants-isomorphic"].values())
    control = (data["g-vs-h-control"] == {"g_abelian_maximal_exponents": [16],
                                          "h_abelian_maximal_exponents": [8]}
               and not isomorphic_bruteforce(inst433.G, inst433.H))
    elapsed = time.monotonic() - t0
    ok = g_ok and h_ok and control and report.ok and elapsed < 300
    _line(5, ok, f"dihedral/semidihedral/quaternion variants: pairwise "
                 f"isomorphic G's and H's (defining relations), G vs H control "
                 f"non-isomorphic by both routes (abelian maximal exponents "
                 f"16 vs 8, oracle) [{elapsed:.1f}s]")
    assert g_ok and h_ok and control and report.ok
    assert elapsed < 300


def _power_closed_form(inst, FH, j, final):
    """1 + x^e (1 + z^(e/2) (1 + (st)^e) + final^e) with e = 2^j."""
    H = FH.group
    st = inst.ambient.mul(inst.named["s"], inst.named["t"])
    e = 2 ** j
    one = FH.one()
    inner = one + FH.embed(H.ambient.power(st, e))
    zpart = FH.embed(H.ambient.power(inst.z, e // 2)) * inner
    bracket = one + zpart + FH.embed(H.ambient.power(final, e))
    return one + FH.embed(H.ambient.power(inst.x, e)) * bracket


def test_criterion_6_power_closed_form():
    # z^x = z (st)^2 and z^2 (st)^2 = d^2 give beta^2 = 1 + x^2 (1 + z (1 +
    # (st)^2) + d^2); squaring is additive on F2[M], which lifts this to
    # every 2^j.  Since z^(2^j) = r^(2^j) d^(2^j) and r has order 2^k, the
    # z-final variant agrees exactly when j >= k.
    results = {}
    for n, m, k in ((4, 3, 3), (5, 4, 3)):
        inst = build_family(2, "dihedral", n, m, k)
        FH = GroupAlgebra(inst.H)
        beta = build_beta(FH, inst.x, inst.z)
        power = beta ** (2 ** (m - 1))
        results[(n, m, k)] = {
            "d_form": power == _power_closed_form(
                inst, FH, m - 1, inst.named["d"]),
            "z_form": power == _power_closed_form(inst, FH, m - 1, inst.z),
            "collapse": beta ** (2 ** m) == FH.one(),
            "z_expected": m - 1 >= k,
        }
    ok = all(r["d_form"] and r["collapse"] and r["z_form"] == r["z_expected"]
             for r in results.values())
    detail = "; ".join(
        f"({n},{m},{k}) d-final form {'holds' if r['d_form'] else 'FAILS'}, "
        f"z-final form {'holds' if r['z_form'] else 'fails'} "
        f"(m-1 {'>=' if r['z_expected'] else '<'} k), "
        f"beta^(2^m) {'=' if r['collapse'] else '!='} 1"
        for (n, m, k), r in results.items())
    _line(6, ok, f"beta^(2^(m-1)) closed form: {detail}")
    for params, r in results.items():
        assert r["d_form"], params
        assert r["collapse"], params
        assert r["z_form"] == r["z_expected"], params


def test_criterion_7_heisenberg_centralizer_structure():
    t0 = time.monotonic()
    heis = build_family(3, "heisenberg", 2, 1, 1)
    G = heis.G
    der = derived_subgroup(G)
    der_central = all(ref_comm(heis.ambient, g, w) == G.identity
                      for g in G.elements for w in der.elements)
    heis_n = compute_N(G)
    st, sg = semidirect_c9c9_table()
    comp = build_family(3, "table", 1, 1, 1, table=st, table_generators=sg)
    comp_n = compute_N(comp.G)
    checks = {
        "heisenberg-derived-central": der_central,
        "heisenberg-n-is-g": heis_n.order == G.order
                             and not heis_n.is_abelian(),
        "heisenberg-oracle": heis_n.element_set() == naive_derived_centralizer(G),
        "c9c9-n-abelian-index-3": comp_n.is_abelian()
                                  and comp.G.order // comp_n.order == 3,
        "c9c9-oracle": comp_n.element_set()
                       == naive_derived_centralizer(comp.G),
    }
    elapsed = time.monotonic() - t0
    ok = all(checks.values()) and elapsed < 60
    oracle_ok = checks["heisenberg-oracle"] and checks["c9c9-oracle"]
    _line(7, ok, f"p = 3 centralizer N = C_G(G'/Phi(G')): Heisenberg G' "
                 f"{'central' if der_central else 'NOT central'}, N of index "
                 f"{G.order // heis_n.order} (abelian={heis_n.is_abelian()}); "
                 f"(C9xC9):C3 N of index {comp.G.order // comp_n.order} "
                 f"(abelian={comp_n.is_abelian()}); naive set-based "
                 f"centralizer {'matches' if oracle_ok else 'DIFFERS'} on "
                 f"both [{elapsed:.1f}s]")
    assert all(checks.values()), checks
    assert elapsed < 60


def test_criterion_7_census_and_count_oracle():
    t0 = time.monotonic()
    heis = build_family(3, "heisenberg", 2, 1, 1)
    heis_alg = GroupAlgebra(heis.G)
    heis_rep = invariant_report(heis.G, heis_alg, "heisenberg")
    # census clause, as stated: every class size on Phi(N) - Z(G) equals 3
    assert all(size == 3 for size, _count in heis_rep.class_size_census)
    # count clause, as stated: matches the quadratic pairwise oracle exactly
    assert heis_rep.class_sum_pth_power_count == \
        pairwise_class_sum_count(heis_alg) == 1
    st, sg = semidirect_c9c9_table()
    comp = build_family(3, "table", 1, 1, 1, table=st, table_generators=sg)
    comp_alg = GroupAlgebra(comp.G)
    comp_rep = invariant_report(comp.G, comp_alg, "c9c9")
    assert comp_rep.n_abelian and comp_rep.group_order // comp_rep.n_order == 3
    assert comp_rep.class_size_census == ((3, 2),)  # nonempty, all size 3
    assert comp_rep.class_sum_pth_power_count == \
        pairwise_class_sum_count(comp_alg) == 3
    elapsed = time.monotonic() - t0
    assert elapsed < 60


def test_criterion_8_property_suites(catalog, inst433, FG433):
    t0 = time.monotonic()
    rng = random.Random(20240614)

    # ring axioms on a sample of triples in one even and one odd algebra
    for name in ("Q16", "heis27"):
        alg = GroupAlgebra(dict(catalog)[name])
        for _ in range(10):
            u, v, w = (alg.from_indices(
                [i for i in range(alg.dim) if rng.random() < 0.5])
                for _ in range(3))
            assert (u * v) * w == u * (v * w)
            assert u * (v + w) == u * v + u * w
            assert u * v == naive_product(u, v)

    # unit criterion vs the regular-representation oracle: 100 elements
    pools = [GroupAlgebra(dict(catalog)[name])
             for name in ("D8", "Q16", "C8xC2", "C9", "heis27")] + [FG433]
    quota = [18, 18, 18, 18, 18, 10]
    seen = {True: 0, False: 0}
    total = 0
    for alg, count in zip(pools, quota):
        assert alg.dim <= 512
        for _ in range(count):
            u = alg.from_indices(
                [i for i in range(alg.dim) if rng.random() < 0.5])
            fast = is_unit(u)
            assert fast == regular_rep_is_unit(u)
            seen[fast] += 1
            total += 1
    assert total == 100 and seen[True] > 0 and seen[False] > 0

    # Jennings dimension formula vs the filtration at every group of
    # order <= 2^9 constructed in the suite
    groups = list(catalog) + [
        ("G433", inst433.G), ("H433", inst433.H),
        ("GmeetM", intersection(inst433.G, coordinate_box(inst433.ambient, lead=1))),
    ]
    for name, grp in groups:
        assert grp.order <= 512, name
        poly = jennings_dimension_polynomial(
            jennings_factor_orders(grp), grp.p)
        assert aug_quotient_dims(grp) == poly, name

    # abelian_type vs the order-census oracle on every abelian group above
    abelian_seen = 0
    for name, grp in groups:
        if grp.is_abelian():
            assert abelian_type_census_check(grp, abelian_type(grp)), name
            abelian_seen += 1
    assert abelian_seen >= 8

    elapsed = time.monotonic() - t0
    ok = elapsed < 600
    _line(8, ok, f"property suites: ring axioms, unit criterion vs regular "
                 f"representation (100 elements, dim <= 512), Jennings "
                 f"formula at {len(groups)} groups, abelian type vs census "
                 f"[{elapsed:.1f}s]")
    assert elapsed < 600


def _run_cli(args):
    return subprocess.run([sys.executable, "-m", "mipverify"] + args,
                          capture_output=True, text=True)


def test_criterion_9_byte_identical_reports(tmp_path):
    commands = [
        ["family", "--n", "4", "--m", "3", "--k", "3"],
        ["family", "--n", "5", "--m", "4", "--k", "3"],
        ["witness", "--n", "4", "--m", "3", "--k", "3", "--seed", "0"],
        ["witness", "--n", "4", "--m", "3", "--k", "3", "--beta", "k3",
         "--no-matrix"],
        ["witness", "--n", "4", "--m", "3", "--k", "3", "--beta", "general",
         "--no-matrix"],
        ["witness", "--n", "5", "--m", "4", "--k", "3", "--no-matrix"],
        ["invariants", "--n", "4", "--m", "3", "--k", "3", "--pair"],
        ["invariants", "--p", "3", "--n", "1", "--m", "1", "--k", "1",
         "--variant", "c9c9"],
    ]
    identical = True
    for args in commands:
        r1, r2 = _run_cli(args), _run_cli(args)
        assert r1.returncode == 0 and r2.returncode == 0, (args, r1.stderr)
        json.loads(r1.stdout)  # every report is well-formed JSON
        if r1.stdout != r2.stdout:
            identical = False
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        r = _run_cli(["export", "--n", "4", "--m", "3", "--k", "3",
                      "--outdir", str(d)])
        assert r.returncode == 0
    for name in ("check.g", "g_table.csv", "h_table.csv",
                 "presentations.txt"):
        if (d1 / name).read_bytes() != (d2 / name).read_bytes():
            identical = False
    _line(9, identical, "repeated runs with fixed seeds produce "
                        "byte-identical JSON reports and export files")
    assert identical
