"""Ambient product arithmetic: encodings, axioms, guards, tables."""

import random

import numpy as np
import pytest

from mipverify import ambient as ambient_mod
from mipverify import tables as tables_mod
from mipverify.ambient import (DEFAULT_GUARD, GuardExceeded, int_log,
                               make_ambient, round_up_power)
from mipverify.tables import semidirect_c9c9_table, wreath_cyclic_table

from conftest import (cubic_associative, loop_semidirect_c9c9_table,
                      loop_wreath_cyclic_table, ref_comm, ref_conj, ref_inv,
                      ref_mul, ref_order, ref_power)


AMBIENTS = {
    "dihedral": make_ambient(2, "dihedral", 3, 4, 3),
    "semidihedral": make_ambient(2, "semidihedral", 3, 4, 3),
    "quaternion": make_ambient(2, "quaternion", 3, 4, 3),
    "heisenberg": make_ambient(3, "heisenberg", 1, 2, 1),
}


def random_element(amb, rng):
    return tuple(rng.randrange(r) for r in amb.radices)


@pytest.mark.parametrize("name", sorted(AMBIENTS))
def test_group_axioms_sampled(name):
    amb = AMBIENTS[name]
    rng = random.Random(20240605)
    e = amb.identity
    for _ in range(200):
        a, b, c = (random_element(amb, rng) for _ in range(3))
        assert amb.mul(amb.mul(a, b), c) == amb.mul(a, amb.mul(b, c))
        assert amb.mul(a, e) == a and amb.mul(e, a) == a
        assert amb.mul(a, amb.inv(a)) == e
        assert ref_conj(amb, a, b) == amb.mul(amb.inv(b), amb.mul(a, b))
        assert amb.comm(a, b) == amb.mul(amb.inv(amb.mul(b, a)), amb.mul(a, b))


@pytest.mark.parametrize("name", sorted(AMBIENTS))
def test_power_matches_repeated_multiplication(name):
    amb = AMBIENTS[name]
    rng = random.Random(99)
    for _ in range(25):
        a = random_element(amb, rng)
        acc = amb.identity
        for e in range(9):
            assert amb.power(a, e) == acc
            acc = amb.mul(acc, a)
        assert amb.power(a, -1) == amb.inv(a)


_WREATH_TABLE, _WREATH_GENS = wreath_cyclic_table(3)
ARRAY_AMBIENTS = dict(AMBIENTS, **{
    # k = 2: the quaternion carry t^2 = r^2 is hit often
    "quaternion-k2": make_ambient(2, "quaternion", 2, 3, 2),
    "table": make_ambient(3, "table", 1, 2, 1, table=_WREATH_TABLE,
                          table_generators=_WREATH_GENS),
})


@pytest.mark.parametrize("name", sorted(ARRAY_AMBIENTS))
def test_mul_array_matches_scalar_mul(name):
    """The row law, both broadcasting sides included, and the one-element
    ``mul`` built on it, against the scalar reference law."""
    amb = ARRAY_AMBIENTS[name]
    rng = random.Random(31337)
    lefts = [random_element(amb, rng) for _ in range(300)]
    rights = [random_element(amb, rng) for _ in range(300)]
    L = np.array(lefts, dtype=np.int64)
    R = np.array(rights, dtype=np.int64)
    got = amb.mul_array(L, R)
    assert got.dtype == np.int64 and got.shape == L.shape
    want = [ref_mul(amb, a, b) for a, b in zip(lefts, rights)]
    assert [tuple(r) for r in got.tolist()] == want
    assert [amb.mul(a, b) for a, b in zip(lefts[:20], rights[:20])] == want[:20]
    g = lefts[0]
    left_bcast = [tuple(r) for r in amb.mul_array(L[:1], R).tolist()]
    right_bcast = [tuple(r) for r in amb.mul_array(L, R[:1]).tolist()]
    assert left_bcast == [ref_mul(amb, g, b) for b in rights]
    assert right_bcast == [ref_mul(amb, a, rights[0]) for a in lefts]
    assert left_bcast == [tuple(r) for r in amb.mul_rows(g, R).tolist()]
    assert right_bcast == [tuple(r) for r in amb.mul_cols(L, rights[0]).tolist()]
    if amb.carry:
        both_odd = L[:, 0] & R[:, 0]
        assert both_odd.any() and not both_odd.all()


@pytest.mark.parametrize("name", sorted(ARRAY_AMBIENTS))
def test_inv_array_matches_reference_inverse(name):
    """The closed-form row inverses, and the one-element ``inv`` built on
    them, against the scalar reference; each row times its inverse is 1."""
    amb = ARRAY_AMBIENTS[name]
    rng = random.Random(2718)
    elems = [random_element(amb, rng) for _ in range(300)]
    rows = np.array(elems, dtype=np.int64)
    got = amb.inv_array(rows)
    assert got.dtype == np.int64 and got.shape == rows.shape
    want = [ref_inv(amb, a) for a in elems]
    assert [tuple(r) for r in got.tolist()] == want
    assert [amb.inv(a) for a in elems[:20]] == want[:20]
    assert not amb.mul_array(rows, got).any()
    if amb.variant != "table":
        # the carry and the twist act on rows with t and r, the cross term
        # on rows with h1 h2 != 0
        assert (rows[:, 0] * rows[:, 1]).any()


def _tuples(rows):
    return [tuple(r) for r in rows.tolist()]


@pytest.mark.parametrize("name", sorted(ARRAY_AMBIENTS))
def test_comm_conj_orders_arrays_match_reference(name):
    """Commutators and conjugates on rows, both broadcasting sides
    included, the one-element ``comm`` built on them, and the orders of
    rows, against the scalar reference law."""
    amb = ARRAY_AMBIENTS[name]
    rng = random.Random(1618)
    lefts = [random_element(amb, rng) for _ in range(300)]
    rights = [random_element(amb, rng) for _ in range(300)]
    L = np.array(lefts, dtype=np.int64)
    R = np.array(rights, dtype=np.int64)
    for row_op, ref in ((amb.comm_array, ref_comm), (amb.conj_array, ref_conj)):
        want = [ref(amb, a, b) for a, b in zip(lefts, rights)]
        got = row_op(L, R)
        assert got.dtype == np.int64 and _tuples(got) == want
        assert _tuples(row_op(L[:1], R)) == [ref(amb, lefts[0], b) for b in rights]
        assert _tuples(row_op(L, R[:1])) == [ref(amb, a, rights[0]) for a in lefts]
    assert [amb.comm(a, b) for a, b in zip(lefts[:20], rights[:20])] == \
        [ref_comm(amb, a, b) for a, b in zip(lefts[:20], rights[:20])]
    orders = amb.orders_array(np.concatenate([L, np.zeros_like(L[:1])]))
    want = [ref_order(amb, a) for a in lefts] + [1]
    assert orders.dtype == np.int64 and orders.tolist() == want
    assert len(set(want)) >= 3
    assert amb.orders_array(L[:0]).shape == (0,)


@pytest.mark.parametrize("name", sorted(ARRAY_AMBIENTS))
def test_power_array_matches_scalar_power(name):
    amb = ARRAY_AMBIENTS[name]
    rng = random.Random(4242)
    elems = [random_element(amb, rng) for _ in range(100)]
    rows = np.array(elems, dtype=np.int64)
    for e in (0, 1, 2, 3, 5, 8, 27):
        want = [ref_power(amb, a, e) for a in elems]
        assert [tuple(r) for r in amb.power_array(rows, e).tolist()] == want
        assert [amb.power(a, e) for a in elems[:10]] == want[:10]
    assert [amb.power(a, -3) for a in elems[:10]] == \
        [ref_power(amb, a, -3) for a in elems[:10]]


def test_two_generator_relations():
    for name in ("dihedral", "semidihedral", "quaternion"):
        amb = AMBIENTS[name]
        g = amb.standard_generators()
        t, r = g["t"], g["r"]
        assert ref_order(amb, r) == 2 ** amb.k
        rt = ref_conj(amb, r, t)
        if name == "dihedral":
            assert ref_order(amb, t) == 2
            assert rt == amb.inv(r)
        elif name == "semidihedral":
            assert ref_order(amb, t) == 2
            assert rt == amb.power(r, 2 ** (amb.k - 1) - 1)
        else:
            assert amb.power(t, 2) == amb.power(r, 2 ** (amb.k - 1))
            assert rt == amb.inv(r)
        assert ref_order(amb, g["c"]) == 2 ** amb.n
        assert ref_order(amb, g["d"]) == 2 ** amb.m


def test_central_factors_commute():
    rng = random.Random(5)
    for name, amb in AMBIENTS.items():
        g = amb.standard_generators()
        for _ in range(40):
            a = random_element(amb, rng)
            for central in (g["c"], g["d"]):
                assert amb.mul(a, central) == amb.mul(central, a), name


def test_heisenberg_relations():
    amb = AMBIENTS["heisenberg"]
    g = amb.standard_generators()
    s, s1 = g["s"], g["s1"]
    u = amb.comm(s, s1)
    assert ref_order(amb, s) == 3 and ref_order(amb, s1) == 3
    assert ref_order(amb, u) == 3
    assert amb.comm(u, s) == amb.identity and amb.comm(u, s1) == amb.identity
    assert amb.k_order == 27


def test_element_key_roundtrip():
    rng = random.Random(31)
    for amb in AMBIENTS.values():
        seen = set()
        for _ in range(50):
            a = random_element(amb, rng)
            seen.add(amb.key(a))
        assert all(0 <= key < amb.order for key in seen)


def test_guard_exceeded():
    with pytest.raises(GuardExceeded):
        make_ambient(2, "dihedral", 3, 4, 3, guard=64)


def test_heisenberg_rejects_p2():
    with pytest.raises(ValueError):
        make_ambient(2, "heisenberg", 1, 2, 1)


def test_bad_prime_and_variant():
    with pytest.raises(ValueError):
        make_ambient(6, "dihedral", 3, 4, 3)
    with pytest.raises(ValueError):
        make_ambient(2, "cyclic", 3, 4, 3)
    with pytest.raises(ValueError, match="unknown variant"):
        make_ambient(2, "regular", 1, 1, 1)


def test_table_kind_validation():
    wt, wgens = wreath_cyclic_table(3)
    amb = make_ambient(3, "table", 1, 1, 1, table=wt, table_generators=wgens)
    assert amb.k_order == 81
    with pytest.raises(ValueError, match="do not generate"):
        make_ambient(3, "table", 1, 1, 1, table=wt,
                     table_generators=(wgens[0], wgens[0]))
    st, sgens = semidirect_c9c9_table()
    assert st.shape == (243, 243)
    # identity must be row/column 0
    assert list(st[0]) == list(range(243))
    bad = np.array([[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        make_ambient(2, "table", 1, 1, 1, table=bad, table_generators=(1,))
    non_assoc = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    with pytest.raises(ValueError):
        make_ambient(3, "table", 1, 1, 1, table=non_assoc,
                     table_generators=(1,))
    with pytest.raises(ValueError, match="not associative"):
        make_ambient(3, "table", 1, 1, 1, table=non_assoc,
                     table_generators=(1, 2))


def _null_monoid_table(size, bad_row, z, w):
    """Identity 0 and every other product z, except bad_row * z = w.

    Without the exception this is a monoid (associative, not a group).  With
    it, (i*j)*k != i*(j*k) only for i = bad_row: (bad_row*z)*k = z but
    bad_row*(z*k) = w for every k != 0.
    """
    table = np.full((size, size), z, dtype=np.int64)
    table[0] = table[:, 0] = np.arange(size)
    table[bad_row, z] = w
    return table


@pytest.mark.parametrize("bad_row,z", [(1, 242), (242, 1)],
                         ids=["first-block", "last-block"])
def test_table_associativity_defect_in_one_row_block(bad_row, z):
    size = 243
    defect = _null_monoid_table(size, bad_row, z, 2)
    assert not cubic_associative(defect)
    with pytest.raises(ValueError, match="not associative"):
        make_ambient(3, "table", 1, 1, 1, table=defect, table_generators=(1, 2))
    # the unmodified monoid passes associativity and fails only later
    monoid = _null_monoid_table(size, bad_row, z, z)
    assert cubic_associative(monoid)
    with pytest.raises(ValueError, match="identity exactly once"):
        make_ambient(3, "table", 1, 1, 1, table=monoid, table_generators=(1, 2))


def _accepted(table, gens, p):
    try:
        ambient_mod._validate_table(table, gens, p)
    except ValueError:
        return False
    return True


def _reaches_all(table, gens):
    """Left-normed products of the generators, grown one set at a time."""
    seen, frontier = {0}, [0]
    while frontier:
        frontier = [int(table[x, s]) for x in frontier for s in gens
                    if int(table[x, s]) not in seen]
        seen.update(frontier)
    return len(seen) == table.shape[0]


def _cycle_switch(table, rng):
    """Swap rows r1 != r2 (both nonzero) on one cycle of columns that avoids
    column 0: a Latin square with identity row and column stays one."""
    size = table.shape[0]
    r1, r2 = rng.sample(range(1, size), 2)
    where1 = np.argsort(table[r1])  # value -> column in row r1
    col, cycle = rng.randrange(1, size), []
    while col not in cycle:
        cycle.append(col)
        col = int(where1[table[r2, col]])
    if 0 in cycle:
        return table
    out = table.copy()
    out[np.ix_([r1, r2], cycle)] = table[np.ix_([r2, r1], cycle)]
    return out


def _random_loops(rng, count):
    """Loops of order 8 to 27 with identity 0: cyclic group tables after 0 to
    3 cycle switches, each with a generating pair found by trial."""
    loops = []
    while len(loops) < count:
        size, p = rng.choice([(8, 2), (9, 3), (16, 2), (25, 5), (27, 3)])
        idx = np.arange(size)
        table = (idx[:, None] + idx[None, :]) % size
        for _ in range(rng.randrange(4)):
            table = _cycle_switch(table, rng)
        for _ in range(50):
            gens = tuple(rng.sample(range(1, size), 2))
            if _reaches_all(table, gens):
                loops.append((table, gens, p))
                break
    return loops


def _nucleus_times_loop():
    """C3 x Q, Q the loop Z/9 with rows 1 and 4 switched on columns 2, 5, 8.

    (a, w) has index 9a + w.  s = (1, 0) satisfies (x*s)*y == x*(s*y) for
    all x and y, the loop generator (0, 1) does not, and the two generate.
    """
    idx = np.arange(9)
    loop = (idx[:, None] + idx[None, :]) % 9
    loop[np.ix_([1, 4], [2, 5, 8])] = loop[np.ix_([4, 1], [2, 5, 8])]
    a, w = np.divmod(np.arange(27), 9)
    return ((a[:, None] + a[None, :]) % 3) * 9 + loop[w[:, None], w[None, :]]


def test_nucleus_times_loop_needs_both_generators():
    table = _nucleus_times_loop()
    assert np.array_equal(np.sort(table, axis=1), np.tile(np.arange(27), (27, 1)))
    assert np.array_equal(np.sort(table, axis=0), np.tile(np.arange(27), (27, 1)).T)
    assert not cubic_associative(table)
    s = 9
    assert np.array_equal(table[table[:, s]], table[:, table[s]])
    with pytest.raises(ValueError, match="not associative"):
        ambient_mod._validate_table(table, (s, 1), 3)
    # (1, 0) and (2, 0) both pass Light's test but generate only C3 x 1
    with pytest.raises(ValueError, match="do not generate"):
        ambient_mod._validate_table(table, (s, 2 * s), 3)


def test_light_test_accepts_what_the_cubic_oracle_accepts():
    rng = random.Random(20261018)
    cases = [(*wreath_cyclic_table(p), p) for p in (2, 3)]
    cases.append((*semidirect_c9c9_table(), 3))
    # single swaps inside one row, off column 0: never a group table
    for table, gens, p in list(cases):
        for _ in range(20):
            r = rng.randrange(1, table.shape[0])
            c1, c2 = rng.sample(range(1, table.shape[0]), 2)
            bad = table.copy()
            bad[r, [c1, c2]] = table[r, [c2, c1]]
            cases.append((bad, gens, p))
    first_loop = len(cases)
    cases += _random_loops(rng, 40)
    cases.append((_nucleus_times_loop(), (9, 1), 3))
    cases.append((_nucleus_times_loop(), (1, 9), 3))
    verdicts = [(_accepted(t, g, p), cubic_associative(t)) for t, g, p in cases]
    assert all(light == cubic for light, cubic in verdicts)
    # the built-in tables pass, and the loops include groups and non-groups
    assert all(v[0] for v in verdicts[:3])
    loops = verdicts[first_loop:]
    assert any(v[0] for v in loops) and not all(v[0] for v in loops)


@pytest.mark.parametrize("name", ["wreath-2", "wreath-3", "c9c9"])
def test_vectorized_tables_match_loop_oracles(name):
    if name == "c9c9":
        got, want = semidirect_c9c9_table(), loop_semidirect_c9c9_table()
    else:
        p = int(name[-1])
        got, want = wreath_cyclic_table(p), loop_wreath_cyclic_table(p)
    assert got[0].dtype == want[0].dtype == np.int64
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1] == want[1] and all(type(g) is int for g in got[1])


def test_wreath_budget_checked_before_any_array(monkeypatch):
    monkeypatch.setattr(tables_mod, "np", None)  # any numpy use would fail
    with pytest.raises(GuardExceeded, match="table budget"):
        tables_mod.wreath_cyclic_table(5)


def test_wreath_table_is_wreath_product():
    wt, wgens = wreath_cyclic_table(3)
    assert wt.shape == (81, 81)
    amb = make_ambient(3, "table", 1, 1, 1, table=wt, table_generators=wgens)
    g = amb.standard_generators()
    s, s1 = g["s"], g["s1"]
    assert ref_order(amb, s) == 3  # top cycle
    assert ref_order(amb, s1) == 3  # one base coordinate
    conj = ref_conj(amb, s1, s)
    assert amb.comm(s1, conj) == amb.identity  # base stays abelian


def test_wreath_table_budget():
    with pytest.raises(GuardExceeded, match="table budget"):
        wreath_cyclic_table(5)  # 15625^2 int64 entries, 1.95 GB


def test_int_log_and_powers():
    assert int_log(2, 8) == 3
    assert int_log(3, 81) == 4
    assert round_up_power(2, 5) == 3  # smallest e with 2^e >= 5
    assert round_up_power(2, 8) == 3
    assert int_log(2, 16) == 4
    with pytest.raises(ValueError):
        int_log(2, 12)
    assert DEFAULT_GUARD == 2 ** 22
