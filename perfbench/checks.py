"""Checks of mipverify reports against closed forms and required properties.

Nothing here calls mipverify or compares with stored output.  Each check
returns a list of failure messages; an empty list means the report passed.

* ``family``: every clause passes, |G| = |H| = 2^(n+m+k-1), |G'| = 2^(k-1),
  class k, exp(G meet M) = 2^n and exp(H meet M) = 2^(n-1).
* ``export``: each table CSV is a Latin square whose row 0 is 0..|G|-1.
* ``witness``: valid, beta_order = 2^m, |G| matrix rows of odd weight
  (images of group elements have augmentation 1) and full GF(2) rank under
  the eliminator below, pairs as requested and no mismatches.
* ``invariants``: ideal_dims = (|N|-1, |G| - |G:G'| + |N:G'| - 1), with |G|
  and |G'| from the permutation models below; the product of bjz_factors is
  |N|; ``--pair`` reports invariant_equal; on c9c9 and wreath N is abelian
  of index 3 and on heisenberg N = G.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

import numpy as np

Perm = tuple[int, ...]
# An element of K x C x D: a permutation and two cyclic exponents.
Elem = tuple[Perm, int, int]


# -- permutation models of the groups -----------------------------------------


def _perm(points: Sequence, image: Callable) -> Perm:
    index = {pt: i for i, pt in enumerate(points)}
    return tuple(index[image(pt)] for pt in points)


def _dihedral(k: int) -> tuple[Perm, Perm]:
    """Reflection t and rotation r of the dihedral group of order 2^(k+1)."""
    size = 2 ** k
    pts = range(size)
    return _perm(pts, lambda i: -i % size), _perm(pts, lambda i: (i + 1) % size)


def _odd_base(base: str) -> tuple[Perm, Perm]:
    """Generators (s, s1) of the p = 3 bases, as permutations."""
    if base == "heisenberg":
        # unitriangular 3x3 matrices over Z/3 acting on (u, v) by
        # (u, v) -> (u + a + b v, v + c); s is b = 1, s1 is c = 1
        pts = [(u, v) for u in range(3) for v in range(3)]
        return (_perm(pts, lambda q: ((q[0] + q[1]) % 3, q[1])),
                _perm(pts, lambda q: (q[0], (q[1] + 1) % 3)))
    if base == "wreath":
        # C3 wr C3 on 3 blocks of 3 points: top cycle and first base factor
        pts = [(i, x) for i in range(3) for x in range(3)]
        return (_perm(pts, lambda q: ((q[0] + 1) % 3, q[1])),
                _perm(pts, lambda q: (q[0], (q[1] + (q[0] == 0)) % 3)))
    if base == "c9c9":
        # (Z/9)^2 : C3 as affine maps: the order-3 linear map
        # (i, j) -> (-j, i - j) and the translation by (1, 0)
        pts = [(i, j) for i in range(9) for j in range(9)]
        return (_perm(pts, lambda q: (-q[1] % 9, (q[0] - q[1]) % 9)),
                _perm(pts, lambda q: ((q[0] + 1) % 9, q[1])))
    raise ValueError(f"unknown base {base!r}")


def _mul(a: Elem, b: Elem, mods: tuple[int, int]) -> Elem:
    pa, pb = a[0], b[0]
    return (tuple(pb[i] for i in pa), (a[1] + b[1]) % mods[0],
            (a[2] + b[2]) % mods[1])


def _inv(a: Elem, mods: tuple[int, int]) -> Elem:
    inv = [0] * len(a[0])
    for i, j in enumerate(a[0]):
        inv[j] = i
    return (tuple(inv), -a[1] % mods[0], -a[2] % mods[1])


def _closure(gens: Sequence[Elem], mods: tuple[int, int]) -> set[Elem]:
    ident = (tuple(range(len(gens[0][0]))), 0, 0)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for a in gens:
                h = _mul(g, a, mods)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return seen


def _derived(gens: Sequence[Elem], mods: tuple[int, int]) -> set[Elem]:
    """G' as the normal closure of the generator commutators, by sets."""
    def comm(a: Elem, b: Elem) -> Elem:
        return _mul(_mul(_inv(a, mods), _inv(b, mods), mods),
                    _mul(a, b, mods), mods)

    seeds = [comm(a, b) for a in gens for b in gens]
    while True:
        sub = _closure(seeds, mods)
        new = [c for s in seeds for g in gens
               for c in [_mul(_mul(_inv(g, mods), s, mods), g, mods)]
               if c not in sub]
        if not new:
            return sub
        seeds.extend(new)


def group_orders(kind: str, n: int, m: int, k: int,
                 p: int = 2) -> dict[str, tuple[int, int]]:
    """{name: (|X|, |X'|)} for the groups an invariants run reports on.

    ``kind`` is ``dihedral`` (G = <tc, sd> and H = <tc, rd> in
    D x C_{2^n} x C_{2^m}) or an odd base (G = <s c, s1 d> in
    K x C_{p^m} x C_{p^n}).
    """
    if kind == "dihedral":
        t, r = _dihedral(k)
        mods = (2 ** n, 2 ** m)
        s = _mul((t, 0, 0), (r, 0, 0), mods)[0]   # another reflection
        x, y, z = (t, 1, 0), (s, 0, 1), (r, 0, 1)
        pairs = {"G": [x, y], "H": [x, z]}
    else:
        if p != 3:
            raise ValueError("the odd bases are modelled at p = 3")
        s, s1 = _odd_base(kind)
        mods = (p ** m, p ** n)
        pairs = {kind: [(s, 1, 0), (s1, 0, 1)]}
    return {name: (len(_closure(g, mods)), len(_derived(g, mods)))
            for name, g in pairs.items()}


# -- GF(2) rank of packed rows -------------------------------------------------


def hex_rows_to_words(rows: Sequence[str]) -> np.ndarray:
    """Rows as lowercase hex of little-endian 64-bit words -> uint64 matrix."""
    return np.array([np.frombuffer(bytes.fromhex(r), dtype="<u8") for r in rows],
                    dtype=np.uint64).reshape(len(rows), -1)


def gf2_rank(words: np.ndarray) -> int:
    """Rank over GF(2) by forward elimination on packed uint64 rows."""
    mat = np.array(words, dtype=np.uint64, copy=True)
    nrows, nwords = mat.shape
    rank = 0
    for col in range(nwords * 64):
        if rank == nrows:
            break
        w = col // 64
        bit = np.uint64(1) << np.uint64(col % 64)
        hits = np.flatnonzero(mat[rank:, w] & bit)
        if hits.size == 0:
            continue
        piv = rank + int(hits[0])
        if piv != rank:
            mat[[rank, piv]] = mat[[piv, rank]]
        below = rank + 1 + np.flatnonzero(mat[rank + 1:, w] & bit)
        if below.size:
            mat[below, w:] ^= mat[rank, w:]
        rank += 1
    return rank


def _popcounts(words: np.ndarray) -> np.ndarray:
    bits = np.unpackbits(words.view(np.uint8), axis=1)
    return bits.sum(axis=1)


# -- report checks ---------------------------------------------------------------


def _clause_failures(section: dict, label: str) -> list[str]:
    out = [f"{label} clause {c['id']} failed"
           for c in section["clauses"] if not c["passed"]]
    if not section.get("ok", True):
        out.append(f"{label} is not ok")
    return out


def check_family(report: dict, n: int, m: int, k: int,
                 variants: bool) -> list[str]:
    out = _clause_failures(report["structure"], "structure")
    data = {c["id"]: c["data"] for c in report["structure"]["clauses"]}
    order = 2 ** (n + m + k - 1)
    want = {("orders", "order_g"): order, ("orders", "order_h"): order,
            ("derived-and-class", "derived_order"): 2 ** (k - 1),
            ("derived-and-class", "class_g"): k,
            ("derived-and-class", "class_h"): k,
            ("exponent-gap-non-isomorphic", "exp_g_meet_m"): 2 ** n,
            ("exponent-gap-non-isomorphic", "exp_h_meet_m"): 2 ** (n - 1)}
    for (cid, key), value in want.items():
        got = data.get(cid, {}).get(key)
        if got != value:
            out.append(f"{cid}.{key} = {got}, expected {value}")
    if variants:
        if "variants" not in report:
            out.append("variants section missing")
        else:
            out += _clause_failures(report["variants"], "variants")
    return out


def check_export(report: dict, outdir: str, n: int, m: int, k: int) -> list[str]:
    out = []
    order = 2 ** (n + m + k - 1)
    ident = np.arange(order)
    for name in ("g_table.csv", "h_table.csv"):
        if name not in report.get("files", []):
            out.append(f"{name} not listed")
            continue
        with open(os.path.join(outdir, name), encoding="ascii") as fh:
            table = np.array([[int(v) for v in line.split(",")]
                              for line in fh.read().splitlines()])
        if table.shape != (order, order):
            out.append(f"{name} has shape {table.shape}, expected {(order, order)}")
            continue
        if not np.array_equal(table[0], ident):
            out.append(f"{name} row 0 is not 0..{order - 1}")
        latin = (np.array_equal(np.sort(table, axis=1), np.broadcast_to(ident, table.shape))
                 and np.array_equal(np.sort(table, axis=0),
                                    np.broadcast_to(ident[:, None], table.shape)))
        if not latin:
            out.append(f"{name} is not a Latin square")
    return out


def check_witness(report: dict, n: int, m: int, k: int, seed: int,
                  pairs: int) -> list[str]:
    cert = report["certificate"]
    out = []
    order = 2 ** (n + m + k - 1)
    if cert["valid"] is not True:
        out.append("certificate is not valid")
    if cert["beta_order"] != 2 ** m:
        out.append(f"beta_order = {cert['beta_order']}, expected {2 ** m}")
    if report["config"]["seed"] != seed:
        out.append(f"seed = {report['config']['seed']}, expected {seed}")
    if cert["sample"]["pairs"] != pairs or cert["sample"]["mismatches"] != 0:
        out.append(f"sample = {cert['sample']}, expected {pairs} pairs "
                   "and no mismatches")
    rows = cert.get("matrix_rows", [])
    if len(rows) != order:
        out.append(f"{len(rows)} matrix rows, expected {order}")
        return out
    words = hex_rows_to_words(rows)
    even = np.flatnonzero(_popcounts(words) % 2 == 0)
    if even.size:
        out.append(f"{even.size} matrix rows of even weight, first {int(even[0])}")
    rank = gf2_rank(words)
    if rank != order:
        out.append(f"matrix rank {rank}, expected {order}")
    return out


def check_invariants(report: dict, kind: str, orders: dict[str, tuple[int, int]],
                     pair: bool) -> list[str]:
    """``orders`` is ``group_orders`` for the run's groups, keyed by identifier."""
    out = []
    reps = report["reports"]
    if pair and report.get("invariant_equal") is not True:
        out.append("G and H are not reported invariant-equal")
    if len(reps) != len(orders):
        return out + [f"{len(reps)} reports, expected {len(orders)}"]
    for rep in reps:
        name = rep["identifier"]
        if name not in orders:
            out.append(f"unexpected report {name!r}")
            continue
        g_order, d_order = orders[name]
        n_order = rep["n"]["order"]
        if rep["group_order"] != g_order:
            out.append(f"{name}: |G| = {rep['group_order']}, expected {g_order}")
        dims = [n_order - 1, g_order - g_order // d_order + n_order // d_order - 1]
        if rep["ideal_dims"] != dims:
            out.append(f"{name}: ideal_dims = {rep['ideal_dims']}, expected {dims}")
        if int(np.prod(rep["bjz_factors"])) != n_order:
            out.append(f"{name}: bjz_factors {rep['bjz_factors']} do not "
                       f"multiply to |N| = {n_order}")
        if kind in ("c9c9", "wreath") and not (
                rep["n"]["abelian"] is True and rep["n"]["index"] == 3):
            out.append(f"{name}: N = {rep['n']}, expected abelian of index 3")
        if kind == "heisenberg" and not (
                rep["n"]["index"] == 1 and n_order == g_order):
            out.append(f"{name}: N = {rep['n']}, expected N = G")
    return out
