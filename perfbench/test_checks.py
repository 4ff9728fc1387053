"""Tests of the benchmark itself: each check rejects a report corrupted in one place.

Run with ``python3 -m pytest perfbench`` from the root of the repository.
The reports come from the CLI at (4,3,3) and the p = 3 wreath base, which
take about a second each.
"""

from __future__ import annotations

import copy
import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracer


def _cli(tmp_path: Path, argv: list[str], traced: bool = False) -> run.Outcome:
    out = run.spawn(argv, tmp_path, traced, deadline=time.monotonic() + 120)
    assert out.code == 0, (tmp_path / "stderr").read_text()
    return out


@pytest.fixture(scope="module")
def reports(tmp_path_factory) -> dict:
    tmp = tmp_path_factory.mktemp("reports")
    outdir = str(tmp / "export")
    argvs = {
        "family": ["family", "--n", "4", "--m", "3", "--k", "3"],
        "export": ["export", "--n", "4", "--m", "3", "--k", "3", "--outdir", outdir],
        "witness": ["witness", "--n", "4", "--m", "3", "--k", "3", "--seed", "5"],
        "pair": ["invariants", "--n", "4", "--m", "3", "--k", "3", "--pair"],
        "wreath": ["invariants", "--p", "3", "--n", "2", "--m", "1", "--k", "1",
                   "--variant", "wreath"],
    }
    got = {name: json.loads(_cli(tmp, argv).stdout) for name, argv in argvs.items()}
    got["outdir"] = outdir
    return got


def test_family_check_rejects_wrong_exponent(reports):
    rep = reports["family"]
    assert checks.check_family(rep, 4, 3, 3, variants=False) == []
    bad = copy.deepcopy(rep)
    for clause in bad["structure"]["clauses"]:
        if clause["id"] == "exponent-gap-non-isomorphic":
            clause["data"]["exp_h_meet_m"] = 16
    assert checks.check_family(bad, 4, 3, 3, variants=False) == [
        "exponent-gap-non-isomorphic.exp_h_meet_m = 16, expected 8"]


def test_witness_check_rejects_one_flipped_bit(reports):
    rep = reports["witness"]
    assert checks.check_witness(rep, 4, 3, 3, seed=5, pairs=1024) == []
    bad = copy.deepcopy(rep)
    rows = bad["certificate"]["matrix_rows"]
    rows[7] = format(int(rows[7][0], 16) ^ 1, "x") + rows[7][1:]
    problems = checks.check_witness(bad, 4, 3, 3, seed=5, pairs=1024)
    assert any("even weight, first 7" in p for p in problems)


def test_witness_check_rejects_dependent_rows(reports):
    bad = copy.deepcopy(reports["witness"])
    rows = bad["certificate"]["matrix_rows"]
    rows[9] = rows[3]
    assert checks.check_witness(bad, 4, 3, 3, seed=5, pairs=1024) == [
        "matrix rank 511, expected 512"]


def test_invariants_check_rejects_wrong_ideal_dimension(reports):
    orders = checks.group_orders("dihedral", 4, 3, 3)
    assert checks.check_invariants(reports["pair"], "dihedral", orders, True) == []
    bad = copy.deepcopy(reports["pair"])
    bad["reports"][1]["ideal_dims"][1] -= 1
    assert checks.check_invariants(bad, "dihedral", orders, True) == [
        "H: ideal_dims = [511, 510], expected [511, 511]"]


def test_invariants_check_on_odd_base(reports):
    orders = checks.group_orders("wreath", 2, 1, 1, p=3)
    assert orders == {"wreath": (243, 9)}
    assert checks.check_invariants(reports["wreath"], "wreath", orders, False) == []
    bad = copy.deepcopy(reports["wreath"])
    bad["reports"][0]["n"]["abelian"] = False
    assert len(checks.check_invariants(bad, "wreath", orders, False)) == 1


def test_export_check_rejects_broken_latin_square(reports, tmp_path):
    assert checks.check_export(reports["export"], reports["outdir"], 4, 3, 3) == []
    for name in ("g_table.csv", "h_table.csv", "presentations.txt", "check.g"):
        (tmp_path / name).write_bytes((Path(reports["outdir"]) / name).read_bytes())
    lines = (tmp_path / "h_table.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[0], cells[1] = cells[1], cells[1]
    lines[3] = ",".join(cells)
    (tmp_path / "h_table.csv").write_text("\n".join(lines) + "\n")
    assert checks.check_export(reports["export"], str(tmp_path), 4, 3, 3) == [
        "h_table.csv is not a Latin square"]


def test_gf2_rank_matches_integer_elimination():
    rng = random.Random(1)
    for nrows, ncols in ((5, 64), (70, 130), (130, 70), (64, 192)):
        ints = [rng.getrandbits(ncols) & rng.getrandbits(ncols) for _ in range(nrows)]
        pivots: dict[int, int] = {}
        for r in ints:
            while r and (r & -r) in pivots:
                r ^= pivots[r & -r]
            if r:
                pivots[r & -r] = r
        nwords = (ncols + 63) // 64
        words = np.array([[(r >> (64 * w)) & (2 ** 64 - 1) for w in range(nwords)]
                          for r in ints], dtype=np.uint64)
        assert checks.gf2_rank(words) == len(pivots)


def test_traced_run_keeps_stdout_and_self_times(tmp_path):
    argv = ["family", "--n", "4", "--m", "3", "--k", "3"]
    plain = _cli(tmp_path, argv)
    traced = _cli(tmp_path, argv, traced=True)
    assert traced.stdout == plain.stdout
    assert traced.spans[0][0] == "cli.main" and traced.spans[0][3] == -1
    layers = tracer.layer_metrics(traced.spans)
    assert all(v >= 0 for v in layers.values())
    assert layers["groups.closure.calls"] > 0
    assert layers["isomorphism.isomorphic_bruteforce.calls"] == 1
    assert layers["groups.cayley_table.builds"] > 0


def test_layer_metrics_self_time():
    ms = 1_000_000
    spans = [["cli.main", 0, 100 * ms, -1, None],
             ["groups.closure", 10 * ms, 30 * ms, 0, {"groups.closure.elements": 8}],
             ["groups.closure", 40 * ms, 50 * ms, 0, {"groups.closure.elements": 4}],
             ["groups.frattini", 60 * ms, 90 * ms, 0, None],
             ["groups.closure", 70 * ms, 80 * ms, 3, {"groups.closure.elements": 2}]]
    got = tracer.layer_metrics(spans)
    assert got["cli.main.s"] == pytest.approx(0.04)
    assert got["groups.frattini.s"] == pytest.approx(0.02)
    assert got["groups.closure.s"] == pytest.approx(0.04)
    assert got["groups.closure.calls"] == 3
    assert got["groups.closure.elements"] == 14


def test_benchmark_json_lists_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "peak_rss_mb", "setup_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.TRACE_METRICS
