"""Benchmark of the mipverify command line: three closed-loop workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload structure|certify|invariants \
        --seed N --seconds S --trace 0|1

One client runs the workload's CLI invocations one after another, each in a
fresh process (``launch.py``), and checks every report with ``checks.py``.
It repeats whole rounds of the workload while one more round of the mean
length so far would end within ``--seconds``, and does at least one.  The
last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are end to end, for one round of the
workload; a per-invocation figure is its median over the run's rounds:

* ``wall_s``: the sum over the invocations of the time from spawn to exit;
* ``peak_rss_mb``: the highest peak RSS (VmHWM) of any invocation;
* ``setup_s``: the median over all invocations of the time from spawn until
  ``mipverify.cli.main`` is entered, times the invocations per round.

With ``--trace 1`` each invocation runs untraced and then traced; the two
stdouts must be byte-identical.  The metrics are ``TRACE_METRICS``: the
per-layer metrics of ``tracer.LAYER_METRICS`` summed over the traced
invocations, plus ``trace.wall_s`` (traced wall time), ``trace.overhead_s``
(traced minus untraced wall time) and ``trace.spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = Path(__file__).resolve().parent / "launch.py"
# The benchmark must end within 180 s; an invocation still running this
# long after the start is killed and counted as failed.
DEADLINE_S = 170.0
SAMPLE_SIZE = 1024
# One client and one BLAS thread: at most nproc (2 on the reference
# machine) threads compute at any time, and runs do not contend.
BLAS_THREADS = "1"


@dataclass
class Invocation:
    label: str
    argv: list[str]
    # report, export directory -> failure messages
    check: Callable[[dict, str], list[str]]


def _nmk(n: int, m: int, k: int) -> list[str]:
    return ["--n", str(n), "--m", str(m), "--k", str(k)]


def structure(seed: int, outdir: str) -> list[Invocation]:
    """The group layer: closure, tables, orders, maximal subgroups, oracle."""
    return [
        Invocation("family-4-3-3-variants", ["family", *_nmk(4, 3, 3), "--variants"],
                   lambda r, d: checks.check_family(r, 4, 3, 3, variants=True)),
        Invocation("family-5-4-3", ["family", *_nmk(5, 4, 3)],
                   lambda r, d: checks.check_family(r, 5, 4, 3, variants=False)),
        Invocation("family-6-5-4", ["family", *_nmk(6, 5, 4)],
                   lambda r, d: checks.check_family(r, 6, 5, 4, variants=False)),
        Invocation("export-4-3-3", ["export", *_nmk(4, 3, 3), "--outdir", outdir],
                   lambda r, d: checks.check_export(r, d, 4, 3, 3)),
    ]


def certify(seed: int, outdir: str) -> list[Invocation]:
    """Algebra products and GF(2) elimination, three ways; seeded zeta."""
    common = ["--seed", str(seed), "--sample-size", str(SAMPLE_SIZE)]
    return [
        Invocation("witness-5-4-3", ["witness", *_nmk(5, 4, 3), *common],
                   lambda r, d: checks.check_witness(r, 5, 4, 3, seed, SAMPLE_SIZE)),
        Invocation("witness-4-3-3-general",
                   ["witness", *_nmk(4, 3, 3), "--beta", "general",
                    "--zeta", "class-sum", *common],
                   lambda r, d: checks.check_witness(r, 4, 3, 3, seed, SAMPLE_SIZE)),
        Invocation("witness-4-3-3-exhaustive",
                   ["witness", *_nmk(4, 3, 3), "--exhaustive", *common],
                   lambda r, d: checks.check_witness(r, 4, 3, 3, seed, 512 * 512)),
    ]


def invariants(seed: int, outdir: str) -> list[Invocation]:
    """GF(p) elimination: the bitset path at p = 2, the ndarray path at p = 3."""
    pair = checks.group_orders("dihedral", 5, 4, 3)
    runs = [Invocation("invariants-5-4-3-pair", ["invariants", *_nmk(5, 4, 3), "--pair"],
                       lambda r, d: checks.check_invariants(r, "dihedral", pair, True))]
    for base in ("c9c9", "wreath", "heisenberg"):
        orders = checks.group_orders(base, 2, 1, 1, p=3)
        runs.append(Invocation(
            f"invariants-p3-{base}",
            ["invariants", "--p", "3", *_nmk(2, 1, 1), "--variant", base],
            lambda r, d, base=base, orders=orders:
                checks.check_invariants(r, base, orders, False)))
    return runs


WORKLOADS = {"structure": structure, "certify": certify, "invariants": invariants}
# What --trace 1 reports: the layers, and the traced run's own cost.
TRACE_METRICS = dict(tracer.LAYER_METRICS, **{"trace.wall_s": "s",
                                              "trace.overhead_s": "s",
                                              "trace.spans": "count"})


@dataclass
class Outcome:
    code: int
    stdout: bytes
    wall_s: float
    setup_s: float
    rss_mb: float
    spans: Optional[list]


def spawn(argv: list[str], workdir: Path, traced: bool, deadline: float) -> Outcome:
    """Run one CLI invocation in a fresh process and wait until it ends."""
    timing = workdir / "timing.json"
    spans = workdir / "spans.json"
    for path in (timing, spans):
        path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(LAUNCH), str(timing),
           str(spans) if traced else "-", "--", *argv]
    with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        killer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    # a process that was killed wrote no timing: count it as all set-up
    stats = {"main_entered": end, "peak_rss_kb": 0}
    if timing.exists():
        stats = json.loads(timing.read_text())
    span_list = json.loads(spans.read_text())["spans"] if traced and spans.exists() else None
    if code != 0:
        sys.stderr.write((workdir / "stderr").read_text(errors="replace"))
    return Outcome(code=code, stdout=(workdir / "stdout").read_bytes(),
                   wall_s=end - start, setup_s=stats["main_entered"] - start,
                   rss_mb=stats["peak_rss_kb"] / 1024.0, spans=span_list)


class Run:
    """Counts and per-invocation figures of one benchmark run."""

    def __init__(self, invocations: int) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True
        # figures[i]: one dict per round for the workload's i-th invocation
        self.figures: list[list[dict[str, float]]] = [[] for _ in range(invocations)]
        self.setups: list[float] = []
        self.peak_rss_mb = 0.0

    def verdict(self, inv: Invocation, out: Outcome, outdir: str) -> None:
        """Count one invocation; check its report if it exited 0."""
        self.attempted += 1
        if out.code != 0:
            self.failed += 1
            print(f"{inv.label}: exit code {out.code}", file=sys.stderr)
            return
        try:
            problems = inv.check(json.loads(out.stdout), outdir)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            problems = [f"report unreadable: {exc!r}"]
        if problems:
            self.failed += 1
            self.correct = False
            for msg in problems:
                print(f"{inv.label}: {msg}", file=sys.stderr)

    def per_round(self, name: str) -> float:
        """Sum over the invocations of each one's median over rounds."""
        return sum(statistics.median(f[name] for f in rounds)
                   for rounds in self.figures)


def run_round(run: Run, invs: list[Invocation], workdir: Path, outdir: str,
              trace: bool, deadline: float) -> None:
    for i, inv in enumerate(invs):
        shutil.rmtree(outdir, ignore_errors=True)
        out = spawn(inv.argv, workdir, False, deadline)
        print(f"{inv.label}: wall {out.wall_s:.3f} s, setup {out.setup_s:.3f} s, "
              f"peak rss {out.rss_mb:.1f} MB")
        run.verdict(inv, out, outdir)
        run.setups.append(out.setup_s)
        run.peak_rss_mb = max(run.peak_rss_mb, out.rss_mb)
        figures = {"wall_s": out.wall_s}
        run.figures[i].append(figures)
        if not trace:
            continue
        shutil.rmtree(outdir, ignore_errors=True)
        traced = spawn(inv.argv, workdir, True, deadline)
        run.verdict(inv, traced, outdir)
        if traced.stdout != out.stdout:
            run.correct = False
            print(f"{inv.label}: traced stdout differs from untraced", file=sys.stderr)
        figures.update(tracer.layer_metrics(traced.spans or []))
        top = sorted((v, k) for k, v in figures.items() if k.endswith(".s"))[-4:]
        print(f"{inv.label}: traced wall {traced.wall_s:.3f} s; most self time: "
              + ", ".join(f"{k} {v:.3f} s" for v, k in reversed(top)))
        figures["trace.wall_s"] = traced.wall_s
        figures["trace.overhead_s"] = traced.wall_s - out.wall_s
        figures["trace.spans"] = len(traced.spans or [])


def metrics(run: Run, trace: bool) -> dict[str, dict]:
    if not trace:
        return {
            "wall_s": {"value": run.per_round("wall_s"), "unit": "s"},
            "peak_rss_mb": {"value": run.peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(run.setups) * len(run.figures),
                        "unit": "s"},
        }
    return {name: {"value": run.per_round(name), "unit": unit}
            for name, unit in TRACE_METRICS.items()}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # let a terminated run stop its invocation and remove its working files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "mipverify" / "cli.py").is_file():
        print(f"mipverify sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + DEADLINE_S
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        outdir = str(workdir / "export")
        invs = WORKLOADS[args.workload](args.seed, outdir)
        run = Run(len(invs))
        while True:
            run_round(run, invs, workdir, outdir, bool(args.trace), deadline)
            elapsed = time.monotonic() - start
            if elapsed * (1 + 1 / len(run.figures[0])) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = metrics(run, bool(args.trace))
    for name, m in result.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} rounds = {len(run.figures[0])} attempted = {run.attempted} "
          f"failed = {run.failed}")
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
