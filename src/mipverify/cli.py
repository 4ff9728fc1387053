"""Command-line entry point.

Subcommands::

    family      build the family at (n, m, k) and verify the structural facts
                (optionally the cross-variant isomorphisms)
    witness     build F2[G], F2[H] and certify the unit-witness isomorphism
    invariants  compute the algebra-determined invariant report(s)
    export      write multiplication tables, presentations and a GAP
                cross-check script

Exit codes: 0 all checks passed, 1 verification failure, 2 usage error
(including a run refused by the guard or a memory budget), 3 I/O error, 4
internal error (an uncaught RuntimeError or ArithmeticError, which signals
a broken internal invariant).  Reports are canonical JSON on stdout (or
``--output``); equal configurations produce byte-identical reports.  A
report is streamed in pieces of about 64 KiB, and an ``--output`` file
appears only once it is complete.  Timing goes to stderr only.
The environment variable MIPVERIFY_GUARD overrides the built-in guard
default; like ``--guard`` and ``--sample-size``, it must be an integer of at
least 1, or the run exits 2.

Each subcommand imports the layers it runs when it starts (``witness`` the
algebra and witness modules, ``invariants`` the algebra and invariants
modules, ``export`` the export writer), so ``family`` and ``export`` never
load the algebra; the structure checks load the isomorphism layer only when
they run.  The stderr timing includes those imports.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
import time
from typing import Optional, Sequence

from .ambient import DEFAULT_GUARD, GuardExceeded
from .family import build_family
from .report import envelope, iter_canonical_json

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

ODD_BASES = ("heisenberg", "wreath", "c9c9")
ZETA_CHOICES = ("one", "central-element", "class-sum")


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _env_int(name: str, fallback: int) -> int:
    """An integer of at least 1 from the environment; exit 2 if invalid."""
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        value = int(raw, 0)
    except ValueError:
        value = 0
    if value < 1:
        print(f"error: invalid {name}={raw!r}: expected an integer of at "
              f"least 1", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return value


def build_parser() -> argparse.ArgumentParser:
    guard_default = _env_int("MIPVERIFY_GUARD", DEFAULT_GUARD)

    top = argparse.ArgumentParser(
        prog="mipverify",
        description="Verification toolkit for a pair of non-isomorphic "
                    "2-groups with isomorphic modular group algebras.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, odd: bool = False) -> None:
        p.add_argument("--n", type=int, required=True,
                       help="exponent parameter n")
        p.add_argument("--m", type=int, required=True,
                       help="exponent parameter m")
        p.add_argument("--k", type=int, required=True,
                       help="base-group parameter k")
        p.add_argument("--guard", type=_positive_int, default=guard_default,
                       help="ambient size guard (elements)")
        p.add_argument("--output", default=None,
                       help="write the JSON report here instead of stdout")

    fam = sub.add_parser("family", help="structural verification")
    common(fam)
    fam.add_argument("--variant", default="dihedral",
                     choices=("dihedral", "semidihedral", "quaternion"))
    fam.add_argument("--variants", action="store_true",
                     help="additionally cross-check the three ambient kinds")

    wit = sub.add_parser("witness", help="unit-witness certification")
    common(wit)
    wit.add_argument("--variant", default="dihedral",
                     choices=("dihedral", "semidihedral", "quaternion"))
    wit.add_argument("--beta", default="standard",
                     choices=("standard", "k3", "general"),
                     help="witness construction")
    wit.add_argument("--zeta", default="central-element", choices=ZETA_CHOICES,
                     help="central unit for --beta general")
    wit.add_argument("--seed", type=int, default=0)
    # None stands for witness.DEFAULT_SAMPLE_SIZE, read when the command runs
    wit.add_argument("--sample-size", type=_positive_int, default=None)
    wit.add_argument("--exhaustive", action="store_true",
                     help="check multiplicativity on all |G|^2 pairs")
    wit.add_argument("--no-matrix", action="store_true",
                     help="omit the basis-image matrix from the report")

    inv = sub.add_parser("invariants", help="algebra-determined invariants")
    common(inv)
    inv.add_argument("--p", type=int, default=2, help="prime (2 or odd)")
    inv.add_argument("--variant", default=None,
                     help="2-case kind or odd base: dihedral, semidihedral, "
                          "quaternion, heisenberg, wreath, c9c9")
    inv.add_argument("--pair", action="store_true",
                     help="2-case only: report both G and H and compare")

    exp = sub.add_parser("export", help="write cross-check files")
    common(exp)
    exp.add_argument("--variant", default="dihedral",
                     choices=("dihedral", "semidihedral", "quaternion"))
    exp.add_argument("--outdir", required=True)

    return top


# Characters handed to the report's destination in one write: the encoder's
# fragments are gathered to about this size, so at most this much of a
# report (plus one fragment, at most one matrix row) is held at once.
_PIECE_CHARS = 2 ** 16


def _write_report(doc: dict, stream) -> None:
    pieces, size = [], 0
    for fragment in iter_canonical_json(doc):
        pieces.append(fragment)
        size += len(fragment)
        if size >= _PIECE_CHARS:
            stream.write("".join(pieces))
            pieces, size = [], 0
    if pieces:
        stream.write("".join(pieces))


def _emit(doc: dict, output: Optional[str]) -> None:
    """Stream the canonical JSON of ``doc`` to stdout or to ``output``.

    A file is written under a temporary name in its directory and renamed
    over ``output`` only once the whole report is written, so a run that
    fails partway leaves no truncated report (and any earlier file intact).
    As with ``open(output, "w")``, the file keeps its mode and a symbolic
    link is written through; a target that is not a regular file, such as
    ``/dev/stdout``, is written in place.
    """
    if output is None:
        _write_report(doc, sys.stdout)
        return
    if os.path.exists(output) and not os.path.isfile(output):
        with open(output, "w", encoding="ascii", newline="\n") as fh:
            _write_report(doc, fh)
        return
    target = os.path.realpath(output)
    directory, name = os.path.split(target)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="ascii", newline="\n") as fh:
            if os.path.exists(target):
                os.fchmod(fd, stat.S_IMODE(os.stat(target).st_mode))
            _write_report(doc, fh)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_family(args: argparse.Namespace) -> int:
    from .family import compare_variants, verify_structure

    config = {"n": args.n, "m": args.m, "k": args.k, "variant": args.variant,
              "variants": bool(args.variants), "guard": args.guard}
    inst = build_family(2, args.variant, args.n, args.m, args.k,
                        guard=args.guard)
    structure = verify_structure(inst)
    payload = {"structure": structure.as_dict()}
    ok = structure.ok
    if args.variants:
        variants = compare_variants(inst)
        payload["variants"] = variants.as_dict()
        ok = ok and variants.ok
    _emit(envelope("family", config, payload), args.output)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _make_zeta(FH, inst, kind: str, seed: int, m: int):
    import random

    from .algebra import is_unit, unit_order

    if kind == "one":
        return FH.one()
    if kind == "central-element":
        c = inst.named["c"]
        return FH.embed(FH.group.ambient.power(c, 2 ** (inst.params[2] - 1)))
    sums = [s for s in FH.class_sums() if s.augmentation() == 0]
    rng = random.Random(seed)
    for _ in range(64):
        nu = FH.zero()
        for s in sums:
            if rng.randrange(2):
                nu = nu + s
        zeta = FH.one() + nu
        if zeta.is_central() and is_unit(zeta) and unit_order(zeta) < 2 ** m:
            return zeta
    raise ValueError("no suitable class-sum zeta found for this seed")


def cmd_witness(args: argparse.Namespace) -> int:
    from .algebra import GroupAlgebra
    from .report import certificate_as_dict
    from .witness import (DEFAULT_SAMPLE_SIZE, build_beta, build_beta_general,
                          build_beta_k3, verify_witness)

    sample_size = (DEFAULT_SAMPLE_SIZE if args.sample_size is None
                   else args.sample_size)
    config = {"n": args.n, "m": args.m, "k": args.k, "variant": args.variant,
              "beta": args.beta, "zeta": args.zeta if args.beta == "general" else None,
              "seed": args.seed, "sample_size": sample_size,
              "exhaustive": bool(args.exhaustive), "guard": args.guard}
    inst = build_family(2, args.variant, args.n, args.m, args.k,
                        guard=args.guard)
    FG = GroupAlgebra(inst.G)
    FH = GroupAlgebra(inst.H)
    if args.beta == "standard":
        beta = build_beta(FH, inst.x, inst.z)
    elif args.beta == "k3":
        d = inst.named["d"]
        beta = build_beta_k3(FH, inst.x, inst.z,
                             inst.ambient.power(d, 2), args.k)
    else:
        zeta = _make_zeta(FH, inst, args.zeta, args.seed, args.m)
        beta = build_beta_general(FH, zeta, inst.x, inst.z, args.m)
    cert = verify_witness(FG, FH, beta, (args.n, args.m, args.k),
                          seed=args.seed, sample_size=sample_size,
                          exhaustive=args.exhaustive)
    payload = {"certificate": certificate_as_dict(
        cert, include_matrix=not args.no_matrix)}
    _emit(envelope("witness", config, payload), args.output)
    return EXIT_OK if cert.valid else EXIT_VERIFICATION


def _odd_instance(p: int, base: str, n: int, m: int, k: int, guard: int):
    if base == "heisenberg":
        return build_family(p, "heisenberg", n, m, k, guard=guard)
    if base == "wreath":
        from .tables import wreath_cyclic_table
        table, gens = wreath_cyclic_table(p)
        return build_family(p, "table", n, m, k, guard=guard, table=table,
                            table_generators=gens)
    if base == "c9c9":
        if p != 3:
            raise ValueError("the c9c9 base is specific to p = 3")
        from .tables import semidirect_c9c9_table
        table, gens = semidirect_c9c9_table()
        return build_family(p, "table", n, m, k, guard=guard, table=table,
                            table_generators=gens)
    raise ValueError(f"unknown odd base {base!r}; expected one of {ODD_BASES}")


def cmd_invariants(args: argparse.Namespace) -> int:
    from .algebra import GroupAlgebra
    from .invariants import invariant_report, reports_invariant_equal

    p = args.p
    variant = args.variant
    config = {"p": p, "n": args.n, "m": args.m, "k": args.k,
              "variant": variant, "pair": bool(args.pair),
              "guard": args.guard}
    if p == 2:
        variant = variant or "dihedral"
        config["variant"] = variant
        inst = build_family(2, variant, args.n, args.m, args.k,
                            guard=args.guard)
        reports = [invariant_report(inst.G, GroupAlgebra(inst.G), "G")]
        payload: dict = {}
        if args.pair:
            reports.append(invariant_report(inst.H, GroupAlgebra(inst.H), "H"))
            payload["invariant_equal"] = reports_invariant_equal(*reports)
        payload["reports"] = [r.as_dict() for r in reports]
        _emit(envelope("invariants", config, payload), args.output)
        if args.pair and not payload["invariant_equal"]:
            return EXIT_VERIFICATION
        return EXIT_OK
    if args.pair:
        raise ValueError("--pair applies to the 2-case only")
    variant = variant or "heisenberg"
    config["variant"] = variant
    inst = _odd_instance(p, variant, args.n, args.m, args.k, args.guard)
    rep = invariant_report(inst.G, GroupAlgebra(inst.G), variant)
    payload = {"reports": [rep.as_dict()]}
    _emit(envelope("invariants", config, payload), args.output)
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    from .export import write_exports

    inst = build_family(2, args.variant, args.n, args.m, args.k,
                        guard=args.guard)
    written = write_exports(inst, args.outdir)
    config = {"n": args.n, "m": args.m, "k": args.k, "variant": args.variant,
              "outdir": args.outdir, "guard": args.guard}
    payload = {"files": written}
    _emit(envelope("export", config, payload), args.output)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"family": cmd_family, "witness": cmd_witness,
                "invariants": cmd_invariants, "export": cmd_export}
    start = time.monotonic()
    try:
        code = handlers[args.command](args)
    except (ValueError, GuardExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (RuntimeError, ArithmeticError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        elapsed = time.monotonic() - start
        print(f"elapsed_seconds={elapsed:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
