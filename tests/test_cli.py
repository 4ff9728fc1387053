"""Command-line interface: exit codes, determinism, serialization, exports."""

import hashlib
import json
import os
import shutil
import stat
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mipverify.cli import main
from mipverify.export import write_exports
from mipverify.report import (SCHEMA_VERSION, HexRows, canonical_json,
                              envelope, hex_row_to_key, iter_canonical_json,
                              row_hex)

from conftest import reference_json, row_cayley_table

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "mipverify"] + list(args),
                          capture_output=True, text=True, env=env)


NMK433 = ["--n", "4", "--m", "3", "--k", "3"]


# --- serialization units -----------------------------------------------------------


def test_canonical_json_shape():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
    assert text.endswith("\n")


def test_canonical_json_numpy_values():
    doc = {"x": np.int64(3), "y": np.bool_(True), "z": np.array([1, 2]),
           "t": (np.uint8(1),)}
    text = canonical_json(doc)
    assert json.loads(text) == {"x": 3, "y": True, "z": [1, 2], "t": [1]}
    assert text == reference_json(doc)


# Values at the edges of the encoding, each compared with the stdlib's
# rendering of a converted copy (``reference_json``).
EDGE_DOCS = {
    "empty-dict": {},
    "empty-list": [],
    "nested-empties": {"a": {}, "b": [], "c": [[], {}, [[]]], "d": {"e": {}}},
    "tuple-none-negative": {"t": (1, None, -3), "n": None, "i": -(2 ** 70),
                            "z": 0},
    "numpy": {"b": np.bool_(False), "i": np.int64(-7), "f": np.float64(0.1),
              "a": np.array([[1, 2], [3, 4]]), "e": np.array([], dtype=np.int64),
              "u": np.uint8(255), "h": np.float32(0.5),
              "l": [np.bool_(True), np.int32(2)]},
    "non-ascii": {"s": "h\u00e9llo \u2603 \U0001f600 \u2028",
                  "\u043a\u043b\u044e\u0447": "\"q\" \\ \t\x00 \x7f"},
    "floats": [0.1, 1e-07, 1e22, -0.0, 123456789.123, 1.0, 2.5e-300,
               float("inf"), float("nan")],
    "int-keys": {2: "x", 10: "y", "b": [True, False]},
    "hex-rows": {"rows": HexRows((0, 1, 2 ** 100, 2 ** 128 - 1), 128),
                 "none": HexRows((), 64)},
    "top-level-scalar": "top",
    "top-level-tuple": (None, -1, ()),
}


@pytest.mark.parametrize("doc", list(EDGE_DOCS.values()), ids=list(EDGE_DOCS))
def test_canonical_json_matches_stdlib_on_edge_values(doc):
    assert canonical_json(doc) == reference_json(doc)


def test_canonical_json_rejects_unknown_types():
    with pytest.raises(TypeError, match="not JSON serializable"):
        canonical_json({"a": [object()]})


def test_stream_pieces_are_bounded():
    """The stream never receives more than 64 KiB plus one matrix row at once,
    and the pieces join to the canonical text."""
    import mipverify.cli as cli_mod

    doc = envelope("witness", {"n": 6},
                   {"certificate": {"matrix_rows": HexRows(
                       tuple(3 ** e for e in range(300)), 2 ** 12)}})
    one_row = max(len(f) for f in iter_canonical_json(doc))
    assert one_row == len(",\n      ") + len(row_hex(0, 2 ** 12)) + 2
    pieces = []
    cli_mod._write_report(doc, SimpleNamespace(write=pieces.append))
    assert cli_mod._PIECE_CHARS == 2 ** 16
    assert len(pieces) > 2
    assert max(map(len, pieces)) <= cli_mod._PIECE_CHARS + one_row
    assert "".join(pieces) == canonical_json(doc) == reference_json(doc)


def test_row_hex_roundtrip():
    dim = 512
    for key in (0, 1, 2 ** 511, 123456789):
        row = row_hex(key, dim)
        assert len(row) == 128  # 64 bytes, little-endian, lowercase hex
        assert row == row.lower()
        assert hex_row_to_key(row) == key
    assert row_hex(1, 512).startswith("01")


def test_envelope_fields():
    doc = envelope("family", {"n": 4}, {"payload": 1})
    assert doc["schema_version"] == SCHEMA_VERSION == 2
    assert doc["command"] == "family"
    assert doc["config"] == {"n": 4}
    assert doc["payload"] == 1


# --- exit codes ------------------------------------------------------------------


def test_family_ok_exit_zero():
    r = run_cli(["family", "--n", "4", "--m", "3", "--k", "3"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["schema_version"] == 2 and doc["command"] == "family"
    assert doc["structure"]["ok"] is True


def test_usage_error_exit_two():
    r = run_cli(["family", "--n", "3", "--m", "3", "--k", "3"])
    assert r.returncode == 2
    assert r.stdout == "" and "error:" in r.stderr


def test_argparse_errors_exit_two():
    assert run_cli(["family", "--n", "4"]).returncode == 2
    assert run_cli(["frobnicate"]).returncode == 2


def test_io_error_exit_three(tmp_path):
    r = run_cli(["family", "--n", "4", "--m", "3", "--k", "3",
                 "--output", str(tmp_path / "no-such-dir" / "x.json")])
    assert r.returncode == 3


def _fail_after_first_piece(monkeypatch):
    """Make the CLI's encoder raise an I/O error once a piece has gone out."""
    import mipverify.cli as cli_mod

    encode = cli_mod.iter_canonical_json

    def failing(doc):
        sent = 0
        for fragment in encode(doc):
            yield fragment
            sent += len(fragment)
            if sent > cli_mod._PIECE_CHARS:
                raise OSError(28, "No space left on device")
        raise AssertionError("the report ended before the failure")

    monkeypatch.setattr(cli_mod, "iter_canonical_json", failing)


def test_output_failing_partway_leaves_no_file(tmp_path, monkeypatch, capsys):
    _fail_after_first_piece(monkeypatch)
    out = tmp_path / "report.json"
    code = main(["witness", *NMK433, "--output", str(out)])
    assert code == 3 and "No space left on device" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_output_failing_partway_keeps_earlier_file(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    out.write_text("earlier report\n")
    _fail_after_first_piece(monkeypatch)
    assert main(["witness", *NMK433, "--output", str(out)]) == 3
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_text() == "earlier report\n"


def test_output_file_mode_as_plain_open(tmp_path):
    """A new report file gets the mode open(path, "w") gives; a replaced one
    keeps its own mode, as truncating it would."""
    plain = tmp_path / "plain.json"
    open(plain, "w").close()
    out = tmp_path / "report.json"
    args = ["invariants", "--p", "3", "--n", "2", "--m", "1", "--k", "1",
            "--output", str(out)]
    assert main(args) == 0
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)
    os.chmod(out, 0o600)
    assert main(args) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o600
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.json", "report.json"]


def test_output_through_symlink_and_to_device(tmp_path):
    """A symbolic link is written through, not replaced, and a target that
    is not a regular file is written in place."""
    real = tmp_path / "real.json"
    link = tmp_path / "link.json"
    link.symlink_to(real)
    args = ["invariants", "--p", "3", "--n", "2", "--m", "1", "--k", "1"]
    want = run_cli(args).stdout
    assert run_cli([*args, "--output", str(link)]).returncode == 0
    assert link.is_symlink() and real.read_text() == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]
    if not Path("/dev/stdout").exists():
        pytest.skip("no /dev/stdout on this platform")
    r = run_cli([*args, "--output", "/dev/stdout"])
    assert r.returncode == 0 and r.stdout == want


def test_verification_failure_exit_one(monkeypatch, capsys):
    import mipverify.report as report_mod
    import mipverify.witness as witness_mod

    class StubCert:
        valid = False

    monkeypatch.setattr(witness_mod, "verify_witness",
                        lambda *a, **kw: StubCert())
    monkeypatch.setattr(report_mod, "certificate_as_dict",
                        lambda cert, include_matrix=True: {"valid": False})
    code = main(["witness", "--n", "4", "--m", "3", "--k", "3"])
    assert code == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["certificate"] == {"valid": False}


# --- determinism ------------------------------------------------------------------


def test_family_byte_identical():
    r1 = run_cli(["family", "--n", "4", "--m", "3", "--k", "3"])
    r2 = run_cli(["family", "--n", "4", "--m", "3", "--k", "3"])
    assert r1.stdout == r2.stdout and r1.returncode == r2.returncode == 0


def test_witness_byte_identical_with_matrix():
    args = ["witness", "--n", "4", "--m", "3", "--k", "3", "--seed", "0"]
    r1, r2 = run_cli(args), run_cli(args)
    assert r1.returncode == 0 and r1.stdout == r2.stdout
    doc = json.loads(r1.stdout)
    cert = doc["certificate"]
    assert cert["valid"] is True and cert["rank"] == 512
    assert len(cert["matrix_rows"]) == 512
    assert all(len(row) == 128 for row in cert["matrix_rows"])


# sha256 of the witness report at (4,3,3), seed 0, sample size 1024, with
# the extra arguments below.  Apart from the schema_version line and the
# unit-recognition clause, which schema 2 drops, these reports are those of
# the earlier certificate that multiplied algebra elements pair by pair.
WITNESS_REPORT_SHA256 = {
    (): "29f2e5d18820c2933c4d19c5b71c6f47de0962a27452a41752af714695dd030b",
    ("--exhaustive",):
        "e484b2c1bb1b4124662a9084a9e833fd8e92800d4eea457aeb41a821bb9b8640",
    ("--beta", "general", "--zeta", "class-sum"):
        "54f6ab0af974a311cc3ccc0ea8284dd19e4b4dbc4d6c0a04553ae4817ee8b33e",
    ("--beta", "general", "--zeta", "class-sum", "--exhaustive"):
        "3563d52b232710faf5ce0d34f3d1eeef2fb6ae954ae250ede9e22bb0ca98c406",
    ("--beta", "k3"):
        "1f5e4983c92cfad0d1d8bc9393e37ad18bf2ca2b213d8a2c8f8cd40a80fdf34a",
}


@pytest.mark.parametrize("extra", list(WITNESS_REPORT_SHA256),
                         ids=lambda extra: "-".join(a.strip("-") for a in extra)
                         or "standard")
def test_witness_report_golden_digest(extra):
    r = run_cli(["witness", "--n", "4", "--m", "3", "--k", "3", "--seed", "0",
                 "--sample-size", "1024", *extra])
    assert r.returncode == 0
    digest = hashlib.sha256(r.stdout.encode("ascii")).hexdigest()
    assert digest == WITNESS_REPORT_SHA256[extra]


# sha256 of the stdout of the benchmark's three witness runs, sample size
# 1024, at seeds 0 and 5.  Apart from the schema_version line and the
# unit-recognition clause, these reports are those of the certificate that
# eliminated all units for clause (e) and walked a unit word per pair for
# --exhaustive.
WITNESS_GOLDEN_SHA256 = {
    ("5 4 3", "0"): "766507d102157351fd9d71ae1b09ea73713d8bff8eb255eeab72cfaee34140a4",
    ("4 3 3 --beta general --zeta class-sum", "0"):
        "54f6ab0af974a311cc3ccc0ea8284dd19e4b4dbc4d6c0a04553ae4817ee8b33e",
    ("4 3 3 --exhaustive", "0"):
        "e484b2c1bb1b4124662a9084a9e833fd8e92800d4eea457aeb41a821bb9b8640",
    ("5 4 3", "5"): "28d40473f035c6dc817ed110782c3c627768c72736b9e222900a33f8f5fcfa97",
    ("4 3 3 --beta general --zeta class-sum", "5"):
        "b75a12713e8cf2aaceee0879f6ef90deed9951ae420932f5ab54c27e578ab25f",
    ("4 3 3 --exhaustive", "5"):
        "f8c61513a41027d0deb6880534e72a89bc7a28e3cf55304d029698c05faf9266",
    # the class-sum witness at another seed, whose zeta is another class sum
    ("4 3 3 --beta general --zeta class-sum", "1"):
        "c043be16b20af6f09d061b25eaee1357a79312e61f818254c2e6042412c869aa",
}


# sha256 of `witness --n 6 --m 5 --k 4` with its matrix (seed 0, sample size
# 1024), as written when the whole report text was built before the write.
WITNESS_654_MATRIX_SHA256 = \
    "44400c75cf222142f0b2fab2ad5b43fb50a0e1c41783fadbe4506c9367637863"

# Reads the peak resident set (VmHWM) of the CLI process itself, as the
# benchmark's launcher does, and reports it on the last line of stderr.
_PEAK_SCRIPT = (
    "import sys\n"
    "from mipverify.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "with open('/proc/self/status', encoding='ascii') as fh:\n"
    "    peak = [line for line in fh if line.startswith('VmHWM:')]\n"
    "sys.stderr.write(peak[0])\n"
    "sys.exit(code)\n")


@pytest.mark.skipif(not Path("/proc/self/status").is_file(),
                    reason="VmHWM is read from /proc/self/status (Linux)")
def test_witness_654_matrix_streams_in_bounded_memory(tmp_path):
    """The 16,384-row certificate streams to its destination: the process
    peaks below 120 MB (262 MB when the report was built as one string)
    and the bytes are unchanged."""
    out = tmp_path / "witness-6-5-4.json"
    with open(out, "wb") as fh:
        r = subprocess.run([sys.executable, "-c", _PEAK_SCRIPT, "witness",
                            "--n", "6", "--m", "5", "--k", "4"],
                           stdout=fh, stderr=subprocess.PIPE, text=True)
    assert r.returncode == 0, r.stderr
    peak_kb = int(r.stderr.rsplit("VmHWM:", 1)[1].split()[0])
    assert peak_kb / 1024 < 120, peak_kb
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WITNESS_654_MATRIX_SHA256


def test_witness_golden_digests():
    for (args, seed), digest in WITNESS_GOLDEN_SHA256.items():
        n, m, k, *extra = args.split()
        r = run_cli(["witness", "--n", n, "--m", m, "--k", k, *extra,
                     "--seed", seed, "--sample-size", "1024"])
        assert r.returncode == 0, (args, seed)
        assert hashlib.sha256(r.stdout.encode("ascii")).hexdigest() == digest, \
            (args, seed)


# sha256 of the stdout of `family`.  Apart from the schema_version line,
# config.oracle_bound (dropped in schema 2) and the g-vs-h-control clause
# (read off abelian maximal exponents in schema 2), these reports are those
# of the compare_variants that proved the variant isomorphisms by brute
# force and searched for the witnesses on Cayley tables.
FAMILY_GOLDEN_SHA256 = {
    "4 3 3 --variants": "945cbf653a8878d6177df7a515a95d25e77143fd0d2df4dbf92047c9c947f88f",
    "5 4 3 --variants": "81aa702a49697945d03864878f2c313baf68fb1d066b01f719afd4ddcfcdc82f",
    "5 4 3": "704073dbc46ef41ef7669143058e2a08ad07e2f31b7f4b4e8ee62f4bb7fbcd1d",
    "6 5 4": "47a93e6607b4870fc240400ff9cd8076d312862dc3d4bbd168526b10d660c676",
    # no schema 1 report: the control's oracle refused |G| = 2^14 (exit 2)
    "6 5 4 --variants": "8b6af5fc5e363057b71c13fe7b3831247128ee819a1bb25f112f56f0a942f60b",
    "7 6 4 --variants": "f747dbd7e312aa7f4313c717d45bfbea3573e65d0d28121a2742d2d8f261f17a",
    "8 7 4": "435a9b6ae19dbe44b503fbcc1c3c7acee5e00498c7108d45f7cd03e2b777ae61",
}


def test_family_golden_digests():
    for args, digest in FAMILY_GOLDEN_SHA256.items():
        n, m, k, *extra = args.split()
        r = run_cli(["family", "--n", n, "--m", m, "--k", k, *extra])
        assert r.returncode == 0, args
        assert hashlib.sha256(r.stdout.encode("ascii")).hexdigest() == digest, args


# sha256 of the stdout of `invariants`, as written when the conjugacy classes
# were kept as one index tuple per class: they pin the class-size census
# and the class-sum p-th-power count.
INVARIANTS_GOLDEN_SHA256 = {
    "--n 4 --m 3 --k 3 --pair":
        "e86707437d895c3d3858cefece2301f13e3f0ee1f664ea65da841b8a644b9dfd",
    "--n 5 --m 4 --k 3 --pair":
        "6cb03fa5f5d673f0f147352370f1e5574455954f1f705662fa9d0c2e4d6ae4d9",
    "--n 6 --m 5 --k 4 --pair":
        "5d118bbf39ac9c277d79c49cb36a3079926ada65baf66d59c7b3a857e2115fe7",
    "--p 3 --n 2 --m 1 --k 1 --variant c9c9":
        "d4ae1955898aa38bb530392220a177d17c46badca0c02f52d9d07659404c364b",
    "--p 3 --n 2 --m 1 --k 1 --variant wreath":
        "85e30a23cad0d6e3e94395192c0bef9d5b50468ae8fd8eea44f335e2979ef3a6",
    "--p 3 --n 2 --m 1 --k 1 --variant heisenberg":
        "13e5f74393cd92176b9579f23b9773b48159e6c6c6f13fcc3fdfeb6d07b433b7",
}


def test_invariants_golden_digests():
    for args, digest in INVARIANTS_GOLDEN_SHA256.items():
        r = run_cli(["invariants", *args.split()])
        assert r.returncode == 0, args
        assert hashlib.sha256(r.stdout.encode("ascii")).hexdigest() == digest, args


def test_output_file_matches_stdout(tmp_path):
    """--output writes the bytes of stdout, also for a witness report of
    several pieces, and leaves no other file."""
    out = tmp_path / "report.json"
    for args in (["family", *NMK433], ["witness", *NMK433]):
        r_file = run_cli([*args, "--output", str(out)])
        r_std = run_cli(args)
        assert r_file.returncode == r_std.returncode == 0 and r_file.stdout == ""
        assert out.read_text() == r_std.stdout
        assert list(tmp_path.iterdir()) == [out]
    assert len(r_std.stdout) > 2 ** 16


# Every subcommand's report, streamed; OUTDIR stands for a fresh directory.
OUTDIR = object()
SUBCOMMAND_RUNS = {
    "family-variants": ["family", *NMK433, "--variants"],
    "witness-matrix": ["witness", *NMK433],
    "witness-no-matrix": ["witness", *NMK433, "--no-matrix"],
    "invariants-pair": ["invariants", *NMK433, "--pair"],
    "invariants-odd": ["invariants", "--p", "3", "--n", "2", "--m", "1",
                       "--k", "1", "--variant", "heisenberg"],
    "export": ["export", *NMK433, "--outdir", OUTDIR],
}


@pytest.mark.parametrize("argv", list(SUBCOMMAND_RUNS.values()),
                         ids=list(SUBCOMMAND_RUNS))
def test_streamed_report_matches_stdlib(argv, tmp_path, monkeypatch, capsys):
    """The bytes the CLI streams are the stdlib's rendering of the report."""
    import mipverify.cli as cli_mod

    docs = []
    emit = cli_mod._emit

    def recording_emit(doc, output):
        docs.append(doc)
        emit(doc, output)

    monkeypatch.setattr(cli_mod, "_emit", recording_emit)
    argv = [str(tmp_path / "out") if a is OUTDIR else a for a in argv]
    assert main(argv) == 0
    assert len(docs) == 1
    assert capsys.readouterr().out == reference_json(docs[0])


def test_timing_goes_to_stderr_only():
    r = run_cli(["family", "--n", "4", "--m", "3", "--k", "3"])
    assert "elapsed_seconds" in r.stderr
    assert "elapsed_seconds" not in r.stdout


# --- env overrides ------------------------------------------------------------------


def test_guard_env_override():
    r = run_cli(["family", "--n", "4", "--m", "3", "--k", "3"],
                env_extra={"MIPVERIFY_GUARD": "64"})
    assert r.returncode == 2 and "guard" in r.stderr


def test_guard_flag_beats_env():
    r = run_cli(["family", "--n", "4", "--m", "3", "--k", "3",
                 "--guard", str(2 ** 22)],
                env_extra={"MIPVERIFY_GUARD": "64"})
    assert r.returncode == 0


@pytest.mark.parametrize("size", ["0", "-5"])
def test_sample_size_below_one_exit_two(size):
    r = run_cli(["witness", "--n", "4", "--m", "3", "--k", "3",
                 "--sample-size", size])
    assert r.returncode == 2 and r.stdout == ""
    assert "--sample-size" in r.stderr


@pytest.mark.parametrize("name,value", [("MIPVERIFY_GUARD", "abc"),
                                        ("MIPVERIFY_GUARD", "0")])
def test_invalid_env_value_exit_two(name, value):
    r = run_cli(["family", "--n", "4", "--m", "3", "--k", "3"],
                env_extra={name: value})
    assert r.returncode == 2 and r.stdout == ""
    assert f"invalid {name}={value!r}" in r.stderr


@pytest.mark.parametrize("guard", ["0", "-3"])
def test_guard_below_one_exit_two(guard):
    r = run_cli(["family", "--n", "4", "--m", "3", "--k", "3",
                 "--guard", guard])
    assert r.returncode == 2 and r.stdout == ""
    assert "--guard" in r.stderr


def test_table_budget_exit_two(tmp_path, monkeypatch, capsys):
    import mipverify.groups as groups_mod

    monkeypatch.setattr(groups_mod, "TABLE_BUDGET_BYTES", 1000)
    code = main(["export", "--n", "4", "--m", "3", "--k", "3",
                 "--outdir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "table budget" in captured.err


def test_wreath_table_over_budget_exit_two(capsys):
    start = time.monotonic()
    code = main(["invariants", "--p", "5", "--n", "1", "--m", "1", "--k", "1",
                 "--variant", "wreath"])
    captured = capsys.readouterr()
    assert time.monotonic() - start < 5
    assert code == 2 and captured.out == ""
    assert "table budget of 1073741824" in captured.err
    assert "Traceback" not in captured.err


def test_witness_764_over_unit_budget_exit_two(capsys):
    """At |G| = 2^16 the witness is refused before its unit closure."""
    start = time.monotonic()
    code = main(["witness", "--n", "7", "--m", "6", "--k", "4", "--no-matrix"])
    captured = capsys.readouterr()
    assert time.monotonic() - start < 60
    assert code == 2 and captured.out == ""
    assert "unit budget of 1073741824" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("exc", [RuntimeError("stalled series"),
                                 ArithmeticError("bad division")])
def test_internal_error_exit_four(monkeypatch, capsys, exc):
    import mipverify.cli as cli_mod
    import mipverify.family as family_mod

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(family_mod, "verify_structure", broken)
    code = main(["family", "--n", "4", "--m", "3", "--k", "3"])
    captured = capsys.readouterr()
    assert code == cli_mod.EXIT_INTERNAL == 4 and captured.out == ""
    assert f"internal error: {type(exc).__name__}: {exc}" in captured.err


def test_config_echoes_parameters():
    r = run_cli(["witness", "--n", "4", "--m", "3", "--k", "3",
                 "--beta", "k3", "--no-matrix"])
    assert r.returncode == 0
    config = json.loads(r.stdout)["config"]
    assert config["beta"] == "k3" and config["seed"] == 0
    assert config["sample_size"] == 1024 and config["exhaustive"] is False


# --- subcommand behaviour -----------------------------------------------------------


def test_witness_order_note_in_report():
    r = run_cli(["witness", "--n", "5", "--m", "4", "--k", "3", "--no-matrix"])
    assert r.returncode == 0
    cert = json.loads(r.stdout)["certificate"]
    assert cert["beta_order"] == 16
    assert "2^k" in cert["order_note"]


def test_witness_k3_requires_k3():
    r = run_cli(["witness", "--n", "5", "--m", "4", "--k", "4", "--beta", "k3"])
    assert r.returncode == 2


def test_invariants_pair_equal():
    r = run_cli(["invariants", "--n", "4", "--m", "3", "--k", "3", "--pair"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["invariant_equal"] is True
    ids = [rep["identifier"] for rep in doc["reports"]]
    assert ids == ["G", "H"]


def test_invariants_odd_single():
    r = run_cli(["invariants", "--p", "3", "--n", "2", "--m", "1", "--k", "1",
                 "--variant", "heisenberg"])
    assert r.returncode == 0
    rep = json.loads(r.stdout)["reports"][0]
    assert rep["group_order"] == 81
    assert rep["n"]["index"] == 1


def test_invariants_pair_rejected_for_odd():
    r = run_cli(["invariants", "--p", "3", "--n", "2", "--m", "1", "--k", "1",
                 "--pair"])
    assert r.returncode == 2


def test_export_files(tmp_path):
    outdir = tmp_path / "exports"
    r = run_cli(["export", "--n", "4", "--m", "3", "--k", "3",
                 "--outdir", str(outdir)])
    assert r.returncode == 0
    files = json.loads(r.stdout)["files"]
    assert files == ["check.g", "g_table.csv", "h_table.csv",
                     "presentations.txt"]
    pres = (outdir / "presentations.txt").read_text()
    assert "y^x = y u, u^x = u^{-1}, u^y = u^{-1}" in pres
    assert "u^z = u" in pres
    gap = (outdir / "check.g").read_text()
    assert "IsomorphismGroups" in gap and gap.rstrip().endswith("QUIT;")
    table = (outdir / "g_table.csv").read_text().splitlines()
    assert len(table) == 512
    first = [int(v) for v in table[0].split(",")]
    assert first == list(range(512))  # identity row


def test_export_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_cli(["export", "--n", "4", "--m", "3", "--k", "3", "--outdir", str(d1)])
    run_cli(["export", "--n", "4", "--m", "3", "--k", "3", "--outdir", str(d2)])
    for name in ("check.g", "g_table.csv", "h_table.csv", "presentations.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


# sha256 of each file of `export --n 4 --m 3 --k 3`, as written when each
# table was built as one string and written whole.
EXPORT_433_SHA256 = {
    "g_table.csv": "af19517c2e8aa4c17db22d81c90b10a846f4d5e117af391aad73d4272d67a5a4",
    "h_table.csv": "31e1ac5f0bc9a4748d0ce59de18481a8ba021461801698289757d56ff19a2d3a",
    "presentations.txt":
        "43762fb9d4cd2c8eae6d730b0e0be0a923c204e396d24b97252074975645c8d6",
    "check.g": "f607149a2bde098247b9f8a62f9c9cda889b5c82c2b850f6ff1990ed85c4c81d",
}


def test_export_golden_digests(tmp_path):
    r = run_cli(["export", "--n", "4", "--m", "3", "--k", "3",
                 "--outdir", str(tmp_path)])
    assert r.returncode == 0
    assert sorted(json.loads(r.stdout)["files"]) == sorted(EXPORT_433_SHA256)
    for name, digest in EXPORT_433_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_export_tables_match_int32_reference(tmp_path, inst433):
    """The CSV tables written from the narrow (uint16) tables are the bytes
    written from int32 reference tables of G and H."""
    assert sorted(write_exports(inst433, str(tmp_path))) == sorted(EXPORT_433_SHA256)
    for name, grp in (("g_table.csv", inst433.G), ("h_table.csv", inst433.H)):
        reference = row_cayley_table(grp)
        assert reference.dtype == np.int32 and grp.cayley_table().dtype == np.uint16
        want = "".join(",".join(map(str, row)) + "\n" for row in reference.tolist())
        assert (tmp_path / name).read_bytes() == want.encode("ascii"), name


def test_no_command_imports_numpy_ma(tmp_path):
    """numpy 2.x's plain np.unique (and np.isin without assume_unique)
    imports numpy.ma on first call; no command takes that import.  numpy 1.x
    loads numpy.ma on a bare ``import numpy``, so there is nothing to avoid."""
    script = (
        "import sys\n"
        "import numpy\n"
        "print('numpy.ma' in sys.modules)\n"
        "from mipverify.cli import main\n"
        "out = sys.argv[1]\n"
        "nmk = ['--n', '4', '--m', '3', '--k', '3']\n"
        "runs = [['family', *nmk, '--variants'], ['witness', *nmk],\n"
        "        ['invariants', '--p', '3', '--n', '2', '--m', '1', '--k', '1',\n"
        "         '--variant', 'c9c9'],\n"
        "        ['export', *nmk, '--outdir', out + '-export']]\n"
        "for argv in runs:\n"
        "    code = main([*argv, '--output', out])\n"
        "    print(argv[0], code, 'numpy.ma' in sys.modules)\n")
    r = subprocess.run([sys.executable, "-c", script, str(tmp_path / "report.json")],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    bare, *lines = r.stdout.split("\n")
    if bare == "True":
        pytest.skip(f"numpy {np.__version__} imports numpy.ma with numpy itself")
    assert lines == [f"{cmd} 0 False" for cmd in
                                    ("family", "witness", "invariants", "export")] + [""]


# Each command with the package modules it must leave unloaded: the layers
# it does not run.
UNLOADED_LAYERS = {
    "family": (["family", *NMK433],
               ("algebra", "witness", "invariants", "tables", "ntt")),
    "export": (["export", *NMK433, "--outdir", OUTDIR],
               ("algebra", "witness", "invariants", "tables", "isomorphism",
                "ntt")),
    "witness": (["witness", *NMK433], ("invariants", "tables", "export", "ntt")),
    "invariants": (["invariants", *NMK433],
                   ("witness", "tables", "export", "isomorphism", "ntt")),
    "invariants-wreath": (["invariants", "--p", "3", "--n", "2", "--m", "1",
                           "--k", "1", "--variant", "wreath"],
                          ("witness", "export", "isomorphism", "ntt")),
}


def _loaded_modules(argv, tmp_path):
    """Run the CLI on ``argv`` in a fresh process; the package modules it
    loaded, and ``numpy.fft`` if it loaded that."""
    argv = [str(tmp_path / "out") if a is OUTDIR else a for a in argv]
    script = (
        "import sys\n"
        "from mipverify.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, *sorted(m for m in sys.modules\n"
        "                    if m.startswith('mipverify') or m == 'numpy.fft'))\n")
    r = subprocess.run([sys.executable, "-c", script, *argv,
                        "--output", str(tmp_path / "report.json")],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    code, *loaded = r.stdout.split()
    assert code == "0" and {"mipverify.cli", "mipverify.family"} <= set(loaded)
    return loaded


@pytest.mark.parametrize("argv,unloaded", list(UNLOADED_LAYERS.values()),
                         ids=list(UNLOADED_LAYERS))
def test_each_command_imports_only_its_layers(argv, unloaded, tmp_path):
    """In a fresh process a command loads no layer it does not run:
    ``family`` and ``export`` no algebra, ``witness`` no invariants and
    ``invariants`` no witness; ``export`` and ``invariants`` verify no
    structure, so they leave the isomorphism layer unloaded too.  None of
    them multiplies dense elements, so none loads the transform kernel, and
    none loads ``numpy.fft``."""
    loaded = _loaded_modules(argv, tmp_path)
    assert "numpy.fft" not in loaded
    assert [m for m in loaded if m.split(".")[-1] in unloaded] == [], loaded


def test_class_sum_witness_loads_the_transform_kernel(tmp_path):
    """The class-sum witness squares dense units, on the transform kernel
    (and still without ``numpy.fft``)."""
    loaded = _loaded_modules(["witness", *NMK433, "--beta", "general",
                              "--zeta", "class-sum"], tmp_path)
    assert "mipverify.ntt" in loaded and "numpy.fft" not in loaded


def test_console_entry_point():
    """The declared console script resolves to cli:main and runs --help."""
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["mipverify"] == "mipverify.cli:main"
    # invoke the target the way the generated wrapper script does
    r = subprocess.run(
        [sys.executable, "-c",
         "import sys; from mipverify.cli import main; sys.exit(main())",
         "--help"], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    for sub in ("family", "witness", "invariants", "export"):
        assert sub in r.stdout


@pytest.mark.skipif(shutil.which("mipverify") is None,
                    reason="mipverify console script not installed on PATH")
def test_installed_console_script():
    r = subprocess.run(["mipverify", "--help"], capture_output=True, text=True)
    assert r.returncode == 0
    assert "family" in r.stdout and "witness" in r.stdout
