"""Byte-deterministic exports for cross-checking with external systems.

Writes, for a 2-case family instance:

* ``g_table.csv`` / ``h_table.csv`` -- full multiplication tables as element
  indices in canonical order (row 0 is the identity row, so it equals the
  column indices);
* ``presentations.txt`` -- the defining relations of G and H on two
  generators;
* ``check.g`` -- a standalone script for the GAP computer-algebra system
  reconstructing both groups from the presentations and re-checking the
  structural facts.  The script is emitted as text only; nothing here ever
  invokes an external system.
"""

from __future__ import annotations

import os

import numpy as np

from .family import FamilyInstance

PRESENTATION_TEMPLATE = """\
Two-generator presentations (u abbreviates the basic commutator [b, a]
of each pair; all remaining commutators follow from these relations).

G on (x, y), |x| = 2^{n}, |y| = 2^{m}:
  x^(2^{n}) = 1, y^(2^{m}) = 1, u = [y, x], u^(2^{km1}) = 1,
  y^x = y u, u^x = u^{{-1}}, u^y = u^{{-1}}

H on (x, z), |x| = 2^{n}, |z| = 2^{m}:
  x^(2^{n}) = 1, z^(2^{m}) = 1, u = [z, x], u^(2^{km1}) = 1,
  z^x = z u, u^x = u^{{-1}}, u^z = u
"""


def presentation_text(n: int, m: int, k: int) -> str:
    return PRESENTATION_TEMPLATE.format(n=n, m=m, km1=k - 1)


def gap_script(n: int, m: int, k: int) -> str:
    """GAP input reconstructing G and H and re-verifying the key facts."""
    size = 2 ** (n + m + k - 1)
    lines = [
        "# Independent re-check of the two presented 2-groups.",
        "# Run with: gap -q check.g",
        'f := FreeGroup("a", "b");;',
        "a := f.1;; b := f.2;;",
        "u := Comm(b, a);;",
        f"relsG := [a^(2^{n}), b^(2^{m}), u^(2^{k - 1}), b^a/(b*u), u^a*u, u^b*u];;",
        f"relsH := [a^(2^{n}), b^(2^{m}), u^(2^{k - 1}), b^a/(b*u), u^a*u, u^b/u];;",
        "G := f / relsG;;",
        "H := f / relsH;;",
        f"if Size(G) <> {size} then Error(\"|G|\"); fi;",
        f"if Size(H) <> {size} then Error(\"|H|\"); fi;",
        f"if Size(DerivedSubgroup(G)) <> {2 ** (k - 1)} then Error(\"G'\"); fi;",
        f"if Size(DerivedSubgroup(H)) <> {2 ** (k - 1)} then Error(\"H'\"); fi;",
        f"if NilpotencyClassOfGroup(G) <> {k} then Error(\"class G\"); fi;",
        f"if NilpotencyClassOfGroup(H) <> {k} then Error(\"class H\"); fi;",
        "abmaxG := Filtered(MaximalSubgroups(G), IsAbelian);;",
        "abmaxH := Filtered(MaximalSubgroups(H), IsAbelian);;",
        "if Length(abmaxG) <> 1 then Error(\"abelian maximal G\"); fi;",
        "if Length(abmaxH) <> 1 then Error(\"abelian maximal H\"); fi;",
        f"if Exponent(abmaxG[1]) <> {2 ** n} then Error(\"exp G\"); fi;",
        f"if Exponent(abmaxH[1]) <> {2 ** (n - 1)} then Error(\"exp H\"); fi;",
        "if IsomorphismGroups(G, H) <> fail then Error(\"G ~ H\"); fi;",
        'Print("all checks passed\\n");',
        "QUIT;",
    ]
    return "\n".join(lines) + "\n"


def write_exports(inst: FamilyInstance, outdir: str) -> list[str]:
    """Write all export files; returns the relative file names written.

    The tables are streamed one row at a time, each entry's decimal label
    gathered from one array of labels.
    """
    if inst.H is None:
        raise ValueError("exports are defined for the 2-case family")
    n, m, k = inst.nmk
    os.makedirs(outdir, exist_ok=True)
    texts = {"presentations.txt": presentation_text(n, m, k),
             "check.g": gap_script(n, m, k)}
    # both tables before any file, so a refused table writes nothing
    tables = {"g_table.csv": inst.G.cayley_table(),
              "h_table.csv": inst.H.cayley_table()}
    for name, text in texts.items():
        with _open(outdir, name) as fh:
            fh.write(text)
    labels = np.array([str(i) for i in range(inst.G.order)], dtype=object)
    for name, table in tables.items():
        with _open(outdir, name) as fh:
            for row in table:
                fh.write(",".join(labels[row].tolist()) + "\n")
    return sorted(texts | tables)


def _open(outdir: str, name: str):
    return open(os.path.join(outdir, name), "w", encoding="ascii", newline="\n")


__all__ = ["presentation_text", "gap_script", "write_exports"]
