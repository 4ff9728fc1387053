"""Bit-exact JSON serialization for verification reports.

All reports share one envelope: a schema version, the command echo, the
configuration that produced the run, and a payload.  Serialization is
canonical (sorted keys, two-space indent, trailing newline) so that equal
inputs produce byte-identical output; timing is never embedded in reports
(the CLI prints it to stderr instead).

Large GF(2) matrices are packed row-wise: each row is the coefficient
vector of a basis image, packed into little-endian 64-bit words and rendered
as lowercase hex (equivalently: the little-endian byte string of the bit
mask, hex-encoded).
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .witness import IsomorphismCertificate

SCHEMA_VERSION = 2


def jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays and tuples to JSON types."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def canonical_json(obj: Any) -> str:
    """Canonical rendering: sorted keys, indent 2, trailing newline."""
    return json.dumps(jsonable(obj), sort_keys=True, indent=2,
                      ensure_ascii=True) + "\n"


def row_hex(key: int, dim: int) -> str:
    """Bit-mask row -> lowercase hex of little-endian 64-bit words."""
    nbytes = ((dim + 63) // 64) * 8
    return key.to_bytes(nbytes, "little").hex()


def hex_row_to_key(row: str) -> int:
    return int.from_bytes(bytes.fromhex(row), "little")


def certificate_as_dict(cert: IsomorphismCertificate,
                        include_matrix: bool = True) -> dict:
    out = {
        "params": {"n": cert.params[0], "m": cert.params[1], "k": cert.params[2]},
        "dim": cert.dim,
        "beta_order": cert.beta_order,
        "order_note": cert.order_note,
        "clauses": [c.as_dict() for c in cert.clauses],
        "rank": cert.rank,
        "sample": dict(cert.sample),
        "valid": cert.valid,
    }
    if include_matrix:
        out["matrix_rows"] = [row_hex(k, cert.dim) for k in cert.matrix_keys]
    return out


def envelope(command: str, config: dict, payload: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "config": config, **payload}


__all__ = ["SCHEMA_VERSION", "jsonable", "canonical_json", "row_hex",
           "hex_row_to_key", "certificate_as_dict", "envelope"]
