"""Bit-exact JSON serialization for verification reports.

All reports share one envelope: a schema version, the command echo, the
configuration that produced the run, and a payload.  Serialization is
canonical (sorted keys, two-space indent, trailing newline) so that equal
inputs produce byte-identical output; timing is never embedded in reports
(the CLI prints it to stderr instead).  One encoder walks the report and
yields its text in fragments, so a report is streamed to its destination
and never held as one string; :func:`canonical_json` joins the same
fragments.

Large GF(2) matrices are packed row-wise: each row is the coefficient
vector of a basis image, packed into little-endian 64-bit words and rendered
as lowercase hex (equivalently: the little-endian byte string of the bit
mask, hex-encoded), one row at a time as the encoder reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from .witness import IsomorphismCertificate

SCHEMA_VERSION = 2

_INFINITY = float("inf")


def row_hex(key: int, dim: int) -> str:
    """Bit-mask row -> lowercase hex of little-endian 64-bit words."""
    nbytes = ((dim + 63) // 64) * 8
    return key.to_bytes(nbytes, "little").hex()


def hex_row_to_key(row: str) -> int:
    return int.from_bytes(bytes.fromhex(row), "little")


@dataclass(frozen=True)
class HexRows:
    """A matrix's rows as bit-mask keys; the encoder renders each with
    :func:`row_hex` as it reaches it, so the hex text is never held whole."""

    keys: Sequence[int]
    dim: int

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[str]:
        return (row_hex(key, self.dim) for key in self.keys)


_CONTAINERS = (dict, list, tuple, HexRows, np.ndarray)


def _scalar(value: Any) -> str:
    """JSON text of a scalar, as ``json.dumps`` writes it; numpy scalars
    are taken as the Python bool, int or float they hold."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, np.bool_):
        value = bool(value)
    elif isinstance(value, np.integer):
        value = int(value)
    elif isinstance(value, np.floating):
        value = float(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INFINITY:
            return "Infinity"
        if value == -_INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _fragments(value: Any, level: int) -> Iterator[str]:
    """The text of ``value`` at nesting ``level``: each scalar with the
    separator, indent and key before it, or a bracket, one at a time."""
    if not isinstance(value, _CONTAINERS):
        yield _scalar(value)
        return
    if isinstance(value, dict):
        keyed = sorted({str(k): v for k, v in value.items()}.items(),
                       key=lambda item: item[0])
        entries = ((encode_basestring_ascii(k) + ": ", v) for k, v in keyed)
        opener, closer, size = "{", "}", len(keyed)
    else:
        items = value.tolist() if isinstance(value, np.ndarray) else value
        entries = (("", v) for v in items)
        opener, closer, size = "[", "]", len(items)
    if not size:
        yield opener + closer
        return
    inner = "\n" + "  " * (level + 1)
    separator = opener + inner
    for label, item in entries:
        if isinstance(item, _CONTAINERS):
            yield separator + label
            yield from _fragments(item, level + 1)
        else:
            yield separator + label + _scalar(item)
        separator = "," + inner
    yield "\n" + "  " * level + closer


def iter_canonical_json(obj: Any) -> Iterator[str]:
    """Canonical JSON of ``obj`` in fragments: sorted keys, indent 2, ASCII
    escapes, trailing newline, the bytes ``json.dumps(..., sort_keys=True,
    indent=2, ensure_ascii=True) + "\\n"`` writes for the same document with
    numpy values as Python values and non-string keys as ``str(key)``.

    The report is walked as it is, never copied, and no fragment holds more
    than one scalar: a :class:`HexRows` is rendered one row at a time.
    """
    yield from _fragments(obj, 0)
    yield "\n"


def canonical_json(obj: Any) -> str:
    """Canonical rendering, joined from :func:`iter_canonical_json`."""
    return "".join(iter_canonical_json(obj))


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
        out["matrix_rows"] = HexRows(cert.matrix_keys, cert.dim)
    return out


def envelope(command: str, config: dict, payload: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command,
            "config": config, **payload}


__all__ = ["SCHEMA_VERSION", "HexRows", "iter_canonical_json", "canonical_json",
           "row_hex", "hex_row_to_key", "certificate_as_dict", "envelope"]
