"""The benchmark's tracer wraps program functions by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    """Each (module, function or Class.method) the tracer replaces is an
    attribute defined on that module or in that class's own namespace, as
    ``Tracer.install`` looks it up, so a rename fails here."""
    targets = _load_tracer().TARGETS
    assert targets
    missing = []
    for modname, attr, *_ in targets:
        owner = importlib.import_module("mipverify." + modname)
        owner_name, _, fname = attr.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        if owner is None or not callable(vars(owner).get(fname)):
            missing.append(f"{modname}.{attr}")
    assert missing == []
