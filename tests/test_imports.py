"""`import qdof` loads nothing up front, and each import loads only what it
uses.

The footprints are read in fresh interpreters, since this one has imported
most of qdof already; each runs the same qdof as the tests.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdof

PACKAGE_ROOT = str(Path(qdof.__file__).resolve().parent.parent)


def _footprint(statement, packages=("qdof", "numpy", "scipy")):
    """Modules of `packages` that `statement` loads in a fresh interpreter."""
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            f"{statement}\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))")
    path = [PACKAGE_ROOT, *filter(None, [os.environ.get("PYTHONPATH")])]
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    return {m for m in json.loads(out.stdout)
            if m.split(".")[0] in packages}


def test_import_qdof_loads_only_the_package():
    assert _footprint("import qdof") == {"qdof"}


def test_import_fidelity_loads_only_states_and_trace():
    assert _footprint("import qdof.fidelity", ("qdof", "scipy")) == {
        "qdof", "qdof.states", "qdof.trace", "qdof.fidelity"}


EXPORTS = [(module, name) for module, names in qdof._EXPORTS.items()
           for name in names.split()]


@pytest.mark.parametrize("module, name", EXPORTS)
def test_every_exported_name_resolves_from_its_module(module, name):
    home = importlib.import_module(f"qdof.{module}")
    assert getattr(qdof, name) is getattr(home, name)
    scope = {}
    exec(f"from qdof import {name}", scope)
    assert scope[name] is getattr(home, name)
    assert name in dir(qdof) and name in qdof.__all__
    assert getattr(qdof, module) is home and module in dir(qdof)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        qdof.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from qdof import no_such_name", {})


def test_names_are_read_from_their_module_on_every_access(monkeypatch):
    # a name rebound in its module, as a tracer's wrapper is, shows through
    # qdof and is gone from it once the module's binding is restored
    original = qdof.relation_check
    stand_in = object()
    monkeypatch.setattr(qdof.fidelity, "relation_check", stand_in)
    assert qdof.relation_check is stand_in
    monkeypatch.undo()
    assert qdof.relation_check is original
    assert "relation_check" not in vars(qdof)
