"""The public names: ``memgrid.__all__``, the version, and the module
attributes the benchmark's tracer wraps by name."""

import re
import sys
from pathlib import Path

import memgrid

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_resolves():
    missing = [name for name in memgrid.__all__ if not hasattr(memgrid, name)]
    assert not missing


def test_every_traced_target_resolves(monkeypatch):
    # perfbench/tracer.py wraps each (owner, attribute) with getattr; a name
    # deleted from src/ would break the traced benchmark run, not this suite
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    missing = [(owner, attr) for owner, attr, _ in tracer.TARGETS
               if not hasattr(tracer._resolve(owner), attr)]
    assert not missing


def test_version_matches_pyproject():
    pyproject = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert match and match.group(1) == memgrid.__version__
