"""The public names: ``memgrid.__all__``, the version, and the module
attributes the benchmark's tracer wraps by name; and the imports memgrid
does without: no scipy, and no numpy.random for a complete lattice."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


NO_SCIPY = """
import sys
import memgrid.cli
from memgrid import DeviceParams, SimConfig, Waveform, build_grid, simulate
assert memgrid.cli.main(["validate-config"]) == 0
params = DeviceParams(r_on=2e3, r_off=2e5, v_t=0.6, beta=5e5, r_init=2e5)
simulate(build_grid(6, 0.0, 0.0, 0, params), Waveform(amplitude=20.0, cycles=1),
         SimConfig(dt=1e-2))
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""


def test_memgrid_loads_no_scipy():
    # importing scipy.linalg costs about 0.3 s of start-up; the run looks up
    # the banded solve in numpy's LAPACK
    assert _run_fresh(NO_SCIPY) == "[]"


NO_NUMPY_RANDOM = """
import sys
import memgrid.cli
from memgrid import DeviceParams, build_grid
params = DeviceParams(r_on=2e3, r_off=2e5, v_t=0.6, beta=5e5, r_init=2e5)
build_grid(4, 0.0, 0.0, 1, params)
print("numpy.random" in sys.modules)
"""


def _run_fresh(code: str) -> str:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True)
    return result.stdout.splitlines()[-1]


def test_complete_lattice_loads_no_numpy_random():
    # importing numpy.random costs about 16 ms of start-up, and a lattice
    # drawn at p_r = p_i = 0 needs no draw
    if _run_fresh("import sys, numpy; print('numpy.random' in sys.modules)") == "True":
        pytest.skip("importing numpy loads numpy.random already")
    assert _run_fresh(NO_NUMPY_RANDOM) == "False"
