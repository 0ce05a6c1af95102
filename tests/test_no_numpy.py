"""The package runs without numpy: numpy is a test dependency only."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# numpy is blocked in sys.modules, so any import of it raises ImportError
SCRIPT = """
import importlib, pkgutil, sys
sys.modules["numpy"] = None
import markov_torus
for info in pkgutil.iter_modules(markov_torus.__path__):
    importlib.import_module(f"markov_torus.{info.name}")
from markov_torus.sft import TransitionGraph, perron_data
data = perron_data(TransitionGraph([[1, 1], [1, 0]]))
assert data.char_poly == (1, -1, -1)
assert data.spectral_radius == (1 + 5 ** 0.5) / 2
from markov_torus import cli
sys.exit(cli.main(["verify", "--matrix", "1 1 1 0", "--depth", "4", "--json"]))
"""


def test_imports_and_verify_run_without_numpy():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert '"all_ok": true' in proc.stdout
