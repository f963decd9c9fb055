"""The process pool's modules load only when a pool starts.

``multiprocessing`` and ``concurrent.futures`` (with what they pull in)
add ~2 MiB to a process; a ``jobs=1`` run, the CLI and the experiments
never need them, so importing the package must not load them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

POOL_MODULES = ("multiprocessing", "concurrent.futures")
IMPORTS = (
    "repro",
    "repro.cli",
    "repro.experiments.chaos",
    "repro.experiments.storm",
    "repro.experiments.megascale",
    "repro.experiments.figure4",
)


def test_importing_the_experiments_loads_no_pool_module():
    code = (
        "import importlib, json, sys\n"
        f"for name in {IMPORTS!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(json.dumps([m for m in {POOL_MODULES!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert json.loads(result.stdout) == []
