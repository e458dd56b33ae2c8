"""Shared test settings.

Property tests run simulations whose duration varies with the drawn example,
so no hypothesis example has a deadline.  The `thorough` profile draws ten
times the default examples; `--hypothesis-profile=thorough` loads it over the
`gladsim` profile loaded here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import gladsim

settings.register_profile("gladsim", deadline=None)
settings.register_profile("thorough", parent=settings.get_profile("gladsim"),
                          max_examples=1000)
settings.load_profile("gladsim")


@pytest.fixture()
def run_python():
    """Run a script in a fresh interpreter that imports this checkout's gladsim."""
    src = str(Path(gladsim.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(script, *flags, env=None):
        return subprocess.run([sys.executable, *flags, "-c", script],
                              env={**os.environ, **(env or {}), "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=300)
    return run
