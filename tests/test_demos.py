"""Every demo script runs to completion from a clean working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
_WARNINGS = ("RuntimeWarning", "DeprecationWarning", "FutureWarning")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    # the warnings that pytest turns into errors fail a demo too
    flags = [flag for kind in _WARNINGS for flag in ("-W", f"error::{kind}")]
    done = subprocess.run([sys.executable, *flags, str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
