"""Each demo runs to completion against the current package, and every
name the package exports resolves.

The training demo (05, about 30 s) is left out to keep the suite fast.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import intrinsics

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["02_network_decomposition", "03_losses",
                                  "04_data_synthesis", "06_metrics_report"])
def test_demo_runs(tmp_path, demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_every_exported_name_resolves():
    """``from intrinsics import *`` fails on a name in ``__all__`` that the
    package no longer defines; no other test imports that way."""
    assert [name for name in intrinsics.__all__ if not hasattr(intrinsics, name)] == []
