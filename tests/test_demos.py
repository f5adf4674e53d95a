"""Every demo under demos/ runs to completion.

Each demo runs in its own interpreter. PYTHONPATH is made absolute because
the CLI walkthrough starts its subcommands from a temporary directory, where
a relative `src` would not resolve. TMPDIR points at the test's tmp_path, so
a temporary directory a demo leaves behind shows there (and is cleaned up
with the test's).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import popalign

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SRC = Path(popalign.__file__).resolve().parent.parent


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), TMPDIR=str(tmp_path))
    res = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
    assert not list(tmp_path.glob("popalign-demo-*"))
