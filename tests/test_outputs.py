"""The tiny runs of ``scripts/tiny_outputs.py`` write the bytes recorded in
``tiny_outputs.json``. Same config and seed give the same bytes only under
one numpy and BLAS build, so under another the test skips."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orchestra.harness import run_environment

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).with_name("tiny_outputs.json")


def _changed(got: dict, want: dict) -> list[str]:
    return sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))


def test_tiny_runs_write_the_recorded_bytes(tmp_path):
    want = json.loads(TABLE.read_text())
    env = run_environment()
    build = {k: env[k] for k in ("numpy", "blas")}
    recorded = {k: want[k] for k in ("numpy", "blas")}
    if build != recorded:
        pytest.skip(f"digests recorded under {recorded}, this build is {build}")
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "tiny_outputs.py"), "--digests", str(tmp_path)],
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    for section in ("files", "state.pkl"):
        changed = _changed(got[section], want[section])
        assert not changed, f"{section}: these differ from {TABLE.name}: {changed}"
