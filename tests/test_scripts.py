"""The scripts under scripts/ run against the package as it stands."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
    )


def test_shape_report_prints_both_presets():
    out = run_script("shape_report.py")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert "concatenated feature length: 6400" in lines
    assert "concatenated feature length: 8320" in lines


def test_run_pipeline_help():
    out = run_script("run_pipeline.py", "--help")
    assert out.returncode == 0, out.stderr
    assert "--workdir" in out.stdout
