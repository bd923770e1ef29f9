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


def test_run_pipeline_digests_equal_across_workdirs(tmp_path):
    # the sha256 listing is what a parent/change byte-identity check diffs
    listings = []
    for name in ("a", "b"):
        out = run_script("run_pipeline.py", "--workdir", str(tmp_path / name), "--train", "30", "--test", "15", "--skip-deep")
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        listings.append(lines[lines.index("sha256 of models/ and reports/:") + 1 :])
    a, b = listings
    assert a == b
    paths = [line.split("  ", 1)[1] for line in a]
    assert "models/weakdet.txt" in paths and paths == sorted(paths)
    assert all(len(line.split("  ", 1)[0]) == 64 for line in a)
