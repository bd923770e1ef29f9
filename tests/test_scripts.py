"""The scripts under scripts/ run against the package as it stands."""

import os
import subprocess
import sys
from pathlib import Path

from segdet import cli, proposals, synth, weakdet

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


# each CSV the CLI writes, with its reader and its writer
CSV_FORMATS = [
    ("data/train/annotations.csv", synth.load_annotations, synth.save_annotations),
    ("data/test/annotations.csv", synth.load_annotations, synth.save_annotations),
    ("reports/detections_train.csv", weakdet.import_detections, weakdet.export_detections),
    ("reports/proposals_train.csv", proposals.import_proposals, proposals.export_proposals),
    ("reports/proposals_test.csv", proposals.import_proposals, proposals.export_proposals),
    ("reports/faces_segface_test.csv", cli.load_faces, lambda faces, path: cli.save_faces([*faces.items()], path)),
]


def test_run_pipeline_digests_equal_across_workdirs(tmp_path):
    # the sha256 listing is what a parent/change byte-identity check diffs;
    # each CSV the run wrote, read and written back, keeps its bytes
    listings = []
    for name in ("a", "b"):
        out = run_script("run_pipeline.py", "--workdir", str(tmp_path / name), "--train", "30", "--test", "15", "--skip-deep")
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        listings.append(lines[lines.index("sha256 of data/, models/ and reports/:") + 1 :])
    a, b = listings
    assert a == b
    paths = [line.split("  ", 1)[1] for line in a]
    assert "models/weakdet.txt" in paths and paths == sorted(paths)
    assert "data/train/annotations.csv" in paths and "data/test/images/img_00000.pgm" in paths
    assert all(len(line.split("  ", 1)[0]) == 64 for line in a)
    for rel, read, write in CSV_FORMATS:
        again = tmp_path / "again.csv"
        write(read(tmp_path / "a" / rel), again)
        assert again.read_bytes() == (tmp_path / "a" / rel).read_bytes(), rel


def test_bench_self_test_passes():
    # the benchmark's chain and `segdet detect` must pick the same box on every frame
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--self-test"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    assert "self-test: PASS" in out.stdout.splitlines()
