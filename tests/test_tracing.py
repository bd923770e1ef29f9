"""The benchmark's tracer wraps segdet attributes by name, and its runs write
and parse their own configs; a refactor that drops or renames what either uses
must fail here, not only in a benchmark run."""

import importlib
from pathlib import Path

import numpy as np

from segdet.config import parse_config

from conftest import gray

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    owners = [(owner, attr) for _, targets, _ in tracing.TARGETS for owner, attr in targets]
    before = [owner.__dict__[attr] for owner, attr in owners]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in zip(owners, before))
        tracing.imaging.integral(gray(np.ones((4, 5))))
    assert [owner.__dict__[attr] for owner, attr in owners] == before
    assert [span[0] for span in tracer.spans] == ["imaging.integral"]


def test_benchmark_configs_parse(monkeypatch, tmp_path):
    """A run's constructor writes and parses its configs; nothing is synthesized or trained."""
    monkeypatch.syspath_prepend(str(BENCH))
    workload = importlib.import_module("workload")
    run = workload.Run(tmp_path, "train", 1)
    assert run.cfg.net.epochs == workload.EPOCHS
    assert parse_config(tmp_path / "weak.cfg").paths.data == "data_weak"
