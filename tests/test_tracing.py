"""The benchmark's tracer wraps segdet attributes by name; a refactor that
drops or renames one must fail here, not only in a traced benchmark run."""

import importlib
from pathlib import Path

import numpy as np

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
