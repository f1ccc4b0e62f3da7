"""The benchmark tracer still finds every name it wraps in the package."""

from __future__ import annotations

import importlib
from pathlib import Path

from cfrenewal import cli, exact, experiments, sampling, stats, transfer


def test_tracer_installs_and_uninstall_restores_every_attribute(monkeypatch):
    # a refactor that drops or renames a wrapped name must fail here, not in a traced benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    tracing = importlib.import_module("tracing")
    owners = (cli, exact, experiments, sampling, stats, transfer,
              exact.LazyReal, stats.EmpiricalDistribution, transfer.TransferPlan)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.installed
        assert sampling.uniforms_np is not before[owners.index(sampling)]["uniforms_np"]
    finally:
        tracer.uninstall()
    for owner, attrs in zip(owners, before):
        after = vars(owner)
        assert after.keys() == attrs.keys()
        assert all(after[name] is value for name, value in attrs.items()), owner
