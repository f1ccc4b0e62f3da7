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


def test_traced_emit_span_counts_the_bytes_written(monkeypatch, tmp_path):
    # the tracer reads the output stem from the first argument of cli._emit
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    tracing = importlib.import_module("tracing")
    stem = tmp_path / "ly"
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["classic", "--which", "ly", "--trials", "20", "--n", "100", "--out", str(stem)])
    finally:
        tracer.uninstall()
    assert code == 0
    emits = [s for s in tracer.spans if s["name"] == "cli._emit"]
    assert len(emits) == 1
    written = [stem.with_suffix(ext).stat().st_size for ext in (".csv", ".json")]
    assert min(written) > 0
    assert emits[0]["bytes"] == sum(written)
