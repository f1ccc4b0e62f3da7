"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Statistical tolerances marked as calibrated were frozen by the three-seed
pilot protocol (tests/pilot_protocol.py) into tests/fixtures/pilot.json; the
tests here only read the frozen values.  Run with ``pytest
tests/test_acceptance.py`` (add ``-s`` to watch the per-criterion lines
live; they are also written to stdout at the end of each test).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cfrenewal.exact import DigitStream
from cfrenewal.experiments import (
    ExperimentConfig,
    fluctuation_samples,
    run_khinchin,
    run_diamond_vaaler,
    run_ly_uniform_law,
    run_stable_stability,
    tail_reports_from_samples,
    uniform_law_from_samples,
)
from cfrenewal.farey import fluctuation, renewal_trace, verify_induced_map_seeded
from cfrenewal.transfer import (
    ClosedFormDensity,
    GridFunction,
    TransferPlan,
    apply_transfer_mu,
    conjugation_check,
    exact_iterate,
    farey_mesh,
    uniform_returning_trace,
)

FIXTURES = json.loads((Path(__file__).parent / "fixtures" / "pilot.json").read_text())
SEED = FIXTURES["acceptance_seed"]
PROBES = (0.6, 0.75, 0.9)


def report(num: int, description: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description} ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def mesh():
    return farey_mesh(probes=PROBES)


@pytest.fixture(scope="session")
def big_run():
    """Shared 10^5-trial fluctuation run used by criteria 7 and 8."""
    cfg = ExperimentConfig(
        master_seed=SEED,
        trials=100_000,
        horizons=(1_000, 10_000, 100_000, 1_000_000),
        epsilons=(0.1, 0.3, 0.5),
    )
    t0 = time.time()
    samples = fluctuation_samples(cfg)
    return samples, time.time() - t0


def test_criterion_01_exact_inducing_identity():
    t0 = time.time()
    ok = all(verify_induced_map_seeded(SEED, t, 50) for t in range(1000))
    dt = time.time() - t0
    report(
        1,
        "induced Farey map equals the Gauss step on 1000 seeded points x 50 stages",
        ok and dt < 10.0,
        f"all exact, {dt:.1f}s < 10s",
    )


def test_criterion_02_fluctuation_renewal_identity():
    t0 = time.time()
    ok = True
    for trial in range(1000):
        stream = DigitStream.from_seed(SEED, trial)
        for n in (100, 1_000, 10_000):
            rec = fluctuation(stream, n)
            tr = renewal_trace(stream, n - 1)
            want = 1 + tr.Z_n if tr.in_K_n else 0
            if rec.X_n != want:
                ok = False
    dt = time.time() - t0
    report(
        2,
        "X_n = 1 + Z_(n-1) on K, else 0, for 1000 certified streams at n in {1e2,1e3,1e4}",
        ok and dt < 30.0,
        f"exact on all trials, {dt:.1f}s < 30s",
    )


def test_criterion_03_operator_exactness(mesh):
    t0 = time.time()
    one = ClosedFormDensity.one()
    ident = ClosedFormDensity.identity()
    t_one = apply_transfer_mu(one, mesh)
    t_id = apply_transfer_mu(ident, mesh)
    err_one = float(np.max(np.abs(t_one.values - 1.0)))
    err_id = float(np.max(np.abs(t_id.values - 2 * mesh / (1 + mesh) ** 2)))
    pts = np.linspace(0.005, 0.995, 100)
    conj = max(conjugation_check(one, pts), conjugation_check(ident, pts))
    dt = time.time() - t0
    ok = err_one <= 1e-12 and err_id <= 1e-12 and conj <= 1e-10 and dt < 1.0
    report(
        3,
        "T1=1 and T(id)=2x/(1+x)^2 at all 4096 nodes to 1e-12; conjugation to 1e-10",
        ok,
        f"errs {err_one:.1e}/{err_id:.1e}, conj {conj:.1e}, {dt:.2f}s < 1s",
    )


def test_criterion_04_oracle_equivalence(mesh):
    t0 = time.time()
    ident = ClosedFormDensity.identity()
    plan = TransferPlan(mesh)
    values = ident(mesh)
    worst = 0.0
    for n in range(1, 21):
        values = plan.apply(values)
        gf = GridFunction(mesh, values)
        for probe in PROBES:
            oracle = exact_iterate(ident, n, probe)
            worst = max(worst, abs(gf(probe) - oracle) / oracle)
    dt = time.time() - t0
    ok = worst <= 1e-4 and dt < 60.0
    report(
        4,
        "grid T^n(id) vs 2^n branch-sum oracle, rel err <= 1e-4 for n <= 20",
        ok,
        f"worst rel err {worst:.2e}, {dt:.1f}s < 60s",
    )


def test_criterion_05_cone_and_decay(mesh):
    t0 = time.time()
    plan = TransferPlan(mesh)
    a1 = mesh > 0.5
    values = ClosedFormDensity.identity()(mesh)
    min_slope = np.inf
    max_curv = -np.inf
    worst_jump = -np.inf
    dx = np.diff(mesh)
    for _ in range(1000):
        nxt = plan.apply(values)
        slopes = np.diff(nxt) / dx
        min_slope = min(min_slope, float(np.min(slopes)))
        max_curv = max(max_curv, float(np.max(np.diff(slopes))))
        worst_jump = max(worst_jump, float(np.max(nxt[a1] - values[a1])))
        values = nxt
    dt = time.time() - t0
    ok = min_slope >= -1e-9 and max_curv <= 1e-9 and worst_jump <= 1e-9 and dt < 60.0
    report(
        5,
        "1000 grid iterations stay in the cone; T^(n+1)(id) <= T^n(id) + 1e-9 on A1",
        ok,
        f"min slope {min_slope:.1e}, max curvature {max_curv:.1e}, worst decay jump {worst_jump:.1e}, {dt:.1f}s < 60s",
    )


def test_criterion_06_uniformly_returning_trend(mesh):
    t0 = time.time()
    traces = uniform_returning_trace(ClosedFormDensity.identity(), [2**10, 2**20], PROBES, mesh)
    gaps_lo = [abs(p - 1.0) for p in traces[0].products]
    gaps_hi = [abs(p - 1.0) for p in traces[1].products]
    envelope = FIXTURES["operator_trend"]["envelope_2p20"]
    dt = time.time() - t0
    ok = all(h < l for h, l in zip(gaps_hi, gaps_lo)) and max(gaps_hi) <= envelope and dt < 600.0
    report(
        6,
        "|W_n T^n(id) - 1| strictly smaller at n=2^20 than at 2^10 at every probe",
        ok,
        f"gaps {max(gaps_lo):.4f} -> {max(gaps_hi):.4f} <= envelope {envelope}, {dt:.0f}s < 600s",
    )


def test_criterion_07_uniform_law(big_run):
    samples, runtime = big_run
    rep = uniform_law_from_samples(samples)
    ks = dict(zip(rep.horizons, rep.ks))
    slack = FIXTURES["uniform_law"]["ks_decrease_slack"]
    seq = [ks[n] for n in (1_000, 10_000, 100_000, 1_000_000)]
    decreasing = all(b <= a + slack for a, b in zip(seq, seq[1:]))
    ok = ks[1_000_000] <= 0.10 and decreasing and runtime < 900.0
    report(
        7,
        "scaled gaps vs U[0,1]: KS(1e6) <= 0.10 over 1e5 trials, decreasing in n",
        ok,
        f"KS {['%.4f' % v for v in seq]}, slack {slack}, {runtime:.0f}s < 900s",
    )


def test_criterion_08_large_deviation(big_run):
    samples, _ = big_run
    reports = tail_reports_from_samples(samples, (0.1, 0.3, 0.5))
    at_big = {r.epsilon: r.ratio for r in reports if r.n == 1_000_000}
    ok = all(0.7 <= at_big[e] <= 1.3 for e in (0.1, 0.3, 0.5))
    report(
        8,
        "tail ratio empirical/theoretical in [0.7, 1.3] at n=1e6 for eps in {.1,.3,.5}",
        ok,
        "ratios " + ", ".join(f"{e}:{at_big[e]:.3f}" for e in sorted(at_big)),
    )


def test_criterion_09_khinchin():
    t0 = time.time()
    rep = run_khinchin(ExperimentConfig(master_seed=SEED))
    gm = rep.records[-1]["geometric_mean"]
    dt = time.time() - t0
    ok = abs(gm - 2.685) <= 0.01 and dt < 30.0
    report(
        9,
        "geometric mean of 1e6 digits within 0.01 of 2.685",
        ok,
        f"GM {gm:.5f}, |diff| {abs(gm - 2.685):.4f}, {dt:.1f}s < 30s",
    )


def test_criterion_10_diamond_vaaler():
    t0 = time.time()
    orbit_seed = FIXTURES["diamond_vaaler"]["orbit_seed"]
    rep = run_diamond_vaaler(
        ExperimentConfig(master_seed=orbit_seed, checkpoints=(10_000, 100_000, 1_000_000))
    )
    devs = [r["relative_deviation"] for r in rep.records]
    dt = time.time() - t0
    ok = devs[0] > devs[1] > devs[2] and devs[2] <= 0.25 and dt < 60.0
    report(
        10,
        "trimmed sums within 25% of 1/log2 at n=1e6 with decreasing deviations",
        ok,
        f"deviations {['%.4f' % d for d in devs]} at orbit seed {orbit_seed}, {dt:.1f}s < 60s",
    )


def test_criterion_11_stable_stability():
    t0 = time.time()
    rep = run_stable_stability(
        ExperimentConfig(master_seed=SEED, trials=10_000, k_pair=(10_000, 100_000))
    )
    dt = time.time() - t0
    ok = rep.ks <= 0.05 and dt < 300.0
    report(
        11,
        "two-sample KS of centered-scaled sums at k=1e4 vs 1e5 (1e4 trials) <= 0.05",
        ok,
        f"KS {rep.ks:.4f}, {dt:.0f}s < 300s",
    )


def test_criterion_12_ly_uniform_law():
    t0 = time.time()
    rep = run_ly_uniform_law(
        ExperimentConfig(master_seed=SEED, trials=10_000, horizons=(1_000, 100_000))
    )
    ks = dict(zip(rep.horizons, rep.ks))
    dt = time.time() - t0
    ok = ks[100_000] <= 0.12 and ks[100_000] < ks[1_000] and dt < 600.0
    report(
        12,
        "Lasota-Yorke scaled spent time: KS(1e5) <= 0.12 and below KS(1e3)",
        ok,
        f"KS {ks[1_000]:.4f} -> {ks[100_000]:.4f}, {dt:.0f}s < 600s",
    )


def test_criterion_13_determinism(tmp_path):
    from cfrenewal.cli import main as cli_main

    # --workers 2 runs two 4500-trial ranges on a pool
    outs = []
    for tag, workers in (("a", "1"), ("b", "2"), ("c", "1")):
        stem = tmp_path / f"det_{tag}"
        code = cli_main(
            [
                "simulate",
                "--seed", "7",
                "--trials", "9000",
                "--n", "1000",
                "--n", "10000",
                "--workers", workers,
                "--out", str(stem),
            ]
        )
        assert code == 0
        outs.append((stem.with_suffix(".csv").read_bytes(), stem.with_suffix(".json").read_bytes()))
    ok = outs[0] == outs[1] == outs[2]
    report(
        13,
        "identical configs give byte-identical outputs across reruns and worker counts",
        ok,
        "csv+json bytes equal for workers 1, 2 and a rerun",
    )
