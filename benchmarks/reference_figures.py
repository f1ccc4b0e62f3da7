"""Layer timings behind the reference figures in README.md.

    python3 benchmarks/reference_figures.py

Measures, on the machine it runs on, the figures the project roadmap quotes
for its first benchmark: one 8192-trial ``digit_sum_crossings`` chunk at
n <= 10^6, ``uniforms_np`` and one conditional digit step on 8192 lanes,
``TransferPlan.apply``, certified extraction rate, and the short
``simulate`` run split into command, compute and sampling time (from traced
commands, so about 3 % slower than untraced).  Each figure is printed raw and
in reference-machine seconds (see ``run.KERNEL_REFERENCE_S``).
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from run import normalized  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracing import ROOT, Tracer  # noqa: E402


def timed(fn, repeat: int, probe: SpeedProbe) -> tuple[float, float]:
    """Median raw seconds per call and the same in reference-machine seconds."""
    raw, ref = [], []
    for _ in range(repeat):
        t = time.perf_counter()
        fn()
        dt = time.perf_counter() - t
        raw.append(dt)
        ref.append(normalized(dt, probe.measure()))
    return statistics.median(raw), statistics.median(ref)


def main() -> None:
    with SpeedProbe() as probe:
        figures(probe)


def figures(probe: SpeedProbe) -> None:
    from cfrenewal import cli, sampling
    from cfrenewal.bits import stream_keys_np, uniforms_np
    from cfrenewal.exact import DigitStream
    from cfrenewal.transfer import TransferPlan, farey_mesh

    lanes = np.arange(8192, dtype=np.uint64)
    keys = stream_keys_np(1, lanes)
    counter = np.zeros(8192, dtype=np.uint64)
    r = np.zeros(8192)
    v = uniforms_np(keys, counter)

    def inner(fn, calls):
        def run():
            for _ in range(calls):
                fn()
        return run

    def digit_step():
        a = np.floor((1.0 + r * (1.0 - v)) / v).astype(np.int64)
        return 1.0 / (a + r)

    plan = TransferPlan(farey_mesh())
    values = plan.mesh.copy()

    def certified():
        for t in range(20):
            DigitStream.from_seed(1, t).ensure(1000)

    def per_call_us(t):
        return f"{t * 1e3:.1f} us per call"  # the timed function makes 1000 calls

    rows = [
        ("uniforms_np, 8192 lanes", inner(lambda: uniforms_np(keys, counter), 1000), per_call_us, 7),
        ("one digit step, 8192 lanes", inner(digit_step, 1000), per_call_us, 7),
        ("TransferPlan.apply", inner(lambda: plan.apply(values), 1000), per_call_us, 7),
        ("certified extraction", certified, lambda t: f"{20_000 / t:.0f} digits/s", 5),
        ("digit_sum_crossings, 8192 trials, n <= 1e6", lambda: sampling.digit_sum_crossings(
            1, lanes, (1_000, 10_000, 100_000, 1_000_000)), lambda t: f"{t:.2f} s", 1),
    ]
    for label, fn, fmt, repeat in rows:
        raw, ref = timed(fn, repeat, probe)
        print(f"{label}: {fmt(raw)} raw, {fmt(ref)} reference")

    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        argv = ["simulate", "--seed", "1", "--trials", "100000", "--n", "1000", "--n", "2000",
                "--workers", "1", "--out", str(Path(tmp) / "short")]
        tracer = Tracer()
        tracer.install()
        try:
            runs = []
            for _ in range(5):
                _, root = tracer.call(ROOT, cli.main, argv)
                inside = [s for s in tracer.spans if s["id"] > root["id"]]
                parts = [root["end"] - root["start"]] + [
                    sum(s["end"] - s["start"] for s in inside if s["name"] == name)
                    for name in ("experiments.run_uniform_law", "experiments.fluctuation_samples")]
                runs.append((parts, probe.measure()))
        finally:
            tracer.uninstall()
        for i, label in enumerate(("command", "compute", "sampling")):
            raw = statistics.median(p[i] for p, _ in runs)
            ref = statistics.median(normalized(p[i], speed) for p, speed in runs)
            print(f"simulate --trials 1e5 --n 1000 --n 2000, {label}: {raw:.3f} s raw, {ref:.3f} s reference")


if __name__ == "__main__":
    main()
