"""Benchmark for cfrenewal: one workload per run, end-to-end or traced.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  A run starts ``SAMPLES`` fresh interpreters
one after another, each given an equal share of the S seconds.  Each one
times its own set-up (import, argument parsing, the workload's objects) and
then repeats the workload's fixed command, in process and on one worker,
until its share is used.  Outputs are checked after the timed part: every
repetition must write the same bytes, and the first repetition's files are
checked against the reference computations in ``reference.py``.

The last line of standard output is one JSON object with ``correct``,
``attempted`` (commands run), ``failed`` (commands that did not exit 0) and
``metrics``: ``wall_s``, ``setup_s`` and ``peak_rss_mb`` with ``--trace 0``,
the per-layer metrics of ``tracing.LAYER_METRICS`` with ``--trace 1``.
Raw figures and the traces go to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SAMPLES = 5  # fresh interpreters per run
CHILD_TIMEOUT_S = 150


# The speed probes' times on the reference machine.  Timings are reported as
# reference-machine seconds: measured seconds times the reference time over
# the probe time measured right after them.  See the README for why.
KERNEL_REFERENCE_S = 0.1  # probe.kernel, paired with each repetition
STARTUP_REFERENCE_S = 0.2  # probe.startup, paired with each set-up


def normalized(seconds: float, probe_s: float, reference_s: float = KERNEL_REFERENCE_S) -> float:
    return seconds * reference_s / probe_s


def rep_seconds(rep: dict) -> float:
    return normalized(rep["s"], rep["probe_s"])


def setup_seconds(child: dict) -> float:
    return normalized(child["setup_s"], child["setup_probe_s"], STARTUP_REFERENCE_S)


def run_child(spec: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {spec['index']} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "cfrenewal" / "cli.py").is_file():
        print(f"error: no cfrenewal sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from tracing import LAYER_METRICS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    import cfrenewal.cli  # noqa: F401  (compiles the package once, before any timed start-up)

    wl = WORKLOADS[args.workload]
    inp = wl.inputs(args.seed)
    out = HERE / "out" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    start = time.monotonic()
    children = []
    for i in range(SAMPLES):
        children.append(run_child({
            "src": str(src),
            "out": str(out),
            "index": i,
            "argv": wl.argv(inp),
            "trace": bool(args.trace),
            "workers2": bool(args.trace) and wl.workers2_check and i == 0,
            "deadline": start + (i + 1) * args.seconds / SAMPLES,
        }))
    measured_s = time.monotonic() - start

    reps = [r for c in children for r in c["reps"]]
    failed = sum(1 for r in reps if r["rc"] != 0)
    errors = []
    if failed:
        errors.append(f"{failed} of {len(reps)} commands exited non-zero")
    digests = {r["digest"] for r in reps if r["rc"] == 0}
    if len(digests) > 1:
        errors.append(f"repetitions wrote {len(digests)} different outputs")
    w2 = children[0].get("workers2")
    if w2 is not None and (w2["rc"] != 0 or w2["digest"] not in digests):
        errors.append("--workers 2 output differs from --workers 1")
    if (out / "first.csv").exists():
        errors += wl.verify(inp, out / "first", wl.check_rng(args.seed))
    else:
        errors.append("no output from the first repetition to check")
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    if args.trace:
        traced = [r for r in reps if r["traced"]]
        plain = [rep_seconds(r) for r in reps if not r["traced"]]
        layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        layers["experiments.workers2_s"] = w2["s"] if w2 is not None else 0.0
        layers["process.import_s"] = statistics.median(c["import_s"] for c in children)
        layers["trace.overhead_s"] = statistics.median(rep_seconds(r) for r in traced) - statistics.median(plain)
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in LAYER_METRICS.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(rep_seconds(r) for r in reps), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_seconds(c) for c in children), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(c["rss_mb"] for c in children), "unit": "MB"},
        }
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "measured_s": measured_s, "errors": errors, "metrics": metrics,
              "children": [{k: v for k, v in c.items() if k != "reps"} |
                           {"reps": [{k: v for k, v in r.items() if k != "digest"} for r in c["reps"]]}
                           for c in children]}
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for p in out.iterdir():  # the command outputs; result.json and the traces stay
        if p.suffix in (".csv", ".json") and p.name != "result.json" and not p.name.startswith("trace-"):
            p.unlink()
    print(json.dumps({"correct": not errors, "attempted": len(reps), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
