#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs and output hashes, written as one JSON record.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --run operator-trace:701-712 --run certified:721-726 \\
        --hash operator-trace:801-803 --hash-command "operator --density one" \\
        --claim operator-trace:wall_s --title "..." --out BENCH_7.json

``--parent`` and ``--change`` are two source checkouts whose resolved paths
have the same length; the run exits 2 otherwise, because the length of a
checkout's path alone has moved timings (see :func:`revision`).  For every seed S of
``--run W:SEEDS`` one pair is run: ``python3 benchmarks/run.py --workload W
--seed S --seconds T --trace 0`` once from the root of each checkout, the side
that goes first alternating from pair to pair; T is the ``run_seconds`` of the
parent's ``BENCHMARK.json``.  For each end-to-end metric of
the parent's ``BENCHMARK.json`` the record holds the runs, the median and
quartiles of each side, the pairs the change won (ties count for neither) and the
relative change of the medians against the metric's bound.  ``raw_medians``
holds, per run, the repetition count, the median raw repetition and probe
seconds and the median first repetition of each worker, read from the run's
``benchmarks/out/.../result.json``; ``rep_s`` and ``first_rep_s`` compare
the per-run values of the two sides.  A worker's first repetition writes
into a fresh output directory, every later one over the files of the one
before, so ``first_rep_s`` shows what a change does to a first write.

``--hash W:SEEDS`` runs workload W's command at each seed (its command line
comes from each checkout's own ``benchmarks/workloads.py``) and
``--hash-command ARGV`` runs a ``cfrenewal`` command line as given, each with
``--out`` in both checkouts; the record holds the SHA-256 of the CSV and JSON
files and whether the two checkouts wrote the same bytes.

``--claim W:METRIC`` states the gain to test: the change must win at least
nine tenths of the pairs, and the medians must differ by more than the
distance between the parent's quartiles.

Only the standard library is used.  The record is rewritten after every pair,
so an interrupted run keeps the pairs it finished.  The exit code is 1
when a run was not correct, outputs differ or a stated claim is not met.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

RUN_TIMEOUT_S = 900


def seed_list(text: str) -> list[int]:
    """``701-712`` or ``701,705,709`` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def workload_seeds(text: str) -> tuple[str, list[int]]:
    name, sep, seeds = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEEDS, got {text!r}")
    return name, seed_list(seeds)


def git(tree: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def revision(tree: Path) -> dict:
    """Checkout directory, commit, uncommitted edits and a content hash of the package sources.

    The length of the checkout's path is kept because it moves where arrays
    land in the heap, which alone has shifted timings by a few per cent, and
    ``setup_s`` by 10-28 % on identical import code; :func:`main` therefore
    refuses checkouts whose paths differ in length."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes() + b"\0")
    status = git(tree, "status", "--porcelain", "--untracked-files=no")
    return {
        "dir": tree.name,
        "path_chars": len(str(tree)),
        "commit": git(tree, "rev-parse", "HEAD"),
        "uncommitted_edits": None if status is None else bool(status),
        "src_py_sha256": digest.hexdigest(),
    }


def machine() -> dict:
    """The host, and the interpreter the runs use: its numpy and whether it writes bytecode.

    An interpreter that writes no bytecode (``PYTHONDONTWRITEBYTECODE`` set)
    compiles the package in every fresh process, which about doubles the
    import part of ``setup_s``; two records agree on ``writes_bytecode``
    before their ``setup_s`` can be compared."""
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    probe = subprocess.run([sys.executable, "-c", "import sys; print(int(sys.flags.dont_write_bytecode)); "
                            "import numpy; print(numpy.__version__)"], capture_output=True, text=True)
    lines = probe.stdout.split()
    return {
        "cpu": cpu,
        "vcpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": lines[1] if len(lines) > 1 else None,
        "writes_bytecode": lines[0] == "0" if lines else None,
        "platform": platform.platform(),
    }


def bench_run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{tree}: {' '.join(argv[1:])} exited with {proc.returncode}")
    return json.loads(lines[-1])


def raw_medians(tree: Path, workload: str, seed: int) -> dict:
    """The median raw repetition and probe seconds of one run, from its ``result.json``.

    ``wall_s`` is their ratio per repetition, so these show whether a shift
    comes from the workload or from the probe, and a bimodal side shows in
    its per-run ``rep_s``.  ``first_rep_s`` is the median over the workers
    of their first repetition, the only one that writes no file over another."""
    result = json.loads((tree / "benchmarks" / "out" / f"{workload}-seed{seed}-trace0" / "result.json")
                        .read_text(encoding="utf-8"))
    reps = [r for c in result["children"] for r in c["reps"]]
    return {"reps": len(reps), "rep_s": statistics.median(r["s"] for r in reps),
            "probe_s": statistics.median(r["probe_s"] for r in reps),
            "first_rep_s": statistics.median(c["reps"][0]["s"] for c in result["children"])}


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (runs[0],) * 3
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def compare(parent: list[float], change: list[float], lower_is_better: bool, bound: float | None) -> dict:
    sign = 1 if lower_is_better else -1
    p, c = summary(parent), summary(change)
    rel = (c["median"] - p["median"]) / p["median"]
    return {
        "parent": p,
        "change": c,
        "change_wins": sum(1 for a, b in zip(parent, change) if sign * (b - a) < 0),
        "median_change_rel": rel,
        "bound": bound,
        "worse_than_bound": bound is not None and sign * rel > bound,
    }


def claim_verdict(result: dict, lower_is_better: bool) -> dict:
    """A gain holds when the change wins nine tenths of the pairs (ties count for
    neither side) and the medians differ by more than the parent's quartile distance."""
    pairs = len(result["parent"]["runs"])
    gain = (result["parent"]["median"] - result["change"]["median"]) * (1 if lower_is_better else -1)
    iqr = result["parent"]["q3"] - result["parent"]["q1"]
    return {
        "wins": f"{result['change_wins']}/{pairs}",
        "parent_iqr": iqr,
        "met": 10 * result["change_wins"] >= 9 * pairs and gain > iqr,
    }


def workload_argv(tree: Path, workload: str, seed: int) -> list[str]:
    code = ("import json, sys; sys.path.insert(0, 'benchmarks'); from workloads import WORKLOADS; "
            f"w = WORKLOADS[{workload!r}]; print(json.dumps(w.argv(w.inputs({seed}))))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def output_hashes(tree: Path, argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str((tree / "src").resolve()))
    with tempfile.TemporaryDirectory() as tmp:
        stem = Path(tmp) / "out"
        proc = subprocess.run([sys.executable, "-m", "cfrenewal.cli", *argv, "--out", str(stem)],
                              cwd=tree, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"{tree}: cfrenewal {' '.join(argv)} exited with {proc.returncode}")
        return {suffix: hashlib.sha256(stem.with_suffix(suffix).read_bytes()).hexdigest()
                for suffix in (".csv", ".json")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--run", type=workload_seeds, action="append", default=[], metavar="W:SEEDS")
    parser.add_argument("--hash", type=workload_seeds, action="append", default=[], metavar="W:SEEDS")
    parser.add_argument("--hash-command", action="append", default=[], metavar="ARGV")
    parser.add_argument("--claim", type=str, default=None, metavar="W:METRIC")
    parser.add_argument("--title", type=str, default="")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "benchmarks" / "run.py").is_file():
            parser.error(f"--{side} {tree} has no benchmarks/run.py")
    lengths = {side: len(str(tree)) for side, tree in trees.items()}
    if lengths["parent"] != lengths["change"]:
        parser.error(f"--parent and --change resolve to paths of {lengths['parent']} and "
                     f"{lengths['change']} characters; put the checkouts at paths of equal length")
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    claim = None
    if args.claim:
        claim_workload, _, claim_metric = args.claim.partition(":")
        if claim_metric not in metrics or claim_workload not in {w for w, _ in args.run}:
            parser.error(f"--claim {args.claim}: needs a --run workload and an end-to-end metric")
        claim = {"workload": claim_workload, "metric": claim_metric}

    record = {
        "title": args.title,
        "revisions": {side: revision(tree) for side, tree in trees.items()},
        "machine": machine(),
        "protocol": (f"alternating parent/change pairs, the side that runs first alternating by pair; "
                     f"each run is `python3 benchmarks/run.py --workload W --seed S --seconds {seconds} "
                     f"--trace 0` from the root of each tree; medians and quartiles (statistics.quantiles, "
                     f"n=4) over the runs of one side; change_wins counts pairs where the change was better"),
        "claim": claim,
        "workloads": {},
        "output_sha256": {},
    }
    ok = True

    def save():
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for workload, seeds in args.run:
        runs = {"parent": [], "change": []}
        entry = {"seeds": [], "all_correct": True, "failed": 0, "attempted": 0,
                 "raw_medians": {"parent": [], "change": []}}
        record["workloads"][workload] = entry
        for k, seed in enumerate(seeds):
            for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                result = bench_run(trees[side], workload, seed, seconds)
                runs[side].append(result)
                entry["raw_medians"][side].append(raw_medians(trees[side], workload, seed))
                entry["all_correct"] &= bool(result["correct"])
                entry["failed"] += result["failed"]
                entry["attempted"] += result["attempted"]
            entry["seeds"].append(seed)
            entry["pairs"] = k + 1
            for name, m in metrics.items():
                values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
                entry[name] = compare(values["parent"], values["change"], m["better"] == "lower", m["bound"])
            for key in ("rep_s", "first_rep_s"):
                values = {side: [r[key] for r in entry["raw_medians"][side]] for side in runs}
                entry[key] = compare(values["parent"], values["change"], True, None)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name} {runs['parent'][-1]['metrics'][name]['value']:.4g} -> "
                f"{runs['change'][-1]['metrics'][name]['value']:.4g}" for name in metrics), flush=True)
            save()
        ok &= entry["all_correct"] and entry["failed"] == 0

    if claim:
        result = record["workloads"][claim["workload"]][claim["metric"]]
        claim.update(claim_verdict(result, metrics[claim["metric"]]["better"] == "lower"))
        ok &= claim["met"]

    commands = [(f"{w}@{s}", {side: workload_argv(tree, w, s) for side, tree in trees.items()})
                for w, seeds in args.hash for s in seeds]
    commands += [(line, {side: shlex.split(line) for side in trees}) for line in args.hash_command]
    for key, argvs in commands:
        if argvs["parent"] != argvs["change"]:
            raise RuntimeError(f"{key}: the two trees build different command lines")
        hashes = {side: output_hashes(tree, argvs[side]) for side, tree in trees.items()}
        identical = hashes["parent"] == hashes["change"]
        record["output_sha256"][key] = {"argv": argvs["parent"], **hashes["change"], "identical": identical}
        if not identical:
            record["output_sha256"][key]["parent"] = hashes["parent"]
        print(f"{key}: {'identical' if identical else 'DIFFERENT'}", flush=True)
        ok &= identical
        save()
    save()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
