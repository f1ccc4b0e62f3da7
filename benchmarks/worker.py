"""One fresh-interpreter sample of a workload: set up, then repeat the command until a deadline.

Run by ``run.py`` with one JSON argument; prints one JSON line.  The set-up
clock starts at the first statement, before ``cfrenewal`` is imported, and
stops when the command line is parsed and the workload's own objects (the
mesh and transfer plan, for ``operator``) are built.  Each repetition then
times one in-process ``cfrenewal.cli.main`` call.  The speed probes
(``probe.py``, in processes of their own) run right after the set-up and
right after every repetition, so each timing is paired with the machine's
speed in the state that timing left it.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _digest(stem: Path) -> str:
    h = hashlib.sha256()
    for suffix in (".csv", ".json"):
        h.update(stem.with_suffix(suffix).read_bytes())
    return h.hexdigest()


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    out = Path(spec["out"])
    t = time.perf_counter()
    import cfrenewal.cli as cli

    import_s = time.perf_counter() - t
    tracer = None
    if spec["trace"]:
        from tracing import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
    stem = out / f"c{spec['index']}"
    argv = spec["argv"] + ["--out", str(stem)]
    args = cli.build_parser().parse_args(argv)
    if args.command == "operator":
        from cfrenewal.transfer import TransferPlan, farey_mesh

        TransferPlan(farey_mesh(probes=tuple(args.probe)))
    setup_s = time.perf_counter() - T0
    from probe import SpeedProbe, startup

    setup_probe = startup()
    speed = SpeedProbe()

    reps = []
    while True:
        # a traced run alternates traced and untraced repetitions to measure the overhead
        traced = tracer is not None and (len(reps) + spec["index"]) % 2 == 1
        if tracer is not None and traced != tracer.installed:
            if traced:
                tracer.install()
            else:
                tracer.uninstall()
        t = time.perf_counter()
        if traced:
            rc, root = tracer.call(ROOT, cli.main, argv)
        else:
            rc = cli.main(argv)
        dt = time.perf_counter() - t
        rep = {"s": dt, "probe_s": speed.measure(), "rc": rc, "traced": traced,
               "digest": _digest(stem) if rc == 0 else None}
        if traced:
            rep["layers"] = tracer.root_metrics(root)
        reps.append(rep)
        if spec["index"] == 0 and len(reps) == 1 and rc == 0:
            for suffix in (".csv", ".json"):
                os.replace(stem.with_suffix(suffix), (out / "first").with_suffix(suffix))
        enough = len(reps) >= (2 if tracer is not None else 1)
        if enough and time.monotonic() + dt > spec["deadline"]:
            break

    speed.close()
    result = {
        "setup_s": setup_s,
        "import_s": import_s,
        "setup_probe_s": setup_probe,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reps": reps,
    }
    if tracer is not None and spec["workers2"]:
        # the same command on two workers must write the same bytes
        if not tracer.installed:
            tracer.install()
        stem2 = out / "w2"
        argv2 = [("2" if prev == "--workers" else a) for prev, a in zip([None] + spec["argv"], spec["argv"])]
        rc, root = tracer.call(ROOT, cli.main, argv2 + ["--out", str(stem2)])
        spans = [s for s in tracer.spans if s["name"] == "experiments.fluctuation_samples" and s["id"] > root["id"]]
        result["workers2"] = {"rc": rc, "digest": _digest(stem2) if rc == 0 else None,
                              "s": sum(s["end"] - s["start"] for s in spans)}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(out / f"trace-c{spec['index']}.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
