"""Command-line front end.

Subcommands: ``expand`` (digit dumps), ``simulate`` (uniform-law runs),
``tail`` (large-deviation tables), ``operator`` (transfer-operator traces),
``classic`` (khinchin, diamond-vaaler, weak-law, stable, ly).  Outputs are
CSV and JSON with fixed column orders (schema version 1, documented in the
README); every output embeds the master seed, artifact version, and a hash
of the effective configuration.  Numeric formatting is shortest round-trip
decimal, so identical configurations produce byte-identical files on any
platform and any worker count.

Exit codes: 0 success, 2 usage error, 3 non-generic point, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace
from math import exp, log
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .exact import (
    DEFAULT_REFINE_CAP,
    DigitStream,
    NonGenericPointError,
    digits_of_rational,
)
from .experiments import (
    ExperimentConfig,
    run_diamond_vaaler,
    run_khinchin,
    run_ly_uniform_law,
    run_stable_stability,
    run_uniform_law,
    run_weak_law,
    tail_reports_from_samples,
)
from .transfer import (
    ClosedFormDensity,
    DEFAULT_PROBES,
    exact_iterate,
    farey_mesh,
    uniform_returning_trace,
)

SCHEMA_VERSION = 1

EXIT_USAGE = 2
EXIT_NONGENERIC = 3
EXIT_IO = 4


class UsageError(Exception):
    pass


# rows rendered per block: output memory stays bounded whatever the row count
BLOCK_ROWS = 8192


@dataclass(frozen=True)
class OutputRecord:
    """One subcommand's output: parameter echo plus column and summary payloads.

    ``columns`` holds one equal-length sequence per header field: a numpy
    array (the bulk columns of ``simulate``) or a list (the few rows of the
    other subcommands).
    """

    experiment: str
    config: dict
    header: tuple[str, ...]
    columns: tuple[Sequence, ...]
    summary: dict = field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        return _config_hash(self.config)


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; plain str otherwise."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _list_columns(rows: Sequence[Sequence]) -> tuple[list, ...]:
    return tuple(map(list, zip(*rows)))


def _config_hash(config: dict) -> str:
    canon = "\n".join(f"{k}={config[k]}" for k in sorted(config))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _meta(config: dict) -> dict:
    return {
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "master_seed": config.get("seed"),
        "config": config,
        "config_hash": _config_hash(config),
    }


def _format_column(col) -> list[str]:
    """Each value as ``_fmt`` would print it.

    A float64 array is formatted once per distinct bit pattern: keying on the
    bits rather than the values keeps ``-0.0`` apart from ``0.0`` and NaN exact.
    """
    if not isinstance(col, np.ndarray):
        return list(map(_fmt, col))
    if col.dtype != np.float64:
        return list(map(str, col.tolist()))
    _, first, inverse = np.unique(col.view(np.uint64), return_index=True, return_inverse=True)
    reprs = [repr(v) for v in col[first].tolist()]
    return [reprs[i] for i in inverse.tolist()]


def _csv_block(columns: Sequence[Sequence], lo: int, hi: int) -> str:
    """Rows ``lo:hi`` as newline-terminated CSV lines."""
    cols = [_format_column(c[lo:hi]) for c in columns]
    return "\n".join(map(",".join, zip(*cols, strict=True))) + "\n"


def _render(head: Sequence[str], columns: Sequence[Sequence]) -> Iterator[str]:
    """The head lines, then the columns' rows in blocks of ``BLOCK_ROWS``."""
    yield "\n".join(head) + "\n"
    n_rows = len(columns[0]) if columns else 0
    for lo in range(0, n_rows, BLOCK_ROWS):
        yield _csv_block(columns, lo, lo + BLOCK_ROWS)


def _write_text(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks to ``path`` through a temp file and a rename.

    The chunks may be rendered lazily, so any exception, not only an I/O
    error, removes the temp file before it propagates.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, record: OutputRecord) -> None:
    """Write the record as CSV and JSON (or print when no --out is given).

    Writes go through a temp-and-rename, and any failure removes the sibling
    file already written by this invocation, so outputs are all-or-nothing.
    """
    summary = dict(record.summary)
    summary.setdefault("experiment", record.experiment)
    summary.update(_meta(record.config))
    header = ",".join(record.header)
    if args.out:
        base = args.out
        written = []
        comment = "# " + " ".join(
            [f"seed={record.config.get('seed')}", f"version={__version__}", f"config_hash={record.config_hash}"]
        )
        try:
            if args.format in ("csv", "both"):
                _write_text(base + ".csv", _render([comment, header], record.columns))
                written.append(base + ".csv")
            if args.format in ("json", "both"):
                _write_text(base + ".json", [json.dumps(summary, indent=2, sort_keys=True) + "\n"])
                written.append(base + ".json")
        except BaseException:
            for path in written:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            raise
    else:
        sys.stdout.writelines(_render([header], record.columns))
        print(json.dumps(summary, sort_keys=True))


def _parse_config_file(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {raw.rstrip()}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _echo_config(conf: dict) -> dict:
    """Config as echoed into outputs: lists joined, pool sizing omitted.

    The worker count only schedules execution and never changes results, so
    it stays out of the echoed configuration and its hash; this keeps output
    files byte-identical across pool sizes.
    """
    return {
        k: (",".join(str(v) for v in conf[k]) if isinstance(conf[k], list) else conf[k])
        for k in conf
        if k != "workers"
    }


def _merged(args, keys: dict) -> dict:
    """flags > config file > defaults, echoed as a plain dict."""
    file_conf = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    merged = {}
    for key, (default, cast) in keys.items():
        flag_val = getattr(args, key.replace("-", "_"), None)
        if flag_val not in (None, []):
            merged[key] = flag_val
        elif key in file_conf:
            raw = file_conf[key]
            if cast is list:
                merged[key] = [type(default[0])(v) for v in raw.split(",")] if default else raw.split(",")
            else:
                merged[key] = cast(raw)
        else:
            merged[key] = default
    return merged


# ---------------------------------------------------------------- expand

GOLDEN_DIGITS = "golden"
SQRT2_DIGITS = "sqrt2"


def _constant_stream(name: str) -> DigitStream:
    if name == GOLDEN_DIGITS:
        return DigitStream.constant(1)
    if name == SQRT2_DIGITS:
        return DigitStream.constant(2)
    raise UsageError(f"unknown constant '{name}' (expected golden or sqrt2)")


def cmd_expand(args) -> int:
    sources = [s for s in (args.seed is not None, args.rational, args.constant) if s]
    if len(sources) != 1:
        raise UsageError("expand needs exactly one of --seed, --rational, --constant")
    if args.count < 1:
        raise UsageError("--count must be >= 1")
    if args.refine_cap < 1:
        raise UsageError("--refine-cap must be >= 1")
    if args.rational:
        try:
            p_str, q_str = args.rational.split("/")
            stream = digits_of_rational(int(p_str), int(q_str))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad rational '{args.rational}': {exc}") from None
    elif args.constant:
        stream = _constant_stream(args.constant)
    else:
        stream = DigitStream.from_seed(args.seed, args.stream, args.refine_cap)
    header = ["k", "a_k", "S_k", "trimmed_S_k", "geometric_mean"]
    rows = []
    log_sum = 0.0
    for k in range(1, args.count + 1):
        if not stream.ensure(k):
            rows.append((k, "end", "", "", ""))
            break
        a = stream.digit(k)
        log_sum += log(a)
        rows.append((k, a, stream.partial_sum(k), stream.trimmed_sum(k), exp(log_sum / k)))
    config = {
        "seed": args.seed,
        "rational": args.rational,
        "constant": args.constant,
        "count": args.count,
        "refine-cap": args.refine_cap,
    }
    summary = {"experiment": "expand", "rows": len(rows)}
    _emit(args, OutputRecord(experiment="expand", config=config, header=tuple(header), columns=_list_columns(rows), summary=summary))
    return 0


# ---------------------------------------------------------------- simulate

def cmd_simulate(args) -> int:
    conf = _merged(
        args,
        {
            "seed": (1, int),
            "trials": (10_000, int),
            "n": ([1000], list),
            "workers": (1, int),
            "refine-cap": (DEFAULT_REFINE_CAP, int),
            "source": ("sampled", str),
        },
    )
    horizons = tuple(sorted(set(int(v) for v in conf["n"])))
    cfg = ExperimentConfig(
        master_seed=conf["seed"],
        trials=conf["trials"],
        horizons=horizons,
        workers=conf["workers"],
        refine_cap=conf["refine-cap"],
        digit_source=conf["source"],
    )
    t0 = time.monotonic()
    report = run_uniform_law(cfg)
    # wall time goes to stderr: output files must stay byte-identical across runs
    print(f"runtime_s={time.monotonic() - t0:.2f}", file=sys.stderr)
    header = ["trial", "n", "X_n", "gap", "scaled"]
    # horizon-major rows: every trial at the first horizon, then the next
    n_col = np.repeat(np.asarray(report.horizons, dtype=np.int64), cfg.trials)
    x_col = report.samples.x_values.T.ravel()
    columns = (
        np.tile(np.arange(cfg.trials, dtype=np.int64), len(report.horizons)),
        n_col,
        x_col,
        n_col - x_col,
        np.concatenate([report.samples.scaled(n) for n in report.horizons]),
    )
    config = _echo_config(conf)
    summary = {
        "experiment": "uniform-law",
        "trials": cfg.trials,
        "horizons": list(report.horizons),
        "ks": list(report.ks),
        "atom_frequency": list(report.atom_frequency),
        "resampled": report.resampled,
    }
    _emit(args, OutputRecord(experiment="simulate", config=config, header=tuple(header), columns=columns, summary=summary))
    return 0


# ---------------------------------------------------------------- tail

def cmd_tail(args) -> int:
    conf = _merged(
        args,
        {
            "seed": (1, int),
            "trials": (10_000, int),
            "n": ([1_000_000], list),
            "epsilon": ([0.1, 0.3, 0.5], list),
            "workers": (1, int),
            "source": ("sampled", str),
        },
    )
    epsilons = [float(e) for e in conf["epsilon"]]
    if any(not 0 < e < 1 for e in epsilons):
        raise UsageError("every epsilon must lie in (0, 1)")
    horizons = tuple(sorted(set(int(v) for v in conf["n"])))
    cfg = ExperimentConfig(
        master_seed=conf["seed"],
        trials=conf["trials"],
        horizons=horizons,
        epsilons=tuple(epsilons),
        workers=conf["workers"],
        digit_source=conf["source"],
    )
    from .experiments import fluctuation_samples

    samples = fluctuation_samples(cfg)
    reports = tail_reports_from_samples(samples, sorted(epsilons))
    header = ["epsilon", "n", "frequency", "theoretical", "ratio", "std_error"]
    rows = [
        (r.epsilon, r.n, r.frequency, r.theoretical, r.ratio, r.std_error) for r in reports
    ]
    config = _echo_config(conf)
    summary = {
        "experiment": "large-deviation",
        "trials": cfg.trials,
        "rows": [
            {
                "epsilon": r.epsilon,
                "n": r.n,
                "frequency": r.frequency,
                "theoretical": r.theoretical,
                "ratio": r.ratio,
                "std_error": r.std_error,
            }
            for r in reports
        ],
    }
    _emit(args, OutputRecord(experiment="tail", config=config, header=tuple(header), columns=_list_columns(rows), summary=summary))
    return 0


# ---------------------------------------------------------------- operator

def _density_from_name(name: str) -> ClosedFormDensity:
    if name == "one":
        return ClosedFormDensity.one()
    if name == "id":
        return ClosedFormDensity.identity()
    if name.startswith("power:"):
        try:
            theta = float(name.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad power density '{name}'") from None
        if not 0 < theta <= 1:
            raise UsageError("power exponent must lie in (0, 1]")
        return ClosedFormDensity.power(theta)
    raise UsageError(f"unknown density '{name}' (expected one, id, or power:theta)")


def cmd_operator(args) -> int:
    density = _density_from_name(args.density)
    schedule = sorted(set(args.n)) if args.n else [2**j for j in range(0, 11)]
    probes = tuple(args.probe) if args.probe else DEFAULT_PROBES
    if any(not 0.5 < p <= 1.0 for p in probes):
        raise UsageError("probes must lie in (1/2, 1]")
    mesh = farey_mesh(probes=probes)
    traces = uniform_returning_trace(density, schedule, probes, mesh)
    oracle_cutoff = 20
    header = [
        "n",
        "W_n",
        "probe_x",
        "value",
        "product",
        "min_slope",
        "max_second_diff",
        "oracle_value",
    ]
    rows = []
    for tr in traces:
        for p, v, prod in zip(tr.probes, tr.values, tr.products):
            oracle = exact_iterate(density, tr.n, p) if tr.n <= oracle_cutoff else ""
            rows.append((tr.n, tr.W_n, p, v, prod, tr.min_slope, tr.max_second_difference, oracle))
    config = {
        "seed": None,
        "density": args.density,
        "schedule": ",".join(str(n) for n in schedule),
        "probes": ",".join(repr(p) for p in probes),
    }
    summary = {
        "experiment": "operator-trace",
        "density": args.density,
        "schedule": schedule,
        "products": {str(tr.n): list(tr.products) for tr in traces},
    }
    _emit(args, OutputRecord(experiment="operator", config=config, header=tuple(header), columns=_list_columns(rows), summary=summary))
    return 0


# ---------------------------------------------------------------- classic

def cmd_classic(args) -> int:
    which = args.which
    seed = args.seed if args.seed is not None else 1
    trials = 10_000 if args.trials is None else args.trials
    workers = 1 if args.workers is None else args.workers
    # validated first, so a count below 1 is reported as such for every --which
    base = ExperimentConfig(master_seed=seed, trials=trials, workers=workers)
    if which in ("khinchin", "diamond-vaaler") and (args.trials is not None or args.workers is not None):
        raise UsageError(f"classic --which {which} scans one orbit and takes no --trials or --workers")
    if which == "weak-law" and args.n and len(args.n) > 1:
        raise UsageError("classic --which weak-law takes at most one --n")
    if which == "stable" and args.n and len(args.n) != 2:
        raise UsageError("classic --which stable takes exactly two --n (k1 and k2)")
    if which == "khinchin":
        report = run_khinchin(replace(base, checkpoints=_checkpoints(args)))
        summary = {
            "experiment": "khinchin",
            "target": report.target,
            "checkpoints": list(report.checkpoints),
            "geometric_mean": report.values("geometric_mean"),
        }
        rows = [(r["k"], r["geometric_mean"]) for r in report.records]
        header = ["k", "geometric_mean"]
    elif which == "diamond-vaaler":
        report = run_diamond_vaaler(replace(base, checkpoints=_checkpoints(args)))
        summary = {
            "experiment": "diamond-vaaler",
            "target": report.target,
            "checkpoints": list(report.checkpoints),
            "trimmed_ratio": report.values("trimmed_ratio"),
            "relative_deviation": report.values("relative_deviation"),
        }
        rows = [(r["k"], r["trimmed_ratio"], r["relative_deviation"]) for r in report.records]
        header = ["k", "trimmed_ratio", "relative_deviation"]
    elif which == "weak-law":
        report = run_weak_law(replace(base, n=args.n[0] if args.n else 10_000))
        summary = {
            "experiment": "weak-law",
            "n": report.n,
            "trials": report.trials,
            "median": report.median,
            "target": report.target,
            "within": {str(k): v for k, v in report.within.items()},
        }
        rows = [(report.n, report.median, report.target)]
        header = ["n", "median", "target"]
    elif which == "stable":
        report = run_stable_stability(replace(base, k_pair=tuple(sorted(args.n)) if args.n else (10_000, 100_000)))
        summary = {
            "experiment": "stable",
            "k1": report.k1,
            "k2": report.k2,
            "trials": report.trials,
            "ks": report.ks,
            "percentile_99": list(report.percentile_99),
        }
        rows = [(report.k1, report.k2, report.ks)]
        header = ["k1", "k2", "ks"]
    elif which == "ly":
        report = run_ly_uniform_law(replace(base, horizons=tuple(sorted(set(args.n))) if args.n else (100_000,)))
        summary = {
            "experiment": "ly-uniform-law",
            "horizons": list(report.horizons),
            "trials": report.trials,
            "ks": list(report.ks),
            "never_visited": list(report.never_visited),
        }
        rows = list(zip(report.horizons, report.ks, report.never_visited))
        header = ["n", "ks", "never_visited"]
    else:
        raise UsageError(f"unknown experiment '{which}'")
    config = {
        "seed": seed,
        "which": which,
        "trials": trials,
        "n": ",".join(str(v) for v in (args.n or [])),
    }
    _emit(args, OutputRecord(experiment="classic", config=config, header=tuple(header), columns=_list_columns(rows), summary=summary))
    return 0


def _checkpoints(args) -> tuple[int, ...]:
    if args.n:
        return tuple(sorted(set(args.n)))
    return (1_000, 10_000, 100_000, 1_000_000)


# ---------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cfrenewal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", type=str, default=None, help="output path stem")
        p.add_argument("--format", choices=("csv", "json", "both"), default="both")

    def add_config(p):
        # only the subcommands that merge their settings through _merged take a file
        p.add_argument("--config", type=str, default=None, help="key=value config file")

    p_expand = sub.add_parser("expand", help="continued-fraction digit dump")
    p_expand.add_argument("--seed", type=int, default=None)
    p_expand.add_argument("--stream", type=int, default=0)
    p_expand.add_argument("--rational", type=str, default=None, help="p/q in (0,1)")
    p_expand.add_argument("--constant", type=str, default=None, help="golden | sqrt2")
    p_expand.add_argument("--count", type=int, default=20)
    p_expand.add_argument("--refine-cap", type=int, default=DEFAULT_REFINE_CAP)
    add_common(p_expand)
    p_expand.set_defaults(fn=cmd_expand)

    p_sim = sub.add_parser("simulate", help="uniform-law fluctuation runs")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--trials", type=int, default=None)
    p_sim.add_argument("--n", type=int, action="append", default=None)
    p_sim.add_argument("--workers", type=int, default=None)
    p_sim.add_argument("--refine-cap", type=int, default=None)
    p_sim.add_argument("--source", choices=("sampled", "exact"), default=None)
    add_common(p_sim)
    add_config(p_sim)
    p_sim.set_defaults(fn=cmd_simulate)

    p_tail = sub.add_parser("tail", help="large-deviation tail table")
    p_tail.add_argument("--seed", type=int, default=None)
    p_tail.add_argument("--trials", type=int, default=None)
    p_tail.add_argument("--n", type=int, action="append", default=None)
    p_tail.add_argument("--epsilon", type=float, action="append", default=None)
    p_tail.add_argument("--workers", type=int, default=None)
    p_tail.add_argument("--source", choices=("sampled", "exact"), default=None)
    add_common(p_tail)
    add_config(p_tail)
    p_tail.set_defaults(fn=cmd_tail)

    p_op = sub.add_parser("operator", help="transfer-operator trace")
    p_op.add_argument("--density", type=str, default="id")
    p_op.add_argument("--n", type=int, action="append", default=None)
    p_op.add_argument("--probe", type=float, action="append", default=None)
    add_common(p_op)
    p_op.set_defaults(fn=cmd_operator)

    p_classic = sub.add_parser("classic", help="classical limit-law experiments")
    p_classic.add_argument(
        "--which",
        required=True,
        choices=("khinchin", "diamond-vaaler", "weak-law", "stable", "ly"),
    )
    p_classic.add_argument("--seed", type=int, default=None)
    p_classic.add_argument("--trials", type=int, default=None)
    p_classic.add_argument("--n", type=int, action="append", default=None)
    p_classic.add_argument("--workers", type=int, default=None)
    add_common(p_classic)
    p_classic.set_defaults(fn=cmd_classic)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonGenericPointError as exc:
        print(f"non-generic point: {exc}", file=sys.stderr)
        return EXIT_NONGENERIC
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
