"""Command-line front end.

Subcommands: ``expand`` (digit dumps), ``simulate`` (uniform-law runs),
``tail`` (large-deviation tables), ``operator`` (transfer-operator traces),
``classic`` (khinchin, diamond-vaaler, weak-law, stable, ly).  A subcommand
returns ``(header, columns, summary)``: the CSV field names, one column per
field, and the JSON summary; ``main`` writes them.  Outputs are CSV and JSON
with fixed column orders (schema version 1, documented in the README); every
output embeds the master seed, artifact version, and a hash of the effective
configuration.  Numeric formatting is shortest round-trip decimal, so
identical configurations produce byte-identical files on any platform and any
worker count.  Start-up imports ``exact`` and ``transfer`` only: ``experiments``
(with the sampler, ``farey`` and ``stats``) loads when a subcommand first
calls into it, so ``expand`` and ``operator`` never load it.

Exit codes: 0 success, 2 usage error (also a digit or digit sum of 2^63 or
more), 3 non-generic point, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import replace
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import __version__
from .exact import (
    DEFAULT_REFINE_CAP,
    DigitOverflowError,
    DigitStream,
    NonGenericPointError,
    digits_of_rational,
    orbit_records,
)
from .transfer import (
    ClosedFormDensity,
    DEFAULT_PROBES,
    exact_iterate,
    farey_mesh,
    uniform_returning_trace,
)


def _deferred(name: str):
    """A stand-in for ``experiments.<name>`` that imports ``experiments`` when it is called.

    ``experiments`` loads the sampler, ``farey`` and ``stats``, which
    ``expand`` and ``operator`` never run, so start-up does not import it.
    The stand-ins are attributes of this module, and the subcommands call
    through them, so a caller can still wrap ``cli.run_uniform_law``.
    """

    def call(*args, **kwargs):
        from . import experiments

        return getattr(experiments, name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


ExperimentConfig = _deferred("ExperimentConfig")
run_diamond_vaaler = _deferred("run_diamond_vaaler")
run_khinchin = _deferred("run_khinchin")
run_ly_uniform_law = _deferred("run_ly_uniform_law")
run_large_deviation = _deferred("run_large_deviation")
run_stable_stability = _deferred("run_stable_stability")
run_uniform_law = _deferred("run_uniform_law")
run_weak_law = _deferred("run_weak_law")

SCHEMA_VERSION = 1

EXIT_USAGE = 2
EXIT_NONGENERIC = 3
EXIT_IO = 4


class UsageError(Exception):
    pass


# rows rendered per block: output memory stays bounded whatever the row count
BLOCK_ROWS = 8192

# what a subcommand returns: the CSV field names, one column per field, the JSON summary
Table = tuple[Sequence[str], Sequence[Sequence], dict]


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


class _ReprTable:
    """A float64 column with one ``repr`` per distinct bit pattern.

    Keying on the bits rather than the values keeps ``-0.0`` apart from
    ``0.0`` and NaN exact.  Slicing gathers the rows' reprs as an ``S``
    array, looking each row's bits up among the sorted distinct ones; no
    per-row index is stored, so the column costs no memory beyond its table.
    """

    def __init__(self, col: np.ndarray):
        self.bits = col.view(np.uint64)
        distinct = np.sort(self.bits)
        # repeats dropped by hand, because numpy.unique imports numpy.ma on numpy 2.x
        keep = np.ones(distinct.size, dtype=bool)
        keep[1:] = distinct[1:] != distinct[:-1]
        self.distinct = distinct[keep]
        self.table = np.array([repr(v) for v in self.distinct.view(np.float64).tolist()], dtype=np.bytes_)

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.table[np.searchsorted(self.distinct, self.bits[rows])]


def _digit_cells(col: np.ndarray) -> np.ndarray:
    """An integer array's decimal digits, a ``-`` before negative values, NUL-padded on the left."""
    if col.dtype.kind == "u":
        mag, neg = col.astype(np.uint64, copy=False), None
    else:
        signed = col.astype(np.int64, copy=False)
        # the magnitude as uint64, so that -2**63 is right
        mag, neg = np.abs(signed).view(np.uint64), signed < 0
    sign = int(neg is not None and neg.any())
    width = sign + len(str(int(mag.max())))
    cells = np.zeros((len(col), width), np.uint8)
    for j in range(width - 1, sign - 1, -1):
        rest = mag // 10
        digit = (mag - rest * 10).astype(np.uint8)
        digit += ord("0")
        if j < width - 1:
            # a zero left of the last position leads: no digit there
            digit[mag == 0] = 0
        cells[:, j] = digit
        mag = rest
    if sign:
        cells[neg, 0] = ord("-")
    return cells


def _cells(col) -> np.ndarray:
    """The fields of ``col`` as a NUL-padded ``(rows, width)`` uint8 matrix, as ``_fmt`` prints them.

    Integer arrays get their digits from numpy, and an ``S`` array (a
    :class:`_ReprTable` slice) is taken as the fields' bytes.  Anything else
    is formatted value by value with ``_fmt`` and encoded as UTF-8.
    """
    if isinstance(col, np.ndarray) and col.dtype.kind in "iu":
        return _digit_cells(col)
    if not (isinstance(col, np.ndarray) and col.dtype.kind == "S"):
        values = col.tolist() if isinstance(col, np.ndarray) else col
        col = np.array([_fmt(v).encode() for v in values], dtype=np.bytes_)
    return col.view(np.uint8).reshape(len(col), col.itemsize)


def _csv_block(columns: Sequence[Sequence], lo: int, hi: int) -> str:
    """Rows ``lo:hi`` as newline-terminated CSV lines.

    Each column's slice becomes a cell matrix (:func:`_cells`); one
    ``np.hstack`` joins them with ``,`` and ``\\n`` columns, and dropping
    the NUL padding leaves the lines' bytes.  No field holds a NUL byte.
    """
    cells = [_cells(c[lo:hi]) for c in columns]
    rows = len(cells[0])
    comma, newline = (np.full((rows, 1), ord(ch), np.uint8) for ch in ",\n")
    parts = [part for c in cells for part in (c, comma)]
    parts[-1] = newline
    block = np.hstack(parts)
    return block[block != 0].tobytes().decode()


def _render(head: Sequence[str], columns: Sequence[Sequence]) -> Iterator[str]:
    """The head lines, then the columns' rows in blocks of ``BLOCK_ROWS``.

    A float64 column's reprs are computed once for the whole column
    (:class:`_ReprTable`), not once per block.
    """
    yield "\n".join(head) + "\n"
    n_rows = len(columns[0]) if columns else 0
    if not n_rows:
        return
    columns = [_ReprTable(c) if isinstance(c, np.ndarray) and c.dtype == np.float64 else c for c in columns]
    for lo in range(0, n_rows, BLOCK_ROWS):
        yield _csv_block(columns, lo, lo + BLOCK_ROWS)


def _write_text(path: str, chunks: Iterable[str]) -> None:
    """Write the chunks to ``path`` through a temp file, an unlink and a rename.

    The temp file is written and closed first; only then is an existing
    ``path`` removed and the temp file renamed onto it.  A reader sees the
    old file, briefly no file, or the new file, never a partial one.  The
    old file goes first because ext4's ``auto_da_alloc`` treats a rename
    over an existing file as a replace and writes the new data back inside
    ``rename(2)``.  The price: the replacement is not atomic.  A failure or
    interrupt between the unlink and the rename leaves neither file at
    ``path``, and since no ``fsync`` is made either, a system crash soon
    after a rerun may leave an empty file there.

    The chunks may be rendered lazily, so any exception, not only an I/O
    error, removes the temp file before it propagates.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, config: dict, header: Sequence[str], columns: Sequence[Sequence], summary: dict) -> None:
    """Write a subcommand's table as CSV and/or JSON, as ``--format`` says (printed when no --out is given).

    ``columns`` holds one equal-length sequence per ``header`` field: a numpy
    array (the bulk columns of ``simulate``) or a list.  ``config`` is the
    echoed configuration; its seed, hash and the artifact version go into
    both outputs.

    Each file is written by :func:`_write_text`: temp file, unlink of the old
    file, rename, with no ``fsync``.  Any failure removes the sibling file
    already written by this invocation, so outputs are all-or-nothing.  A
    failure while a file is rendered leaves that file's previous version in
    place, since the old file is removed only once the temp file is complete.
    """
    meta = _meta(config)
    summary = {**summary, **meta}
    header = ",".join(header)
    if args.out:
        base = args.out
        written = []
        comment = f"# seed={meta['master_seed']} version={__version__} config_hash={meta['config_hash']}"
        try:
            if args.format in ("csv", "both"):
                _write_text(base + ".csv", _render([comment, header], columns))
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
        if args.format in ("csv", "both"):
            sys.stdout.writelines(_render([header], columns))
        if args.format in ("json", "both"):
            print(json.dumps(summary, sort_keys=True))


# Each subcommand's settings: flag name -> (default, element type or choices).
# A list default marks a repeatable flag, and a choice without a default is
# required.  The parser, the config file, the defaults and the echoed config
# all read this table.
SOURCES = ("sampled", "exact")
SETTINGS = {
    "expand": {"seed": (None, int), "stream": (0, int), "rational": (None, str), "constant": (None, str),
               "count": (20, int), "refine-cap": (DEFAULT_REFINE_CAP, int)},
    "simulate": {"seed": (1, int), "trials": (10_000, int), "n": ([1000], int), "workers": (1, int),
                 "refine-cap": (DEFAULT_REFINE_CAP, int), "source": ("sampled", SOURCES)},
    "tail": {"seed": (1, int), "trials": (10_000, int), "n": ([1_000_000], int), "epsilon": ([0.1, 0.3, 0.5], float),
             "workers": (1, int), "source": ("sampled", SOURCES)},
    "operator": {"density": ("id", str), "n": ([2**j for j in range(11)], int), "probe": (list(DEFAULT_PROBES), float)},
    # an empty --n list stands for the chosen experiment's own default
    "classic": {"which": (None, ("khinchin", "diamond-vaaler", "weak-law", "stable", "ly")), "seed": (1, int),
                "trials": (10_000, int), "n": ([], int), "workers": (1, int)},
}


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


def _merged(args) -> dict:
    """The subcommand's ``SETTINGS``: flags > config file > defaults, as a plain dict.

    A config-file key that the subcommand does not take is a usage error, not
    ignored.  Seeds and stream indices are 64-bit keys: outside ``[0, 2^64)``
    the bit generator would reduce them onto another key's streams.
    """
    keys = SETTINGS[args.command]
    file_conf = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(file_conf) - set(keys))
    if unknown:
        raise UsageError(f"{args.config}: unknown config key(s) {', '.join(unknown)}; {args.command} takes {', '.join(keys)}")
    merged = {}
    for key, (default, kind) in keys.items():
        flag_val = getattr(args, key.replace("-", "_"))
        if flag_val is not None:
            merged[key] = flag_val
        elif key in file_conf:
            # a choice from a file is checked where it is used (ExperimentConfig checks source)
            cast = str if isinstance(kind, tuple) else kind
            raw = file_conf[key]
            merged[key] = [cast(v) for v in raw.split(",")] if isinstance(default, list) else cast(raw)
        else:
            merged[key] = default
    for key in ("seed", "stream"):
        if merged.get(key) is not None and not 0 <= merged[key] < 2**64:
            raise UsageError(f"--{key} must lie in [0, 2^64)")
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


def cmd_expand(args, conf: dict) -> Table:
    sources = [s for s in (conf["seed"] is not None, conf["rational"], conf["constant"]) if s]
    if len(sources) != 1:
        raise UsageError("expand needs exactly one of --seed, --rational, --constant")
    # the stream index and refinement cap select and certify seeded digits only
    for flag, value in (("--stream", args.stream), ("--refine-cap", args.refine_cap)):
        if value is not None and conf["seed"] is None:
            raise UsageError(f"expand {flag} acts only on --seed digits")
    if conf["count"] < 1:
        raise UsageError("--count must be >= 1")
    if conf["rational"]:
        try:
            p_str, q_str = conf["rational"].split("/")
            stream = digits_of_rational(int(p_str), int(q_str))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad rational '{conf['rational']}': {exc}") from None
    elif conf["constant"]:
        stream = _constant_stream(conf["constant"])
    else:
        stream = DigitStream.from_seed(conf["seed"], conf["stream"], conf["refine-cap"])
    header = ("k", "a_k", "S_k", "trimmed_S_k", "geometric_mean")
    rows = [(r["k"], r["a"], r["S"], r["trimmed"], r["geometric_mean"])
            for r in orbit_records(stream, range(1, conf["count"] + 1))]
    if len(rows) < conf["count"]:
        rows.append((len(rows) + 1, "end", "", "", ""))
    return header, _list_columns(rows), {"experiment": "expand", "rows": len(rows)}


# ---------------------------------------------------------------- simulate

def cmd_simulate(args, conf: dict) -> Table:
    cfg = ExperimentConfig(
        master_seed=conf["seed"],
        trials=conf["trials"],
        horizons=tuple(sorted(set(conf["n"]))),
        workers=conf["workers"],
        refine_cap=conf["refine-cap"],
        digit_source=conf["source"],
    )
    t0 = time.monotonic()
    report = run_uniform_law(cfg)
    # wall time goes to stderr: output files must stay byte-identical across runs
    print(f"runtime_s={time.monotonic() - t0:.2f}", file=sys.stderr)
    header = ("trial", "n", "X_n", "gap", "scaled")
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
    summary = {
        "experiment": "uniform-law",
        "trials": cfg.trials,
        "horizons": list(report.horizons),
        "ks": list(report.ks),
        "atom_frequency": list(report.atom_frequency),
        "resampled": report.resampled,
    }
    return header, columns, summary


# ---------------------------------------------------------------- tail

def cmd_tail(args, conf: dict) -> Table:
    cfg = ExperimentConfig(
        master_seed=conf["seed"],
        trials=conf["trials"],
        horizons=tuple(sorted(set(conf["n"]))),
        epsilons=tuple(sorted(set(conf["epsilon"]))),
        workers=conf["workers"],
        digit_source=conf["source"],
    )
    # the columns are TailReport's fields, by name
    header = ("epsilon", "n", "frequency", "theoretical", "ratio", "std_error")
    rows = [tuple(getattr(r, key) for key in header) for r in run_large_deviation(cfg)]
    summary = {"experiment": "large-deviation", "trials": cfg.trials, "rows": [dict(zip(header, row)) for row in rows]}
    return header, _list_columns(rows), summary


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
        return ClosedFormDensity.power(theta)
    raise UsageError(f"unknown density '{name}' (expected one, id, or power:theta)")


def cmd_operator(args, conf: dict) -> Table:
    density = _density_from_name(conf["density"])
    schedule = sorted(set(conf["n"]))
    # repeated probes merge, in first-seen order
    probes = tuple(dict.fromkeys(conf["probe"]))
    mesh = farey_mesh(probes=probes)
    traces = uniform_returning_trace(density, schedule, probes, mesh)
    oracle_cutoff = 20
    header = ("n", "W_n", "probe_x", "value", "product", "min_slope", "max_second_diff", "oracle_value")
    rows = []
    for tr in traces:
        for p, v, prod in zip(tr.probes, tr.values, tr.products):
            oracle = exact_iterate(density, tr.n, p) if tr.n <= oracle_cutoff else ""
            rows.append((tr.n, tr.W_n, p, v, prod, tr.min_slope, tr.max_second_difference, oracle))
    summary = {
        "experiment": "operator-trace",
        "density": conf["density"],
        "schedule": schedule,
        "products": {str(tr.n): list(tr.products) for tr in traces},
    }
    return header, _list_columns(rows), summary


# ---------------------------------------------------------------- classic

# the single-orbit experiments: runner and the value columns after k
ORBIT_VALUES = {
    "khinchin": (run_khinchin, ("geometric_mean",)),
    "diamond-vaaler": (run_diamond_vaaler, ("trimmed_ratio", "relative_deviation")),
}


def cmd_classic(args, conf: dict) -> Table:
    which, n = conf["which"], conf["n"]
    # validated first, so a count below 1 is reported as such for every --which
    base = ExperimentConfig(master_seed=conf["seed"], trials=conf["trials"], workers=conf["workers"])
    if which in ORBIT_VALUES and (args.trials is not None or args.workers is not None):
        raise UsageError(f"classic --which {which} scans one orbit and takes no --trials or --workers")
    if which == "weak-law" and len(n) > 1:
        raise UsageError("classic --which weak-law takes at most one --n")
    if which == "stable" and n and len(n) != 2:
        raise UsageError("classic --which stable takes exactly two --n (k1 and k2)")
    if which in ORBIT_VALUES:
        run, values = ORBIT_VALUES[which]
        report = run(replace(base, checkpoints=tuple(sorted(set(n)))) if n else base)
        header = ("k", *values)
        columns = tuple([r[key] for r in report.records] for key in header)
        summary = {"experiment": which, "target": report.target, "checkpoints": columns[0]}
        return header, columns, {**summary, **dict(zip(values, columns[1:]))}
    if which == "ly":
        report = run_ly_uniform_law(replace(base, horizons=tuple(sorted(set(n))) if n else (100_000,)))
        header = ("n", "ks", "never_visited")
        columns = (list(report.horizons), list(report.ks), list(report.never_visited))
        summary = {"experiment": "ly-uniform-law", "trials": report.trials, "horizons": columns[0]}
        return header, columns, {**summary, **dict(zip(header[1:], columns[1:]))}
    if which == "weak-law":
        report = run_weak_law(replace(base, n=n[0] if n else 10_000))
        header, row = ("n", "median", "target"), (report.n, report.median, report.target)
        summary = {"within": {str(k): v for k, v in report.within.items()}}
    else:
        report = run_stable_stability(replace(base, k_pair=tuple(sorted(n))) if n else base)
        header, row = ("k1", "k2", "ks"), (report.k1, report.k2, report.ks)
        summary = {"percentile_99": list(report.percentile_99)}
    summary.update(experiment=which, trials=report.trials, **dict(zip(header, row)))
    return header, _list_columns([row]), summary


# ---------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cfrenewal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("expand", cmd_expand, "continued-fraction digits of --seed, --rational p/q in (0,1) or --constant golden|sqrt2"),
        ("simulate", cmd_simulate, "uniform-law fluctuation runs"),
        ("tail", cmd_tail, "large-deviation tail table"),
        ("operator", cmd_operator, "transfer-operator trace"),
        ("classic", cmd_classic, "classical limit-law experiments"),
    )
    for name, fn, help_text in commands:
        p = sub.add_parser(name, help=help_text, description=help_text)
        # no flag default: _merged tells a flag left out from one given
        for key, (default, kind) in SETTINGS[name].items():
            if isinstance(kind, tuple):
                p.add_argument(f"--{key}", choices=kind, required=default is None)
            else:
                p.add_argument(f"--{key}", type=kind, action="append" if isinstance(default, list) else "store")
        p.add_argument("--out", type=str, default=None, help="output path stem")
        p.add_argument("--format", choices=("csv", "json", "both"), default="both")
        if name in ("simulate", "tail"):
            p.add_argument("--config", type=str, default=None, help="key=value config file")
        p.set_defaults(fn=fn)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        conf = _merged(args)
        header, columns, summary = args.fn(args, conf)
        _emit(args, _echo_config(conf), header, columns, summary)
    except (UsageError, ValueError, DigitOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonGenericPointError as exc:
        print(f"non-generic point: {exc}", file=sys.stderr)
        return EXIT_NONGENERIC
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    return 0


if __name__ == "__main__":
    sys.exit(main())
