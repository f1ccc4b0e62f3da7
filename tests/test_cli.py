"""CLI surface: subcommands, exit codes, output formats, and determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cfrenewal import cli
from cfrenewal.cli import main


def run_cli(*argv: str) -> tuple[int, str]:
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_expand_constant_golden():
    code, out = run_cli("expand", "--constant", "golden", "--count", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,a_k,S_k,trimmed_S_k,geometric_mean"
    assert lines[1].startswith("1,1,1,0,")
    assert lines[5].startswith("5,1,5,4,")


def test_expand_rational_terminates_with_marker():
    code, out = run_cli("expand", "--rational", "3/7", "--count", "10")
    assert code == 0
    body = out.strip().splitlines()
    assert body[1].startswith("1,2,2,0")
    assert body[2].startswith("2,3,5,2")
    assert body[3].startswith("3,end")


def test_expand_seeded_deterministic():
    _, out1 = run_cli("expand", "--seed", "42", "--count", "100")
    _, out2 = run_cli("expand", "--seed", "42", "--count", "100")
    assert out1 == out2


def test_expand_requires_exactly_one_source():
    code, _ = run_cli("expand", "--seed", "1", "--rational", "1/2")
    assert code == 2
    code, _ = run_cli("expand")
    assert code == 2


def test_expand_rejects_rational_outside_unit_interval():
    code, _ = run_cli("expand", "--rational", "9/4")
    assert code == 2


def test_horizons_from_2_pow_53_exit_2(capsys):
    # the crossing scan keeps float64 sums, exact only below 2^53
    for argv in (("simulate", "--n", str(2**53)), ("classic", "--which", "ly", "--n", str(2**53))):
        code, _ = run_cli(*argv)
        assert code == 2
        assert "below 2^53" in capsys.readouterr().err
    # past int64 the horizons cannot even be converted
    code, _ = run_cli("simulate", "--n", str(2**63))
    assert code == 2
    assert "below 2^63" in capsys.readouterr().err


def test_digit_past_the_checked_range_exits_2(capsys):
    # 1/(2^64 + 1) has the digit 2^64 + 1: one error line, no traceback
    code, _ = run_cli("expand", "--rational", f"1/{2**64 + 1}", "--count", "3")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "64-bit checked range" in err and err.count("\n") == 1


def test_unknown_density_exits_2():
    # a power exponent outside (0, 1] names no density either
    for density in ("bogus", "power:0", "power:1.5", "power:nan"):
        code, _ = run_cli("operator", "--density", density, "--n", "2")
        assert code == 2


def test_probe_outside_a1_exits_2():
    for probe in ("0.3", "nan"):
        code, _ = run_cli("operator", "--density", "id", "--n", "2", "--probe", probe)
        assert code == 2


def test_operator_density_one_products_equal_wandering_rate(tmp_path):
    out = tmp_path / "op"
    code, _ = run_cli(
        "operator", "--density", "one", "--n", "2", "--n", "8", "--out", str(out)
    )
    assert code == 0
    import math

    payload = json.loads((tmp_path / "op.json").read_text())
    assert payload["products"]["2"] == pytest.approx([math.log(4)] * 3)
    assert payload["products"]["8"] == pytest.approx([math.log(10)] * 3)


def test_operator_csv_has_oracle_column(tmp_path):
    out = tmp_path / "op"
    code, _ = run_cli("operator", "--density", "id", "--n", "4", "--out", str(out))
    assert code == 0
    lines = (tmp_path / "op.csv").read_text().splitlines()
    assert lines[0].startswith("# seed=")
    header = lines[1].split(",")
    assert header == [
        "n", "W_n", "probe_x", "value", "product", "min_slope", "max_second_diff", "oracle_value",
    ]
    first = lines[2].split(",")
    assert abs(float(first[3]) - float(first[7])) <= 1e-4 * float(first[7])


def test_simulate_single_trial_row(tmp_path):
    out = tmp_path / "sim"
    code, _ = run_cli(
        "simulate", "--seed", "5", "--trials", "1", "--n", "10", "--out", str(out)
    )
    assert code == 0
    csv_lines = (tmp_path / "sim.csv").read_text().splitlines()
    assert csv_lines[1] == "trial,n,X_n,gap,scaled"
    assert len(csv_lines) == 3
    payload = json.loads((tmp_path / "sim.json").read_text())
    assert payload["experiment"] == "uniform-law"
    assert payload["master_seed"] == 5
    assert payload["schema_version"] == 1
    assert "config_hash" in payload


def test_simulate_worker_counts_byte_identical(tmp_path):
    # --workers 2 runs two 4500-trial ranges on a pool
    for workers in ("1", "2"):
        code, _ = run_cli(
            "simulate",
            "--seed", "7",
            "--trials", "9000",
            "--n", "1000",
            "--n", "10000",
            "--workers", workers,
            "--out", str(tmp_path / f"w{workers}"),
        )
        assert code == 0
    assert (tmp_path / "w1.csv").read_bytes() != b""
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"w1{suffix}").read_bytes() == (tmp_path / f"w2{suffix}").read_bytes()


def test_tail_theoretical_column_and_monotone_frequency(tmp_path):
    out = tmp_path / "tail"
    code, _ = run_cli(
        "tail",
        "--seed", "3",
        "--trials", "3000",
        "--n", "1000000",
        "--epsilon", "0.1",
        "--epsilon", "0.5",
        "--epsilon", "0.99",
        "--out", str(out),
    )
    assert code == 0
    lines = (tmp_path / "tail.csv").read_text().splitlines()
    assert lines[1] == "epsilon,n,frequency,theoretical,ratio,std_error"
    rows = [line.split(",") for line in lines[2:]]
    freqs = [float(r[2]) for r in rows]
    assert freqs == sorted(freqs, reverse=True)
    half = [r for r in rows if r[0] == "0.5"][0]
    assert float(half[3]) == pytest.approx(0.050171, abs=1e-5)


def test_tail_merges_repeated_epsilons(tmp_path):
    # repeated epsilons are merged like repeated --n values: no row appears twice
    bodies = []
    for extra in (["--epsilon", "0.1"], ["--epsilon", "0.1", "--epsilon", "0.1"]):
        stem = tmp_path / f"tail{len(bodies)}"
        code, _ = run_cli("tail", "--seed", "3", "--trials", "200", "--n", "1000", *extra, "--out", str(stem))
        assert code == 0
        bodies.append(stem.with_suffix(".csv").read_text().splitlines()[1:])
    assert len(bodies[0]) == 2
    assert bodies[1] == bodies[0]


def test_operator_merges_repeated_probes(tmp_path):
    # a repeated --probe keeps its first place and prints its rows once
    bodies = []
    for probes in (["0.75", "0.6"], ["0.75", "0.6", "0.75", "0.6"]):
        stem = tmp_path / f"op{len(bodies)}"
        args = [arg for p in probes for arg in ("--probe", p)]
        code, _ = run_cli("operator", "--density", "one", "--n", "2", *args, "--out", str(stem))
        assert code == 0
        # the body: past the provenance line, whose config hash keeps the flags as given, and the header
        bodies.append(stem.with_suffix(".csv").read_text().splitlines()[2:])
    assert len(bodies[0]) == 2 and bodies[0][0].split(",")[2] == "0.75"
    assert bodies[1] == bodies[0]


def test_classic_khinchin_json(tmp_path):
    out = tmp_path / "kh"
    code, _ = run_cli(
        "classic", "--which", "khinchin", "--seed", "2", "--n", "1000", "--n", "10000",
        "--out", str(out),
    )
    assert code == 0
    payload = json.loads((tmp_path / "kh.json").read_text())
    assert payload["target"] == 2.685
    assert payload["checkpoints"] == [1000, 10000]


def test_classic_diamond_vaaler_target(tmp_path):
    out = tmp_path / "dv"
    code, _ = run_cli(
        "classic", "--which", "diamond-vaaler", "--seed", "2", "--n", "1000", "--out", str(out)
    )
    assert code == 0
    payload = json.loads((tmp_path / "dv.json").read_text())
    assert payload["target"] == pytest.approx(1.442695, abs=1e-6)


def test_classic_stable_same_horizons_zero_ks(tmp_path):
    out = tmp_path / "s1"
    code, _ = run_cli(
        "classic", "--which", "stable", "--seed", "4", "--trials", "500",
        "--n", "700", "--n", "700", "--out", str(out),
    )
    assert code == 0
    payload = json.loads((tmp_path / "s1.json").read_text())
    assert payload["ks"] == 0.0

    out2 = tmp_path / "s2"
    code, _ = run_cli(
        "classic", "--which", "stable", "--seed", "4", "--trials", "500",
        "--n", "500", "--n", "2000", "--out", str(out2),
    )
    assert code == 0
    rerun = json.loads((tmp_path / "s2.json").read_text())
    assert rerun["k1"] == 500 and rerun["k2"] == 2000


def test_classic_ly_runs(tmp_path):
    out = tmp_path / "ly"
    code, _ = run_cli(
        "classic", "--which", "ly", "--seed", "4", "--trials", "1000", "--n", "1000",
        "--out", str(out),
    )
    assert code == 0
    payload = json.loads((tmp_path / "ly.json").read_text())
    assert 0 < payload["ks"][0] < 1


def test_config_file_precedence(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("seed=99\ntrials=50\nn=100\n# comment line\n")
    out = tmp_path / "cfg"
    code, _ = run_cli(
        "simulate", "--config", str(conf), "--trials", "25", "--out", str(out)
    )
    assert code == 0
    payload = json.loads((tmp_path / "cfg.json").read_text())
    # flag beats file; file beats default
    assert payload["config"]["trials"] == 25
    assert payload["config"]["seed"] == 99
    assert payload["trials"] == 25


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--trials", "10", "--n", "100"),
        ("tail", "--trials", "10", "--n", "100"),
    ],
)
def test_unknown_config_key_rejected(tmp_path, capsys, argv):
    # a typo such as trails=50 must not fall back to the default silently
    conf = tmp_path / "run.conf"
    conf.write_text("seed=9\ntrails=50\n")
    out = tmp_path / "out"
    code, _ = run_cli(*argv, "--config", str(conf), "--out", str(out))
    assert code == 2
    assert "trails" in capsys.readouterr().err
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "--constant", "golden", "--count", "3"),
        ("operator", "--n", "1"),
        ("classic", "--which", "weak-law", "--n", "100"),
    ],
)
def test_config_rejected_where_not_read(tmp_path, capsys, argv):
    # only simulate and tail merge a config file; elsewhere it would be ignored
    conf = tmp_path / "run.conf"
    conf.write_text("seed=9\ntrials=50\ndensity=one\n")
    out = tmp_path / "out"
    code, _ = run_cli(*argv, "--config", str(conf), "--out", str(out))
    assert code == 2
    assert "--config" in capsys.readouterr().err
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--trials", "10", "--n", "100", "--workers", "-3"),
        ("tail", "--trials", "10", "--n", "100", "--workers", "-1"),
        ("classic", "--which", "ly", "--trials", "10", "--n", "100", "--workers", "0"),
        ("classic", "--which", "khinchin", "--n", "1000", "--workers", "0"),
        ("classic", "--which", "diamond-vaaler", "--n", "1000", "--trials", "0"),
        ("classic", "--which", "weak-law", "--n", "100", "--trials", "0"),
        ("simulate", "--trials", "10", "--n", "100", "--source", "exact", "--refine-cap", "0"),
        ("simulate", "--trials", "10", "--n", "100", "--source", "exact", "--refine-cap", "-5"),
        ("expand", "--seed", "1", "--refine-cap", "0"),
        ("classic", "--which", "khinchin", "--n", "0"),
    ],
)
def test_counts_below_one_exit_2(tmp_path, capsys, argv):
    # a worker count, trial count or refinement cap below 1 is a usage error,
    # not a serial run, a default, or a failed resampling round
    out = tmp_path / "out"
    code, _ = run_cli(*argv, "--out", str(out))
    assert code == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize("value", ["-1", str(2**64 + 1)])
@pytest.mark.parametrize(
    "argv, flag",
    [
        (("simulate", "--trials", "10", "--n", "100", "--seed"), "--seed"),
        (("simulate", "--trials", "10", "--n", "100", "--source", "exact", "--seed"), "--seed"),
        (("tail", "--trials", "10", "--n", "100", "--seed"), "--seed"),
        (("classic", "--which", "ly", "--trials", "10", "--n", "100", "--seed"), "--seed"),
        (("expand", "--count", "3", "--seed"), "--seed"),
        (("expand", "--count", "3", "--seed", "1", "--stream"), "--stream"),
    ],
)
def test_key_outside_64_bits_exit_2(tmp_path, capsys, argv, flag, value):
    # the bit generator reduces keys mod 2^64, so -1 or 2^64 + 1 would run
    # another seed's streams under a config hash of its own
    out = tmp_path / "out"
    code, _ = run_cli(*argv, value, "--out", str(out))
    assert code == 2
    assert f"{flag} must lie in [0, 2^64)" in capsys.readouterr().err
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("classic", "--which", "stable", "--trials", "50", "--n", "500"), "--n"),
        (("classic", "--which", "stable", "--trials", "50", "--n", "500", "--n", "600", "--n", "700"), "--n"),
        (("classic", "--which", "weak-law", "--trials", "50", "--n", "100", "--n", "5000"), "--n"),
        (("classic", "--which", "khinchin", "--n", "1000", "--trials", "5"), "--trials"),
        (("classic", "--which", "khinchin", "--n", "1000", "--workers", "2"), "--workers"),
        (("classic", "--which", "diamond-vaaler", "--n", "1000", "--trials", "5"), "--trials"),
        (("classic", "--which", "diamond-vaaler", "--n", "1000", "--workers", "2"), "--workers"),
        # a repeated value still counts as one more --n
        (("classic", "--which", "weak-law", "--trials", "50", "--n", "100", "--n", "100"), "--n"),
        (("classic", "--which", "stable", "--trials", "50", "--n", "500", "--n", "500", "--n", "500"), "--n"),
        (("expand", "--constant", "golden", "--count", "3", "--stream", "5"), "--stream"),
        (("expand", "--rational", "3/7", "--count", "3", "--refine-cap", "9"), "--refine-cap"),
    ],
)
def test_classic_flags_it_cannot_honour_exit_2(tmp_path, capsys, argv, flag):
    # stable needs a pair of digit counts, weak-law one, and the orbit
    # experiments run a single orbit; anything else would be dropped silently.
    # expand's stream index and refinement cap act on seeded digits only
    out = tmp_path / "out"
    code, _ = run_cli(*argv, "--out", str(out))
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.glob("out.*"))


@pytest.mark.parametrize(
    "argv, message",
    [
        (("classic", "--which", "diamond-vaaler", "--n", "1"), "every checkpoint must be >= 2"),
        (("classic", "--which", "weak-law", "--trials", "50", "--n", "1"), "n must be >= 2"),
    ],
)
def test_classic_log_divisor_of_zero_exit_2(tmp_path, capsys, argv, message):
    # weak-law and diamond-vaaler divide by log n, which is 0 at n = 1; the
    # library rejects it and the CLI reports the library's message
    out = tmp_path / "out"
    code, _ = run_cli(*argv, "--out", str(out))
    assert code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("out.*"))


def _child_env() -> dict:
    # the child finds the package where this process imported it from
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cfrenewal.cli", "expand", "--constant", "sqrt2", "--count", "3"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("1,2,2,0")


# runs one command in a fresh interpreter and prints its exit code and the modules it loaded
_IMPORT_PROBE = """
import contextlib, io, json, sys
from cfrenewal import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""

_EXPERIMENT_MODULES = ("cfrenewal.experiments", "cfrenewal.sampling", "cfrenewal.stats", "cfrenewal.farey")


@pytest.mark.parametrize(
    "argv, absent, present",
    [
        (["operator", "--n", "4", "--n", "16"], (*_EXPERIMENT_MODULES, "multiprocessing", "fractions"), ()),
        (["simulate", "--trials", "50", "--n", "100", "--workers", "1"], ("multiprocessing", "fractions"),
         _EXPERIMENT_MODULES),
        (["simulate", "--trials", "50", "--n", "100", "--workers", "2"], ("fractions",),
         (*_EXPERIMENT_MODULES, "multiprocessing")),
    ],
    ids=["operator", "simulate-serial", "simulate-pool"],
)
def test_subcommands_load_only_the_modules_they_run(argv, absent, present):
    # start-up cost: operator never loads the sampler side, and only a pool loads multiprocessing
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code == 0
    assert not [m for m in absent if m in modules]
    assert [m for m in present if m in modules] == list(present)


# every subcommand in one fresh interpreter; prints the exit codes and whether numpy.ma was loaded
_NUMPY_MA_PROBE = """
import contextlib, io, json, sys
from cfrenewal import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, "numpy.ma" in sys.modules]))
"""


def test_no_subcommand_loads_numpy_ma():
    # on numpy 2.x np.unique, np.percentile and np.median import numpy.ma, which costs every run
    # start-up time and memory; on a numpy that does not, this passes whatever src/ calls
    runs = [
        ["expand", "--seed", "3", "--count", "30"],
        ["simulate", "--trials", "40", "--n", "100", "--n", "300"],
        ["simulate", "--source", "exact", "--trials", "4", "--n", "60"],
        ["tail", "--trials", "40", "--n", "200"],
        ["operator", "--density", "power:0.5", "--n", "1", "--n", "8"],
        ["classic", "--which", "khinchin", "--n", "10", "--n", "100"],
        ["classic", "--which", "diamond-vaaler", "--n", "10", "--n", "100"],
        ["classic", "--which", "weak-law", "--trials", "40", "--n", "100"],
        ["classic", "--which", "stable", "--trials", "40", "--n", "10", "--n", "50"],
        ["classic", "--which", "ly", "--trials", "40", "--n", "100"],
    ]
    proc = subprocess.run([sys.executable, "-c", _NUMPY_MA_PROBE, json.dumps(runs)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * len(runs), False]


def test_repr_table_distinct_bits_equal_np_unique():
    # _ReprTable drops repeats from the sorted bits by hand, to keep np.unique (and numpy.ma) out
    rng = np.random.default_rng(27)
    cases = [np.array([]), np.array([0.5]), np.array(_SPECIAL_FLOATS * 3), rng.choice(_SPECIAL_FLOATS, 500)]
    cases += [rng.integers(0, k, 2000, dtype=np.uint64).view(np.float64) for k in (1, 2, 7, 2**64 - 1)]
    for col in cases:
        table = cli._ReprTable(col)
        assert table.distinct.dtype == np.uint64
        assert table.distinct.tolist() == np.unique(col.view(np.uint64)).tolist()


def test_nongeneric_point_exits_3():
    # a refinement cap far below what random streams need trips the typed
    # error, which the CLI maps to exit code 3
    code, _ = run_cli("expand", "--seed", "12", "--count", "200", "--refine-cap", "8")
    assert code == 3


def test_nongeneric_point_in_an_experiment_exits_3(capsys):
    # the same mapping for an error raised inside experiments, which the CLI imports late
    code, _ = run_cli("simulate", "--source", "exact", "--refine-cap", "1", "--trials", "2", "--n", "10")
    assert code == 3
    assert "non-generic point: trial 0 failed 8 resampling rounds" in capsys.readouterr().err


def test_format_csv_only(tmp_path):
    out = tmp_path / "only"
    code, _ = run_cli(
        "simulate", "--seed", "5", "--trials", "10", "--n", "100",
        "--out", str(out), "--format", "csv",
    )
    assert code == 0
    assert (tmp_path / "only.csv").exists()
    assert not (tmp_path / "only.json").exists()


def test_partial_output_removed_on_write_failure(tmp_path):
    # JSON target is an existing directory, so its write fails after the CSV
    # succeeded; the CSV must be cleaned up
    stem = tmp_path / "part"
    (tmp_path / "part.json").mkdir()
    code, _ = run_cli(
        "simulate", "--seed", "5", "--trials", "10", "--n", "100", "--out", str(stem)
    )
    assert code == 4
    assert not (tmp_path / "part.csv").exists()


def test_partial_output_removed_when_rendering_fails(tmp_path, monkeypatch):
    # the CSV body is rendered while the temp file is open; an error in the
    # second block must leave neither the temp file nor any final file
    calls = []
    real_block = cli._csv_block

    def failing_block(columns, lo, hi):
        calls.append(lo)
        if len(calls) == 2:
            raise RuntimeError("formatter failed")
        return real_block(columns, lo, hi)

    monkeypatch.setattr(cli, "_csv_block", failing_block)
    stem = tmp_path / "part"
    with pytest.raises(RuntimeError, match="formatter failed"):
        run_cli("simulate", "--seed", "5", "--trials", "5000", "--n", "100", "--n", "1000", "--out", str(stem))
    assert calls == [0, cli.BLOCK_ROWS]
    for suffix in (".csv", ".csv.tmp", ".json", ".json.tmp"):
        assert not (tmp_path / f"part{suffix}").exists()


def test_written_csv_removed_when_json_fails(tmp_path, monkeypatch):
    # a non-I/O error while writing the second file still removes the first
    def failing_dumps(*args, **kwargs):
        raise TypeError("not serializable")

    monkeypatch.setattr(cli.json, "dumps", failing_dumps)
    stem = tmp_path / "part"
    with pytest.raises(TypeError):
        run_cli("operator", "--density", "one", "--n", "2", "--out", str(stem))
    assert not list(tmp_path.iterdir())


_RERUN = ("simulate", "--trials", "5000", "--n", "100", "--n", "1000")


def test_rerun_replaces_both_files_and_leaves_no_temp(tmp_path):
    stem = tmp_path / "run"
    assert run_cli(*_RERUN, "--seed", "5", "--out", str(stem))[0] == 0
    first = {s: (tmp_path / f"run{s}").read_bytes() for s in (".csv", ".json")}
    assert run_cli(*_RERUN, "--seed", "6", "--out", str(tmp_path / "fresh"))[0] == 0
    assert run_cli(*_RERUN, "--seed", "6", "--out", str(stem))[0] == 0
    for suffix in (".csv", ".json"):
        new = (tmp_path / f"run{suffix}").read_bytes()
        assert new == (tmp_path / f"fresh{suffix}").read_bytes() != first[suffix]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.csv", "fresh.json", "run.csv", "run.json"]


def test_rename_never_lands_on_an_existing_file(tmp_path, monkeypatch):
    # a rename over an existing file is what makes ext4 write the data back
    renames = []
    real_replace = cli.os.replace

    def checked_replace(src, dst):
        assert not cli.os.path.lexists(dst)
        renames.append(dst)
        real_replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", checked_replace)
    stem = tmp_path / "run"
    for _ in range(2):
        assert run_cli(*_RERUN, "--seed", "5", "--out", str(stem))[0] == 0
    assert renames == [str(stem) + ".csv", str(stem) + ".json"] * 2


def test_rendering_failure_on_rerun_keeps_previous_files(tmp_path, monkeypatch):
    # the old file is removed only once the temp file is complete, so a failed
    # rerun leaves the previous run's outputs byte for byte
    stem = tmp_path / "part"
    assert run_cli(*_RERUN, "--seed", "5", "--out", str(stem))[0] == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    calls = []
    real_block = cli._csv_block

    def failing_block(columns, lo, hi):
        calls.append(lo)
        if len(calls) == 2:
            raise RuntimeError("formatter failed")
        return real_block(columns, lo, hi)

    monkeypatch.setattr(cli, "_csv_block", failing_block)
    with pytest.raises(RuntimeError, match="formatter failed"):
        run_cli(*_RERUN, "--seed", "6", "--out", str(stem))
    assert calls == [0, cli.BLOCK_ROWS]
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert sorted(before) == ["part.csv", "part.json"]


@pytest.mark.parametrize("failing, kept", [(".csv", ["run.json"]), (".json", [])])
def test_rename_failure_on_rerun_loses_the_old_file(tmp_path, monkeypatch, failing, kept):
    # the old file is already gone when the rename runs, so a rename that
    # fails leaves neither the old nor the new file at that path; the run
    # exits 4, removes its temp file and the other file it wrote
    stem = tmp_path / "run"
    assert run_cli(*_RERUN, "--seed", "5", "--out", str(stem))[0] == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_replace = cli.os.replace

    def failing_replace(src, dst):
        assert not cli.os.path.lexists(dst)
        if dst.endswith(failing):
            raise OSError("rename failed")
        real_replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", failing_replace)
    assert run_cli(*_RERUN, "--seed", "6", "--out", str(stem))[0] == 4
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {name: before[name] for name in kept}


def _rowwise_reference(columns) -> str:
    # the row-at-a-time formatting the block renderer must reproduce exactly
    lines = []
    for row in zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)):
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "".join(line + "\n" for line in lines)


def _assert_same_text(got: str, want: str) -> None:
    """``got == want``; a mismatch names its first differing line, not a diff of whole texts."""
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    first = next(
        (k for k, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
        min(len(got_lines), len(want_lines)),
    )
    assert (first, got_lines[first : first + 1]) == (first, want_lines[first : first + 1])
    assert len(got_lines) == len(want_lines)
    assert got == want


_SPECIAL_FLOATS = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16, 0.1 + 0.2, 1 / 3]
_INT64_EDGES = [-(2**63), 2**63 - 1, 0, -1, 9, 10, 99, 100, 10**18 - 1, 10**18, -(10**18), -10, -9]


def _cycle(values, n_rows, dtype=None):
    return np.array(values, dtype=dtype)[np.arange(n_rows) % len(values)]


@pytest.mark.parametrize("n_rows", [0, 1, cli.BLOCK_ROWS - 1, cli.BLOCK_ROWS, cli.BLOCK_ROWS + 1])
def test_block_renderer_matches_rowwise_formatting(n_rows):
    idx = np.arange(n_rows)
    floats = np.array(_SPECIAL_FLOATS)[idx % len(_SPECIAL_FLOATS)]
    # a run of one value straddles the block boundary
    floats[cli.BLOCK_ROWS - 4 : cli.BLOCK_ROWS + 1] = 0.1 + 0.2
    ints = (idx * 7919 % 1000 - 500).astype(np.int64)
    mixed = [[k, 2.5 * k, "end", "", -k][k % 5] for k in range(n_rows)]
    i32 = np.iinfo(np.int32)
    columns = (
        ints, floats, mixed, np.log1p(idx.astype(np.float64)),
        # digits by numpy for every integer dtype, value by value for the rest
        _cycle(_INT64_EDGES, n_rows, np.int64),
        _cycle([i32.min, i32.max, 0, -1, 10], n_rows, np.int32),
        _cycle([0, 9, 10, 2**63, 2**64 - 1, 10**19], n_rows, np.uint64),
        _cycle([True, False, False], n_rows, bool),
        _cycle([0.5, -7], n_rows, np.float32),
        [""] * n_rows,
        # non-ASCII text goes through as UTF-8
        [["é", "ß∑", "日本", "x"][k % 4] for k in range(n_rows)],
    )
    text = "".join(cli._render(["a,b,c,d"], columns))
    _assert_same_text(text, "a,b,c,d\n" + _rowwise_reference(columns))


def test_block_renderer_shares_one_float_table_across_blocks(monkeypatch):
    # one table per float column for the whole render, though the blocks'
    # reprs differ in width, and a block or a column may hold a single value
    built = []
    real_table = cli._ReprTable

    def counting_table(col):
        built.append(len(col))
        return real_table(col)

    monkeypatch.setattr(cli, "_ReprTable", counting_table)
    b = cli.BLOCK_ROWS
    varied = np.concatenate([np.full(b, 0.5), 1 / np.arange(1.0, b + 1), np.full(3, -0.0)])
    constant = np.full(len(varied), 2.5)
    columns = (np.arange(len(varied)), varied, constant)
    chunks = list(cli._render(["h"], columns))
    assert built == [len(varied)] * 2
    assert len(chunks) == 4
    _assert_same_text("".join(chunks), "h\n" + _rowwise_reference(columns))
    assert chunks[1].splitlines()[0] == "0,0.5,2.5"
    assert chunks[2].splitlines()[2] == f"{b + 2},{1 / 3!r},2.5"


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--seed", "7", "--trials", "5000", "--n", "100", "--n", "1000"),
        ("operator", "--density", "one", "--n", "2", "--n", "8"),
        ("expand", "--seed", "9", "--stream", "4", "--count", "5"),
        ("classic", "--which", "weak-law", "--trials", "50", "--n", "100"),
    ],
)
def test_stdout_matches_written_files(tmp_path, argv):
    # without --out, --format selects what is printed, as it selects the files
    for fmt in ("both", "csv", "json"):
        code, printed = run_cli(*argv, "--format", fmt)
        assert code == 0
        stem = tmp_path / fmt / "out"
        stem.parent.mkdir()
        code, _ = run_cli(*argv, "--format", fmt, "--out", str(stem))
        assert code == 0
        kinds = [ext for ext in ("csv", "json") if fmt in (ext, "both")]
        assert sorted(p.name for p in stem.parent.iterdir()) == [f"out.{ext}" for ext in kinds]
        expected = []
        if "csv" in kinds:
            csv_lines = stem.with_suffix(".csv").read_text().splitlines()
            assert csv_lines[0].startswith("# seed=")
            expected += csv_lines[1:]
        if "json" in kinds:
            expected.append(json.dumps(json.loads(stem.with_suffix(".json").read_text()), sort_keys=True))
        assert printed.splitlines() == expected


# per subcommand: a cheap command line, and for each setting two additions to
# it that differ in that setting only
_HASH_BASE = {
    "expand": ("expand", "--count", "3"),
    "simulate": ("simulate", "--trials", "20", "--n", "100"),
    "tail": ("tail", "--trials", "20", "--n", "100"),
    "operator": ("operator", "--n", "2"),
    "classic": ("classic", "--seed", "1", "--n", "1000"),
}
_HASH_VARIANTS = {
    ("expand", "seed"): (["--seed", "1"], ["--seed", "2"]),
    ("expand", "stream"): (["--seed", "9", "--stream", "4"], ["--seed", "9", "--stream", "5"]),
    ("expand", "rational"): (["--rational", "1/3"], ["--rational", "2/5"]),
    ("expand", "constant"): (["--constant", "golden"], ["--constant", "sqrt2"]),
    ("expand", "count"): (["--constant", "golden"], ["--constant", "golden", "--count", "4"]),
    ("expand", "refine-cap"): (["--seed", "1"], ["--seed", "1", "--refine-cap", "600"]),
    ("simulate", "seed"): ([], ["--seed", "2"]),
    ("simulate", "trials"): ([], ["--trials", "21"]),
    ("simulate", "n"): ([], ["--n", "200"]),
    ("simulate", "refine-cap"): ([], ["--refine-cap", "600"]),
    ("simulate", "source"): ([], ["--source", "exact"]),
    ("tail", "seed"): ([], ["--seed", "2"]),
    ("tail", "trials"): ([], ["--trials", "21"]),
    ("tail", "n"): ([], ["--n", "200"]),
    ("tail", "epsilon"): ([], ["--epsilon", "0.2"]),
    ("tail", "source"): ([], ["--source", "exact"]),
    ("operator", "density"): ([], ["--density", "one"]),
    ("operator", "n"): ([], ["--n", "4"]),
    ("operator", "probe"): ([], ["--probe", "0.75"]),
    ("classic", "which"): (["--which", "khinchin"], ["--which", "diamond-vaaler"]),
    ("classic", "seed"): (["--which", "khinchin"], ["--which", "khinchin", "--seed", "2"]),
    ("classic", "trials"): (["--which", "ly", "--trials", "20"], ["--which", "ly", "--trials", "21"]),
    ("classic", "n"): (["--which", "khinchin"], ["--which", "khinchin", "--n", "2000"]),
}


@pytest.mark.parametrize(
    "command, key",
    [(command, key) for command, keys in cli.SETTINGS.items() for key in keys if key != "workers"],
)
def test_every_setting_changes_config_hash(tmp_path, command, key):
    # two runs that differ in one setting must not share a config_hash; the
    # worker count alone is left out, because it never changes the outputs
    hashes = []
    for k, extra in enumerate(_HASH_VARIANTS[command, key]):
        stem = tmp_path / f"run{k}"
        code, _ = run_cli(*_HASH_BASE[command], *extra, "--out", str(stem))
        assert code == 0
        payload = json.loads(stem.with_suffix(".json").read_text())
        assert key in payload["config"]
        hashes.append(payload["config_hash"])
    assert hashes[0] != hashes[1]


# SHA-256 of <out>.csv followed by <out>.json; a deliberate version or schema
# bump changes these, and nothing else may
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("classic", "--which", "khinchin"),
         "319555da78aaa44963ffa97c9dece6a574d85fca9b1c4b4dbe4ec1a26f94b1ce"),
        (("classic", "--which", "diamond-vaaler", "--n", "1000", "--n", "10000", "--n", "100000", "--n", "1000000"),
         "f547ae44fabc777e404632d6e45725dce74057b7372277905d05c863f9b17de3"),
        (("expand", "--seed", "5", "--stream", "3", "--count", "300"),
         "c206e6f22642920f1b80014463c971ba7bef7203513181e421302e9b1c30e56b"),
        (("expand", "--rational", "113/355", "--count", "30"),
         "c04c772eea0ac409984be126956723d74cc1e13797c16ea5b0aac09cdaba196d"),
        (("expand", "--constant", "sqrt2", "--count", "10"),
         "bbcf3ce7434b877a831a9aac1039a97f3e1ac9e1db2a93f84415ca500f99c8a5"),
    ],
)
def test_orbit_outputs_byte_identical(tmp_path, argv, digest):
    _assert_output_digest(tmp_path, argv, digest)


# the same pin for the outputs of the columnar renderer's other callers: a
# simulate run of two blocks, the certified source, operator rows with empty
# oracle cells, the tail and classic tables, and the certified source again
# with a cap of 12 bits that resamples trials and to n = 10^4
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("simulate", "--seed", "7", "--trials", "5000", "--n", "100", "--n", "1000"),
         "a657f1a7c14eb121b08ce1304918cc1faaa395c8b3036fcf24ad8e794f37dbd8"),
        (("simulate", "--source", "exact", "--seed", "3", "--trials", "40", "--n", "100", "--n", "500"),
         "9efea10cccf8ddaa772cd014c9e2c198a86102474c0948187ab1f298e8cb831e"),
        (("operator", "--density", "one", "--n", "2", "--n", "16", "--n", "64"),
         "1b36383efa64a79fa7e5002fd0014a50d65ba7e4a51b81364e3bcded5b9cf38e"),
        (("tail", "--seed", "4", "--trials", "300", "--n", "1000", "--epsilon", "0.1", "--epsilon", "0.5"),
         "122638c4bb81b6949caad5bc2e207867c044e013f9deb6523498221f9a6669a3"),
        (("classic", "--which", "stable", "--trials", "300", "--n", "100", "--n", "1000"),
         "f2b90e742e1f12f3541edaa00d48074b4fcf373b53a9be0870ed63b5c10498ea"),
        (("classic", "--which", "ly", "--trials", "300", "--n", "1000", "--n", "5000"),
         "27b26b7a1703ae3a8abbbcd69216c0340812abb04a4e7cbfcb3832a6f150466d"),
        (("classic", "--which", "weak-law", "--trials", "200", "--n", "1000"),
         "5543c22191c54339ec3db7daea20f26c5208928996e4d6bdc1f797d900343f1a"),
        (("simulate", "--source", "exact", "--refine-cap", "12", "--seed", "12", "--trials", "300", "--n", "50"),
         "6daa0696d8943f526c5dd6d93affa88adc03732e3680982882ec31f5b41d9def"),
        (("simulate", "--source", "exact", "--seed", "3", "--trials", "200", "--n", "1000", "--n", "10000"),
         "0c54b9d405d774c56597f13730d06f45b493450788f0cd826f397f8e10f46093"),
    ],
)
def test_rendered_outputs_byte_identical(tmp_path, argv, digest):
    _assert_output_digest(tmp_path, argv, digest)


def _assert_output_digest(tmp_path, argv, digest):
    stem = tmp_path / "out"
    code, _ = run_cli(*argv, "--out", str(stem))
    assert code == 0
    data = stem.with_suffix(".csv").read_bytes() + stem.with_suffix(".json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
