"""CLI surface: subcommands, exit codes, output formats, and determinism."""

from __future__ import annotations

import json
import subprocess
import sys

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


def test_unknown_density_exits_2():
    code, _ = run_cli("operator", "--density", "bogus", "--n", "2")
    assert code == 2


def test_probe_outside_a1_exits_2():
    code, _ = run_cli("operator", "--density", "id", "--n", "2", "--probe", "0.3")
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
    # 9000 trials make two 8192-trial chunks, so --workers 2 really runs a pool
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
    ],
)
def test_classic_flags_it_cannot_honour_exit_2(tmp_path, capsys, argv, flag):
    # stable needs a pair of digit counts, weak-law one, and the orbit
    # experiments run a single orbit; anything else would be dropped silently
    out = tmp_path / "out"
    code, _ = run_cli(*argv, "--out", str(out))
    assert code == 2
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.glob("out.*"))


def test_cli_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cfrenewal.cli", "expand", "--constant", "sqrt2", "--count", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("1,2,2,0")


def test_nongeneric_point_exits_3():
    # a refinement cap far below what random streams need trips the typed
    # error, which the CLI maps to exit code 3
    code, _ = run_cli("expand", "--seed", "12", "--count", "200", "--refine-cap", "8")
    assert code == 3


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


def _rowwise_reference(columns) -> str:
    # the row-at-a-time formatting the block renderer must reproduce exactly
    lines = []
    for row in zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns)):
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    return "".join(line + "\n" for line in lines)


_SPECIAL_FLOATS = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16, 0.1 + 0.2, 1 / 3]


@pytest.mark.parametrize("n_rows", [0, 1, cli.BLOCK_ROWS - 1, cli.BLOCK_ROWS, cli.BLOCK_ROWS + 1])
def test_block_renderer_matches_rowwise_formatting(n_rows):
    idx = np.arange(n_rows)
    floats = np.array(_SPECIAL_FLOATS)[idx % len(_SPECIAL_FLOATS)]
    # a run of one value straddles the block boundary
    floats[cli.BLOCK_ROWS - 4 : cli.BLOCK_ROWS + 1] = 0.1 + 0.2
    ints = (idx * 7919 % 1000 - 500).astype(np.int64)
    mixed = [[k, 2.5 * k, "end", "", -k][k % 5] for k in range(n_rows)]
    columns = (ints, floats, mixed, np.log1p(idx.astype(np.float64)))
    text = "".join(cli._render(["a,b,c,d"], columns))
    assert text == "a,b,c,d\n" + _rowwise_reference(columns)


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--seed", "7", "--trials", "5000", "--n", "100", "--n", "1000"),
        ("operator", "--density", "one", "--n", "2", "--n", "8"),
    ],
)
def test_stdout_matches_written_files(tmp_path, argv):
    code, printed = run_cli(*argv)
    assert code == 0
    code, _ = run_cli(*argv, "--out", str(tmp_path / "out"))
    assert code == 0
    csv_lines = (tmp_path / "out.csv").read_text().splitlines()
    assert csv_lines[0].startswith("# seed=")
    summary = json.loads((tmp_path / "out.json").read_text())
    assert printed.splitlines() == csv_lines[1:] + [json.dumps(summary, sort_keys=True)]
