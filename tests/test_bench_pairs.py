"""The pair runner's seed parsing, pair statistics, claim rule and raw run medians."""

from __future__ import annotations

import argparse
import json
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_seed_lists_and_workload_arguments():
    assert bench_pairs.seed_list("701-704") == [701, 702, 703, 704]
    assert bench_pairs.seed_list("5,9-10,3") == [5, 9, 10, 3]
    assert bench_pairs.workload_seeds("operator-trace:7") == ("operator-trace", [7])
    with pytest.raises(argparse.ArgumentTypeError):
        bench_pairs.workload_seeds("operator-trace")


def test_compare_counts_wins_and_flags_the_bound():
    parent, change = [1.0, 1.2, 0.9, 1.1], [0.6, 1.2, 0.5, 0.7]
    result = bench_pairs.compare(parent, change, lower_is_better=True, bound=0.25)
    assert result["change_wins"] == 3  # the tied pair counts for neither side
    assert result["parent"]["median"] == pytest.approx(1.05)
    assert result["median_change_rel"] == pytest.approx(0.65 / 1.05 - 1)
    assert not result["worse_than_bound"]
    assert bench_pairs.compare([1.0, 1.0], [1.3, 1.3], True, 0.25)["worse_than_bound"]
    assert not bench_pairs.compare([1.0, 1.0], [1.3, 1.3], False, 0.25)["worse_than_bound"]
    # a comparison without a bound, as for the raw repetition seconds, flags nothing
    assert not bench_pairs.compare([1.0, 1.0], [1.3, 1.3], True, None)["worse_than_bound"]


def test_claim_needs_nine_tenths_of_pairs_and_more_than_the_parent_iqr():
    parent = [1.0 + 0.01 * k for k in range(10)]
    faster = [v - 0.3 for v in parent]
    verdict = bench_pairs.claim_verdict(bench_pairs.compare(parent, faster, True, 0.25), True)
    assert verdict["met"] and verdict["wins"] == "10/10"
    # nine wins of ten still hold; eight do not
    nine = faster[:9] + [parent[9]]
    assert bench_pairs.claim_verdict(bench_pairs.compare(parent, nine, True, 0.25), True)["met"]
    eight = faster[:8] + parent[8:]
    assert not bench_pairs.claim_verdict(bench_pairs.compare(parent, eight, True, 0.25), True)["met"]
    # every pair won, but by less than the spread of the parent's own runs
    slight = [v - 0.01 for v in parent]
    assert not bench_pairs.claim_verdict(bench_pairs.compare(parent, slight, True, 0.25), True)["met"]


@pytest.mark.parametrize("dont_write", [None, "1"])
def test_machine_records_whether_the_interpreter_writes_bytecode(monkeypatch, dont_write):
    # a run that compiles the package in every process pays about twice the import time in setup_s
    if dont_write is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", dont_write)
    host = bench_pairs.machine()
    assert host["writes_bytecode"] is (dont_write is None)
    assert host["numpy"] == np.__version__


def test_raw_medians_read_the_runs_result_file(tmp_path):
    out = tmp_path / "benchmarks" / "out" / "simulate-short-seed7-trace0"
    out.mkdir(parents=True)
    children = [{"setup_s": 0.2, "reps": [{"s": 0.18, "probe_s": 0.1}, {"s": 0.55, "probe_s": 0.12}]},
                {"setup_s": 0.2, "reps": [{"s": 0.41, "probe_s": 0.11}]}]
    (out / "result.json").write_text(json.dumps({"workload": "simulate-short", "children": children}))
    raw = bench_pairs.raw_medians(tmp_path, "simulate-short", 7)
    assert raw == {"reps": 3, "rep_s": 0.41, "probe_s": 0.11, "first_rep_s": 0.295}


def test_checkouts_at_paths_of_different_length_exit_2(tmp_path, monkeypatch, capsys):
    for name in ("parent", "change", "changed"):
        (tmp_path / name / "benchmarks").mkdir(parents=True)
        (tmp_path / name / "benchmarks" / "run.py").write_text("")
    spec = {"run_seconds": 1, "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps(spec))
    out = tmp_path / "record.json"
    for change, code in (("changed", 2), ("change", 0)):
        argv = ["bench_pairs.py", "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / change),
                "--out", str(out)]
        monkeypatch.setattr(sys, "argv", argv)
        if code:
            with pytest.raises(SystemExit) as exc:
                bench_pairs.main()
            assert exc.value.code == code
            assert "paths of equal length" in capsys.readouterr().err
            assert not out.exists()
        else:
            # paths of equal length pass the check; with nothing to run, the record is written
            assert bench_pairs.main() == code
            assert json.loads(out.read_text())["workloads"] == {}
