"""The five benchmark workloads: inputs made from the seed, set-up, and output checks.

A workload turns the benchmark seed into one fixed ``cfrenewal`` command line
(the unit of work that every repetition of a run repeats) and checks that
command's outputs against ``reference`` and against properties the method
must have.  Nothing here compares with a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

CHECK_PER_CHUNK = 12  # reference trials drawn from each chunk (the last trial is always added)


@dataclass(frozen=True)
class Inputs:
    """Everything a workload's command needs, drawn from the benchmark seed."""

    master_seed: int
    trials: int = 0
    horizons: tuple[int, ...] = ()
    probes: tuple[float, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[random.Random], Inputs]
    argv: Callable[[Inputs], list[str]]
    verify: Callable[[Inputs, Path, random.Random], list[str]]
    workers2_check: bool = False  # the traced run also compares outputs with --workers 2

    def inputs(self, seed: int) -> Inputs:
        return self.make_inputs(random.Random(f"{self.name}:{seed}"))

    def check_rng(self, seed: int) -> random.Random:
        return random.Random(f"{self.name}:{seed}:check")


def _master(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if not first.startswith("# seed="):
            raise ValueError(f"{path.name}: missing provenance comment line")
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _check_trials(inp: Inputs, rng: random.Random, chunk: int) -> list[int]:
    """A seeded handful of trials from every chunk, the last trial included."""
    picks = set()
    for lo in range(0, inp.trials, chunk):
        hi = min(lo + chunk, inp.trials)
        picks.update(rng.sample(range(lo, hi), min(CHECK_PER_CHUNK, hi - lo)))
    picks.add(inp.trials - 1)
    return sorted(picks)


# ---------------------------------------------------------------- simulate


def _simulate_argv(inp: Inputs) -> list[str]:
    argv = ["simulate", "--seed", str(inp.master_seed), "--trials", str(inp.trials), "--workers", "1"]
    for n in inp.horizons:
        argv += ["--n", str(n)]
    return argv


def _verify_simulate(inp: Inputs, stem: Path, rng: random.Random, strict_law: bool) -> list[str]:
    """Checks shared by every simulate workload; ``strict_law`` adds the limit-law gates."""
    from cfrenewal.experiments import ExperimentConfig

    errors: list[str] = []
    header, rows = _read_csv(stem.with_suffix(".csv"))
    summary = json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))
    if header != ["trial", "n", "X_n", "gap", "scaled"]:
        return [f"unexpected CSV header {header}"]
    hz = inp.horizons
    if len(rows) != inp.trials * len(hz):
        return [f"CSV has {len(rows)} rows, expected {inp.trials * len(hz)}"]
    x = [[0] * inp.trials for _ in hz]
    scaled = [[0.0] * inp.trials for _ in hz]
    for i, (t, n, xn, gap, sc) in enumerate(rows):
        j, trial = divmod(i, inp.trials)
        if int(t) != trial or int(n) != hz[j]:
            return [f"CSV row {i} is ({t}, {n}), expected ({trial}, {hz[j]})"]
        x[j][trial] = int(xn)
        scaled[j][trial] = float(sc)
        g = int(gap)
        if g != hz[j] - int(xn) or g < 0:
            errors.append(f"trial {trial} n={n}: gap {g} with X_n {xn}")
        want = math.log(max(g, 1)) / math.log(hz[j])
        if not _close(float(sc), want):
            errors.append(f"trial {trial} n={n}: scaled {sc} != {want!r}")
        if len(errors) > 5:
            return errors
    for trial in range(inp.trials):
        if any(x[j][trial] > x[j + 1][trial] for j in range(len(hz) - 1)):
            errors.append(f"trial {trial}: X_n decreases in n")
            break
    if summary.get("horizons") != list(hz) or summary.get("trials") != inp.trials:
        errors.append("JSON horizons/trials do not echo the inputs")
    if summary.get("resampled") != 0:
        errors.append(f"JSON reports {summary.get('resampled')} resampled trials for the sampled source")
    ks = [ref.ks_uniform(col) for col in scaled]
    for j, n in enumerate(hz):
        if not _close(summary["ks"][j], ks[j]):
            errors.append(f"n={n}: JSON ks {summary['ks'][j]!r} != recomputed {ks[j]!r}")
        atoms = sum(1 for v in x[j] if v == n) / inp.trials
        if not _close(summary["atom_frequency"][j], atoms):
            errors.append(f"n={n}: JSON atom_frequency {summary['atom_frequency'][j]!r} != {atoms!r}")
    for trial in _check_trials(inp, rng, ExperimentConfig().chunk_size):
        want = ref.crossings(inp.master_seed, trial, hz)
        got = [x[j][trial] for j in range(len(hz))]
        if got != want:
            errors.append(f"trial {trial}: X_n {got} != reference {want}")
    if strict_law:
        # KS against U[0,1] must fall with n: the finite-n bias gap between
        # these horizons (about 0.03) is several times the sampling error of
        # a difference of KS statistics over 10^4 trials (about 0.006).
        if not all(b < a for a, b in zip(ks, ks[1:])):
            errors.append(f"KS does not decrease in n: {ks}")
        n = hz[-1]
        for eps in (0.1, 0.3, 0.5):
            freq = sum(1 for v in x[-1] if n - v > eps * n) / inp.trials
            ratio = freq / (-math.log(eps) / math.log(n))
            # standard error of the ratio is below 0.04 here; [0.7, 1.3] is the paper's
            # large-deviation asymptotic with room for the finite-n bias (about 1.15 at 1e5)
            if not 0.7 <= ratio <= 1.3:
                errors.append(f"tail ratio at n={n}, eps={eps}: {ratio:.3f} outside [0.7, 1.3]")
    return errors


SIMULATE_LONG = Workload(
    name="simulate-long",
    make_inputs=lambda rng: Inputs(master_seed=_master(rng), trials=12_000, horizons=(1_000, 10_000, 100_000)),
    argv=_simulate_argv,
    verify=lambda inp, stem, rng: _verify_simulate(inp, stem, rng, strict_law=True),
    workers2_check=True,
)

SIMULATE_SHORT = Workload(
    name="simulate-short",
    make_inputs=lambda rng: Inputs(master_seed=_master(rng), trials=100_000, horizons=(1_000, 2_000)),
    argv=_simulate_argv,
    verify=lambda inp, stem, rng: _verify_simulate(inp, stem, rng, strict_law=False),
)


# ---------------------------------------------------------------- stable


def _stable_argv(inp: Inputs) -> list[str]:
    k1, k2 = inp.horizons
    return ["classic", "--which", "stable", "--seed", str(inp.master_seed), "--trials", str(inp.trials),
            "--workers", "1", "--n", str(k1), "--n", str(k2)]


def _verify_stable(inp: Inputs, stem: Path, rng: random.Random) -> list[str]:
    """S_k of a seeded subset equals the reference; KS and the 99th percentiles are recomputed.

    The full S_k arrays come from the package's ``digit_sums_at`` (the pure-Python
    reference would need minutes for them); the subset check ties them to the
    reference sampler, and the statistics are then recomputed independently.
    """
    import numpy as np
    from cfrenewal.sampling import digit_sums_at

    errors: list[str] = []
    k1, k2 = inp.horizons
    summary = json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))
    header, rows = _read_csv(stem.with_suffix(".csv"))
    if header != ["k1", "k2", "ks"] or len(rows) != 1:
        return [f"unexpected stable CSV {header} with {len(rows)} rows"]
    t = inp.trials
    s1 = digit_sums_at(inp.master_seed, np.arange(0, t, dtype=np.uint64), (k1,))[:, 0].tolist()
    s2 = digit_sums_at(inp.master_seed, np.arange(t, 2 * t, dtype=np.uint64), (k2,))[:, 0].tolist()
    picks = rng.sample(range(t), CHECK_PER_CHUNK) + [t - 1]
    for trial in picks:
        if ref.sums_at(inp.master_seed, trial, (k1,)) != [s1[trial]]:
            errors.append(f"trial {trial}: S_{k1} {s1[trial]} != reference")
        if ref.sums_at(inp.master_seed, t + trial, (k2,)) != [s2[trial]]:
            errors.append(f"trial {t + trial}: S_{k2} {s2[trial]} != reference")
    y1 = [s * (math.log(2.0) / k1) - math.log(k1) for s in s1]
    y2 = [s * (math.log(2.0) / k2) - math.log(k2) for s in s2]
    ks = ref.ks_two_sample(y1, y2)
    if not _close(summary["ks"], ks) or not _close(float(rows[0][2]), ks):
        errors.append(f"ks {summary['ks']!r} (CSV {rows[0][2]}) != recomputed {ks!r}")
    p99 = (ref.percentile(y1, 99), ref.percentile(y2, 99))
    if not all(_close(a, b, 1e-9) for a, b in zip(summary["percentile_99"], p99)):
        errors.append(f"percentile_99 {summary['percentile_99']} != recomputed {list(p99)}")
    if (summary["k1"], summary["k2"], summary["trials"]) != (k1, k2, t):
        errors.append("JSON k1/k2/trials do not echo the inputs")
    return errors


STABLE_SUMS = Workload(
    name="stable-sums",
    make_inputs=lambda rng: Inputs(master_seed=_master(rng), trials=5_000, horizons=(1_000, 8_000)),
    argv=_stable_argv,
    verify=_verify_stable,
)


# ---------------------------------------------------------------- operator

SCHEDULE = tuple(2**j for j in range(15))
ORACLE_CUTOFF = 20  # the CLI fills the oracle column for n <= 20


def _operator_inputs(rng: random.Random) -> Inputs:
    probes: set[float] = set()
    while len(probes) < 3:
        probes.add(round(0.51 + 0.49 * rng.random(), 4))
    return Inputs(master_seed=0, horizons=SCHEDULE, probes=tuple(sorted(probes)))


def _operator_argv(inp: Inputs) -> list[str]:
    argv = ["operator", "--density", "id"]
    for n in inp.horizons:
        argv += ["--n", str(n)]
    for p in inp.probes:
        argv += ["--probe", repr(p)]
    return argv


def _verify_operator(inp: Inputs, stem: Path, rng: random.Random) -> list[str]:
    errors: list[str] = []
    header, rows = _read_csv(stem.with_suffix(".csv"))
    summary = json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))
    want_header = ["n", "W_n", "probe_x", "value", "product", "min_slope", "max_second_diff", "oracle_value"]
    if header != want_header or len(rows) != len(inp.horizons) * len(inp.probes):
        return [f"unexpected operator CSV {header} with {len(rows)} rows"]
    last_gap = {p: math.inf for p in inp.probes}
    for i, row in enumerate(rows):
        n, p = inp.horizons[i // len(inp.probes)], inp.probes[i % len(inp.probes)]
        if int(row[0]) != n or float(row[2]) != p:
            return [f"operator row {i} is for ({row[0]}, {row[2]}), expected ({n}, {p})"]
        w, value, product = float(row[1]), float(row[3]), float(row[4])
        min_slope, max_curv = float(row[5]), float(row[6])
        if not _close(w, math.log(n + 2)) or not _close(product, w * value):
            errors.append(f"n={n} x={p}: W_n {w!r} or product {product!r} inconsistent")
        if min_slope < -1e-9 or max_curv > 1e-9:
            errors.append(f"n={n}: left the cone (min slope {min_slope}, max second diff {max_curv})")
        gap = abs(product - 1.0)
        if not gap < last_gap[p]:
            errors.append(f"x={p}: |W_n T^n(id) - 1| = {gap} at n={n} does not fall below {last_gap[p]}")
        last_gap[p] = gap
        if n <= ORACLE_CUTOFF:
            exact = ref.branch_sum(lambda y: y, n, p)
            if abs(value - exact) > 1e-4 * exact:
                errors.append(f"n={n} x={p}: grid value {value!r} vs branch sum {exact!r}")
            if row[7] == "" or not _close(float(row[7]), exact, 1e-9):
                errors.append(f"n={n} x={p}: oracle column {row[7]!r} vs branch sum {exact!r}")
        elif row[7] != "":
            errors.append(f"n={n}: oracle column filled beyond n={ORACLE_CUTOFF}")
        if not _close(summary["products"][str(n)][inp.probes.index(p)], product):
            errors.append(f"n={n} x={p}: JSON product disagrees with CSV")
    return errors


OPERATOR_TRACE = Workload(
    name="operator-trace",
    make_inputs=_operator_inputs,
    argv=_operator_argv,
    verify=_verify_operator,
)


# ---------------------------------------------------------------- certified

CERTIFIED_CHECK_STREAMS = 30


def _verify_certified(inp: Inputs, stem: Path, rng: random.Random) -> list[str]:
    """Every digit of a seeded subset of streams holds on its consumed-bit interval.

    The digits and the bit counts come from fresh ``LazyReal`` objects (the
    count is read from ``bits_consumed`` after each digit); the bits
    themselves come from the reference generator, and the containment test is
    exact.  X_n in the CSV must equal the sums of those certified digits.
    """
    from cfrenewal.bits import BitSource
    from cfrenewal.exact import LazyReal

    errors: list[str] = []
    header, rows = _read_csv(stem.with_suffix(".csv"))
    if len(rows) != inp.trials * len(inp.horizons):
        return [f"CSV has {len(rows)} rows, expected {inp.trials * len(inp.horizons)}"]
    x = {(int(r[0]), int(r[1])): int(r[2]) for r in rows}
    summary = json.loads(stem.with_suffix(".json").read_text(encoding="utf-8"))
    if summary.get("resampled") != 0:
        errors.append(f"{summary.get('resampled')} trials were resampled")
    picks = rng.sample(range(inp.trials), CERTIFIED_CHECK_STREAMS - 1) + [inp.trials - 1]
    per_stream = []
    total_bits = total_digits = 0
    for trial in picks:
        real = LazyReal(BitSource(inp.master_seed, trial))
        digits, bits, s = [], [], 0
        while s <= inp.horizons[-1]:
            digits.append(real.next_digit())
            bits.append(real.bits_consumed)
            s += digits[-1]
        if not ref.cylinder_holds(digits, bits, inp.master_seed, trial):
            errors.append(f"stream {trial}: a digit does not hold on its consumed-bit interval")
        sums = [0]
        for a in digits:
            sums.append(sums[-1] + a)
        for n in inp.horizons:
            want = max(v for v in sums if v <= n)
            if x[(trial, n)] != want:
                errors.append(f"trial {trial} n={n}: X_n {x[(trial, n)]} != certified {want}")
        per_stream.append(bits[-1] / len(digits))
        total_bits += bits[-1]
        total_digits += len(digits)
    bpd = total_bits / total_digits
    mean = sum(per_stream) / len(per_stream)
    sd = math.sqrt(sum((v - mean) ** 2 for v in per_stream) / (len(per_stream) - 1))
    # six standard errors of the stream mean, plus 0.02 for the few bits of
    # certification lag each stream carries past its last digit
    tol = 6.0 * sd / math.sqrt(len(per_stream)) + 0.02
    if abs(bpd - ref.LOCHS_BITS_PER_DIGIT) > tol:
        errors.append(f"bits per digit {bpd:.4f} not within {tol:.3f} of {ref.LOCHS_BITS_PER_DIGIT:.4f}")
    return errors


CERTIFIED = Workload(
    name="certified",
    make_inputs=lambda rng: Inputs(master_seed=_master(rng), trials=300, horizons=(100, 1_000, 4_000)),
    argv=lambda inp: _simulate_argv(inp) + ["--source", "exact"],
    verify=_verify_certified,
)


WORKLOADS = {w.name: w for w in (SIMULATE_LONG, SIMULATE_SHORT, STABLE_SUMS, OPERATOR_TRACE, CERTIFIED)}
