"""Transfer-operator identities, cone preservation, and oracle equivalence."""

from __future__ import annotations

import tracemalloc
from math import log

import numpy as np
import pytest

from cfrenewal.transfer import (
    ClosedFormDensity,
    GridFunction,
    TransferPlan,
    apply_transfer_mu,
    cone_check,
    conjugation_check,
    exact_iterate,
    farey_mesh,
    mu_integral,
    uniform_returning_trace,
    wandering_rate,
)

MESH = farey_mesh()
ONE = ClosedFormDensity.one()
ID = ClosedFormDensity.identity()


def test_mesh_shape_and_probes():
    assert len(MESH) == 4096
    assert MESH[0] == 0.0 and MESH[-1] == 1.0
    assert MESH[1] == pytest.approx(1e-9)
    assert np.all(np.diff(MESH) > 0)
    for p in (0.6, 0.75, 0.9):
        assert p in MESH


def test_transfer_preserves_constant_one():
    out = apply_transfer_mu(ONE, MESH)
    assert np.max(np.abs(out.values - 1.0)) <= 1e-12


def test_transfer_of_identity_closed_form():
    out = apply_transfer_mu(ID, MESH)
    want = 2 * MESH / (1 + MESH) ** 2
    assert np.max(np.abs(out.values - want)) <= 1e-12
    assert out(1.0) == pytest.approx(0.5, abs=1e-15)


def test_transfer_twice_matches_branch_oracle():
    val = exact_iterate(ID, 2, 1.0)
    grid = apply_transfer_mu(apply_transfer_mu(ID, MESH), MESH)
    assert grid(1.0) == pytest.approx(val, rel=1e-8)


def test_conjugation_identity():
    pts = np.linspace(0.01, 0.99, 100)
    assert conjugation_check(ONE, pts) <= 1e-12
    assert conjugation_check(ID, pts) <= 1e-12
    assert conjugation_check(ClosedFormDensity.power(0.5), pts) <= 1e-10


def test_exact_iterate_base_cases():
    assert exact_iterate(ID, 0, 0.37) == pytest.approx(0.37)
    assert exact_iterate(ID, 1, 1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        exact_iterate(ID, 25, 0.5)


def _concatenated_expansion(f, n, x):
    # the oracle as it was first written: one concatenated pair of arrays per level
    args = np.asarray([x], dtype=np.float64)
    weights = np.asarray([1.0], dtype=np.float64)
    for _ in range(n):
        denom = 1.0 + args
        args, weights = (np.concatenate((args / denom, 1.0 / denom)),
                         np.concatenate((weights / denom, weights * args / denom)))
    return float(np.dot(weights, f(args)))


@pytest.mark.parametrize("f", [ONE, ID, ClosedFormDensity.power(0.5)], ids=["one", "id", "power0.5"])
def test_in_place_oracle_equals_the_concatenated_expansion(f):
    for n in range(21):
        for x in (0.6, 0.75, 0.9, 1.0):
            assert exact_iterate(f, n, x) == _concatenated_expansion(f, n, x), (n, x)


def test_oracle_peak_memory_is_two_and_a_half_arrays():
    # points and weights of 2^16 doubles each, and 2^15 denominators; the concatenated expansion peaks at 4.5 arrays
    tracemalloc.start()
    try:
        exact_iterate(ID, 16, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * 2**16


@pytest.mark.parametrize("x", [-1.0, -1e-300, 1.0 + 2**-52, 1.5, float("nan"), float("inf")])
def test_oracle_rejects_points_outside_the_unit_interval(x):
    with pytest.raises(ValueError, match=r"x must lie in \[0, 1\]"):
        exact_iterate(ID, 3, x)


def test_grid_vs_oracle_for_all_small_n():
    plan = TransferPlan(MESH)
    values = ID(MESH)
    for n in range(1, 21):
        values = plan.apply(values)
        gf = GridFunction(MESH, values)
        for probe in (0.6, 0.75, 0.9):
            oracle = exact_iterate(ID, n, probe)
            assert abs(gf(probe) - oracle) / oracle <= 1e-4


def test_operator_linearity_and_positivity():
    f = GridFunction(MESH, ID(MESH))
    g = GridFunction(MESH, np.sqrt(MESH))
    lhs = apply_transfer_mu(GridFunction(MESH, 2.0 * f.values + 3.0 * g.values), MESH)
    rhs = 2.0 * apply_transfer_mu(f, MESH).values + 3.0 * apply_transfer_mu(g, MESH).values
    assert np.max(np.abs(lhs.values - rhs)) <= 1e-12
    assert np.all(apply_transfer_mu(g, MESH).values >= 0)


def test_cone_check_examples():
    ident = GridFunction(MESH, MESH.copy())
    rep = cone_check(ident)
    assert rep.min_slope == pytest.approx(1.0)
    assert rep.max_second_difference <= 1e-15

    tid = apply_transfer_mu(ID, MESH)
    rep2 = cone_check(tid)
    assert rep2.min_slope > 0
    assert rep2.max_second_difference <= 1e-9

    convex = GridFunction(MESH, MESH**2)
    assert cone_check(convex).max_second_difference > 0


def _four_gather_apply(mesh):
    """The plan's formula with four separate gathers and per-call weights."""

    def locate(pts):
        idx = np.clip(np.searchsorted(mesh, pts, side="right") - 1, 0, len(mesh) - 2)
        return idx, (pts - mesh[idx]) / (mesh[idx + 1] - mesh[idx])

    i0, w0 = locate(mesh / (1.0 + mesh))
    i1, w1 = locate(1.0 / (1.0 + mesh))
    front, xfront = 1.0 / (1.0 + mesh), mesh / (1.0 + mesh)

    def apply(v):
        v0 = v[i0] * (1.0 - w0) + v[i0 + 1] * w0
        v1 = v[i1] * (1.0 - w1) + v[i1 + 1] * w1
        return front * v0 + xfront * v1

    return apply


@pytest.mark.parametrize("mesh", [MESH, farey_mesh(64, probes=(0.6, 0.75, 0.9))], ids=["4096", "64"])
def test_stacked_plan_equals_four_gathers_bit_for_bit(mesh):
    plan = TransferPlan(mesh)
    reference = _four_gather_apply(mesh)
    got = want = ID(mesh)
    for step in range(1, 2**12 + 1):
        got, want = plan.apply(got), reference(want)
        if step & (step - 1) == 0:
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), step


def test_apply_returns_fresh_array_and_keeps_its_input():
    plan = TransferPlan(MESH)
    values = ID(MESH)
    kept = values.copy()
    first = plan.apply(values)
    first_kept = first.copy()
    second = plan.apply(values)
    plan.apply(first)
    assert np.array_equal(values, kept)
    assert np.array_equal(first, first_kept) and np.array_equal(first, second)
    assert not np.shares_memory(first, second) and not np.shares_memory(first, values)


def test_apply_into_out_and_iterate_equal_fresh_applies():
    plan = TransferPlan(MESH)
    values = ID(MESH)
    kept = values.copy()
    out = np.empty_like(values)
    assert plan.apply(values, out=out) is out
    assert np.array_equal(out.view(np.uint64), plan.apply(values).view(np.uint64))
    want = values
    for _ in range(5):
        want = plan.apply(want)
    got = plan.iterate(values, 5)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # a later iterate writes to buffers of its own, not to its input or an earlier result
    got_kept = got.copy()
    again = plan.iterate(got, 2)
    assert np.array_equal(got, got_kept) and np.array_equal(values, kept)
    assert not np.shares_memory(again, got) and not np.shares_memory(got, values)


def test_iterate_calls_apply_once_per_step(monkeypatch):
    calls = []
    apply = TransferPlan.apply

    def counting(self, values, out=None):
        calls.append(len(values))
        return apply(self, values, out=out)

    monkeypatch.setattr(TransferPlan, "apply", counting)
    plan = TransferPlan(MESH)
    plan.iterate(ID(MESH), 37)
    assert calls == [len(MESH)] * 37


def test_cone_preserved_along_iteration():
    plan = TransferPlan(MESH)
    values = ID(MESH)
    for _ in range(100):
        values = plan.apply(values)
        rep = cone_check(GridFunction(MESH, values))
        assert rep.min_slope >= -1e-9
        assert rep.max_second_difference <= 1e-9


def test_wandering_rate_values():
    assert wandering_rate(0) == pytest.approx(log(2))
    assert wandering_rate(98) == pytest.approx(log(100))
    assert wandering_rate(10**6) / log(10**6) == pytest.approx(1.0, abs=0.1)


def test_uniform_returning_negative_control_one():
    traces = uniform_returning_trace(ONE, [1, 2, 4], mesh=MESH)
    for tr in traces:
        for prod in tr.products:
            assert prod == pytest.approx(wandering_rate(tr.n), rel=1e-12)


def test_uniform_returning_trend_small():
    traces = uniform_returning_trace(ID, [16], mesh=MESH)
    for p, v in zip(traces[0].probes, traces[0].values):
        oracle = exact_iterate(ID, 16, p)
        assert abs(v - oracle) / oracle <= 1e-4


def test_uniform_returning_rejects_probes_outside_a1():
    # NaN compares false both ways, so it must fail the range check too
    for bad in (0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match="probes must lie"):
            uniform_returning_trace(ID, [1, 4], probes=(0.75, bad))


def test_mu_integral_preserved():
    f = GridFunction(MESH, ID(MESH))
    assert mu_integral(f) == pytest.approx(1.0, abs=1e-6)
    tf = apply_transfer_mu(ID, MESH)
    assert mu_integral(tf) == pytest.approx(1.0, abs=1e-6)
    t2 = apply_transfer_mu(tf, MESH)
    assert mu_integral(t2) == pytest.approx(1.0, abs=1e-6)
