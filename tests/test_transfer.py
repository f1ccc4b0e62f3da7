"""Transfer-operator identities, cone preservation, and oracle equivalence."""

from __future__ import annotations

from math import log

import numpy as np
import pytest

from cfrenewal.transfer import (
    ClosedFormDensity,
    GridFunction,
    TransferPlan,
    apply_pf_lambda,
    apply_transfer_mu,
    bn_sequence,
    cone_check,
    conjugation_check,
    decreasing_on_A1_check,
    exact_iterate,
    farey_mesh,
    mu_integral,
    return_tail_measure,
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


def test_pf_lambda_closed_forms():
    out = apply_pf_lambda(ONE, MESH)
    want = 2.0 / (1 + MESH) ** 2
    assert np.max(np.abs(out.values - want)) <= 1e-12
    out_id = apply_pf_lambda(ID, MESH)
    want_id = 1.0 / (1 + MESH) ** 2
    assert np.max(np.abs(out_id.values - want_id)) <= 1e-12


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


def test_decreasing_on_a1():
    ok, worst = decreasing_on_A1_check(ID, 100, MESH)
    assert ok and worst <= 1e-9
    ok_one, worst_one = decreasing_on_A1_check(ONE, 10, MESH)
    assert ok_one and worst_one <= 1e-12  # exact equality chain


def test_wandering_rate_values():
    assert wandering_rate(0) == pytest.approx(log(2))
    assert wandering_rate(98) == pytest.approx(log(100))
    assert wandering_rate(10**6) / log(10**6) == pytest.approx(1.0, abs=0.1)


def test_bn_sequence():
    assert bn_sequence(2) == pytest.approx(2 / log(4))
    for n in (10, 1000, 10**6):
        assert bn_sequence(n) * wandering_rate(n) / n == pytest.approx(1.0)
    # same n/log(n) scale as the two-branch interval-map normalization
    assert bn_sequence(10**6) / (10**6 / log(10**6)) == pytest.approx(1.0, rel=0.1)


def test_return_tail_measure_first_principles():
    assert return_tail_measure(0) == pytest.approx(log(2))
    assert return_tail_measure(1) == pytest.approx(log(3 / 2))
    # exact expansion: n*log(1 + 1/(n+1)) = 1 - 1.5/n + O(1/n^2)
    n = 10**6
    assert n * return_tail_measure(n) == pytest.approx(1.0 - 1.5 / n, abs=1e-9)
    # telescoping consistency with the wandering rate
    total = sum(return_tail_measure(k) for k in range(0, 50))
    assert total == pytest.approx(wandering_rate(49))


def test_return_tail_measure_against_orbit_counts():
    # measure the return-tail set by integrating 1/x over a fine rational grid
    # classified with the exact first-return time
    from fractions import Fraction

    from cfrenewal.farey import first_return_time

    n = 1
    m = 4000
    acc = 0.0
    for i in range(m):
        x = Fraction(1, 2) + Fraction(2 * i + 1, 4 * m)  # midpoints of (1/2, 1)
        if first_return_time(x) > n:
            acc += (0.5 / m) / float(x)
    assert acc == pytest.approx(return_tail_measure(n), abs=2e-3)


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


def test_mu_integral_preserved():
    f = GridFunction(MESH, ID(MESH))
    assert mu_integral(f) == pytest.approx(1.0, abs=1e-6)
    tf = apply_transfer_mu(ID, MESH)
    assert mu_integral(tf) == pytest.approx(1.0, abs=1e-6)
    t2 = apply_transfer_mu(tf, MESH)
    assert mu_integral(t2) == pytest.approx(1.0, abs=1e-6)
