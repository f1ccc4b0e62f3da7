"""Numerical and exact iteration of the Farey transfer operator.

With respect to the invariant density 1/x the operator acts as

    (Tf)(x) = [f(x/(x+1)) + x * f(1/(x+1))] / (x+1),

and with respect to Lebesgue measure the Perron-Frobenius operator is
(Pg)(x) = [g(x/(1+x)) + g(1/(1+x))] / (1+x)^2.  Grid iteration uses a graded
mesh (geometric toward the indifferent fixed point at 0) with
piecewise-linear interpolation, which preserves monotonicity and concavity
exactly, so cone diagnostics reflect the operator rather than the
interpolant.  A 2^n branch-sum expansion provides the exact oracle for small
iteration counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

MESH_SIZE = 4096
HEAD_NODE = 1e-9
DEFAULT_PROBES = (0.6, 0.75, 0.9)


class ClosedFormDensity:
    """Analytic density on [0, 1] with exact pointwise evaluation."""

    def __init__(self, name: str, fn: Callable[[np.ndarray], np.ndarray]):
        self.name = name
        self.fn = fn

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=np.float64))

    @classmethod
    def one(cls) -> "ClosedFormDensity":
        return cls("one", lambda x: np.ones_like(x))

    @classmethod
    def identity(cls) -> "ClosedFormDensity":
        return cls("id", lambda x: x)

    @classmethod
    def power(cls, theta: float) -> "ClosedFormDensity":
        """f(x) = theta * x^theta, normalized so the 1/x-weighted integral is 1."""
        if not 0 < theta <= 1:
            raise ValueError("theta must lie in (0, 1]")
        return cls(f"power:{theta:g}", lambda x: theta * np.power(x, theta))


Density = Union[ClosedFormDensity, "GridFunction", Callable[[np.ndarray], np.ndarray]]


@dataclass
class GridFunction:
    """Node values on a fixed mesh with piecewise-linear interpolation."""

    mesh: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.mesh.shape != self.values.shape:
            raise ValueError("mesh and values must have the same shape")

    def __call__(self, x):
        return np.interp(x, self.mesh, self.values)


def farey_mesh(size: int = MESH_SIZE, probes: Sequence[float] = DEFAULT_PROBES) -> np.ndarray:
    """Graded mesh on [0, 1] with exactly ``size`` nodes.

    Geometric spacing from ``HEAD_NODE`` up to a crossover, uniform from there to
    1/2, uniform again on [1/2, 1], with the probe points inserted as exact
    nodes.  The geometric zone count is adjusted so deduplication lands on
    the requested size.
    """
    n_right = size // 4  # [1/2, 1]
    n_mid = size // 4  # [crossover, 1/2]
    crossover = 0.02
    right = np.linspace(0.5, 1.0, n_right + 1)
    mid = np.linspace(crossover, 0.5, n_mid + 1)
    fixed = np.concatenate(([0.0], mid, right, np.asarray(probes, dtype=np.float64)))
    n_geo = size - n_right - n_mid - 2
    for _ in range(4):
        geo = np.geomspace(HEAD_NODE, crossover, n_geo + 1)
        mesh = np.unique(np.concatenate((fixed, geo)))
        if len(mesh) == size:
            return mesh
        n_geo -= len(mesh) - size
    raise RuntimeError(f"could not assemble a {size}-node mesh")


def apply_transfer_mu(f: Density, mesh: Optional[np.ndarray] = None) -> GridFunction:
    """One application of the transfer operator taken with respect to 1/x dx."""
    if mesh is None:
        mesh = f.mesh if isinstance(f, GridFunction) else farey_mesh()
    x = mesh
    vals = (_eval(f, x / (1.0 + x)) + x * _eval(f, 1.0 / (1.0 + x))) / (1.0 + x)
    return GridFunction(mesh, vals)


def _eval(f: Density, x: np.ndarray) -> np.ndarray:
    return np.asarray(f(x), dtype=np.float64)


def conjugation_check(f: ClosedFormDensity, sample_points: Iterable[float]) -> float:
    """max |Tf - (1/h) P(h f)| over the samples, h(x) = 1/x."""
    pts = np.asarray(list(sample_points), dtype=np.float64)
    if np.any(pts <= 0) or np.any(pts >= 1):
        raise ValueError("sample points must lie in (0, 1)")
    u0 = pts / (1.0 + pts)
    u1 = 1.0 / (1.0 + pts)
    lhs = (f(u0) + pts * f(u1)) / (1.0 + pts)

    def hf(y):
        return f(y) / y

    rhs = pts * (hf(u0) + hf(u1)) / (1.0 + pts) ** 2
    return float(np.max(np.abs(lhs - rhs)))


def exact_iterate(f: Density, n: int, x: float) -> float:
    """T^n f(x) by expanding the full 2^n inverse-branch sum (oracle path).

    Each expansion step replaces a term w * g(y) of the sum by
    w/(1+y) * g(y/(1+y)) + w*y/(1+y) * g(1/(1+y)), so after n steps the value
    is an exact weighted sum of f over 2^n branch images of x.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > 24:
        raise ValueError("branch-sum expansion limited to n <= 24")
    args = np.asarray([x], dtype=np.float64)
    weights = np.asarray([1.0], dtype=np.float64)
    for _ in range(n):
        denom = 1.0 + args
        new_args = np.concatenate((args / denom, 1.0 / denom))
        new_weights = np.concatenate((weights / denom, weights * args / denom))
        args, weights = new_args, new_weights
    return float(np.dot(weights, _eval(f, args)))


class TransferPlan:
    """Precomputed interpolation plan for fast repeated transfer applications.

    For a fixed mesh, f(x/(1+x)) and f(1/(1+x)) are gathers with constant
    indices and weights, so one application reduces to one stacked gather of
    the ``i0, i1, i0+1, i1+1`` indices and four vector operations.  The
    weights ``1-w0, 1-w1, w0, w1`` and the fronts ``1/(1+x), x/(1+x)`` are
    rows of one float block, and every element is computed in the same order
    as ``front*(v[i0]*(1-w0) + v[i0+1]*w0) + xfront*(...)``.
    """

    def __init__(self, mesh: np.ndarray):
        self.mesh = mesh
        x = mesh
        i0, w0 = self._locate(x / (1.0 + x))
        i1, w1 = self._locate(1.0 / (1.0 + x))
        self._idx = np.stack((i0, i1, i0 + 1, i1 + 1))
        block = np.stack((1.0 - w0, 1.0 - w1, w0, w1, 1.0 / (1.0 + x), x / (1.0 + x)))
        self._w = block[:4]
        self._front = block[4:]
        self._g = np.empty(self._idx.shape)  # the gather of every application

    def _locate(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mesh = self.mesh
        idx = np.searchsorted(mesh, pts, side="right") - 1
        idx = np.clip(idx, 0, len(mesh) - 2)
        span = mesh[idx + 1] - mesh[idx]
        w = (pts - mesh[idx]) / span
        return idx, w

    def apply(self, values: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """T applied to the node values ``values``, into ``out`` or a fresh array.

        ``values`` is never written.  The gather goes to the plan's own
        scratch, so one plan serves one caller at a time.
        """
        # every index lies in the mesh, so "wrap" changes no value; "raise" would buffer the out= gather
        g = np.take(values, self._idx, out=self._g, mode="wrap")
        g *= self._w
        h = g[:2]
        np.add(h, g[2:], out=h)
        h *= self._front
        return np.add(h[0], h[1], out=out)

    def iterate(self, values: np.ndarray, count: int) -> np.ndarray:
        """T^count applied to ``values``; each step is one :meth:`apply` into one of two buffers."""
        v = values
        bufs = (np.empty(len(self.mesh)), np.empty(len(self.mesh)))
        for k in range(count):
            v = self.apply(v, out=bufs[k & 1])
        return v


@dataclass(frozen=True)
class ConeReport:
    min_slope: float
    max_second_difference: float


def cone_check(f: GridFunction) -> ConeReport:
    """Finite-difference monotonicity and concavity diagnostics.

    ``max_second_difference`` is the largest increase between consecutive
    chord slopes; non-positive values certify node-level concavity.
    """
    if len(f.mesh) < 3:
        raise ValueError("need at least 3 nodes")
    slopes = np.diff(f.values) / np.diff(f.mesh)
    return ConeReport(
        min_slope=float(np.min(slopes)),
        max_second_difference=float(np.max(np.diff(slopes))),
    )


def wandering_rate(n: int) -> float:
    """W_n = log(n + 2), the measure of the first n preimages of A1 under 1/x dx."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return log(n + 2)


@dataclass(frozen=True)
class OperatorTrace:
    """One row of a uniformly-returning diagnostic run."""

    n: int
    W_n: float
    probes: tuple[float, ...]
    values: tuple[float, ...]
    products: tuple[float, ...]
    min_slope: float
    max_second_difference: float


def uniform_returning_trace(
    f: Density,
    schedule: Sequence[int],
    probes: Sequence[float] = DEFAULT_PROBES,
    mesh: Optional[np.ndarray] = None,
) -> list[OperatorTrace]:
    """Record W_n * T^n f at the probe nodes along an increasing schedule."""
    schedule = list(schedule)
    if schedule != sorted(schedule) or len(set(schedule)) != len(schedule):
        raise ValueError("schedule must be strictly increasing")
    probes_arr = np.asarray(probes, dtype=np.float64)
    # written so that NaN fails it
    if not np.all((probes_arr > 0.5) & (probes_arr <= 1.0)):
        raise ValueError("probes must lie in (1/2, 1]")
    if mesh is None:
        mesh = farey_mesh(probes=tuple(probes))
    plan = TransferPlan(mesh)
    values = _eval(f, mesh)
    traces = []
    current = 0
    for n in schedule:
        values = plan.iterate(values, n - current)
        current = n
        gf = GridFunction(mesh, values)
        at_probes = tuple(float(v) for v in gf(probes_arr))
        w = wandering_rate(n)
        cone = cone_check(gf)
        traces.append(
            OperatorTrace(
                n=n,
                W_n=w,
                probes=tuple(float(p) for p in probes_arr),
                values=at_probes,
                products=tuple(w * v for v in at_probes),
                min_slope=cone.min_slope,
                max_second_difference=cone.max_second_difference,
            )
        )
    return traces


def mu_integral(f: GridFunction) -> float:
    """Integral of f against 1/x dx: trapezoid on the graded mesh plus a head
    term that treats f(x)/x as constant on [0, x_1] (exact for linear f)."""
    x = f.mesh
    v = f.values
    if x[0] != 0.0:
        raise ValueError("mesh must start at 0")
    integrand = v[1:] / x[1:]
    body = float(np.trapezoid(integrand, x[1:]))
    head = float(v[1])  # x_1 * (f(x_1)/x_1)
    return body + head
