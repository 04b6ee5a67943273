"""Value types and exceptions shared across the package.

All arrays follow one stacking convention: a boundary state is an (n, d)
array whose row k holds the k-th derivative of the curve at that endpoint
(units length/time**k), with d the spatial dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DomainError(ValueError):
    """Input outside the supported domain (order, horizon, shapes, sizes)."""


class SingularMatrixError(DomainError):
    """Pivot fell below the singularity threshold during elimination."""


class ConsistencyError(ArithmeticError):
    """A quantity violated an identity far beyond rounding noise."""


def _as_state_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DomainError(f"boundary values must be an (n, d) array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError("boundary values must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class BoundaryState:
    """Derivative stack (position through (n-1)-th derivative) at one endpoint.

    ``values`` has shape (n, d); a 1-D input of length n is promoted to
    (n, 1).
    """

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_state_array(self.values))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class CostProblem:
    """Two-point boundary problem: order n, horizon h > 0, endpoints start/end."""

    n: int
    h: float
    d: int
    start: BoundaryState
    end: BoundaryState

    def __post_init__(self):
        if self.start.n != self.n or self.end.n != self.n:
            raise DomainError(
                f"endpoint order mismatch: n={self.n}, start has {self.start.n} rows,"
                f" end has {self.end.n}"
            )
        if self.start.d != self.d or self.end.d != self.d:
            raise DomainError(
                f"endpoint dimension mismatch: d={self.d}, start has {self.start.d},"
                f" end has {self.end.d}"
            )
        if not (self.h > 0.0) or not np.isfinite(self.h):
            raise DomainError(f"horizon must be positive and finite, got h={self.h}")


def make_problem(h: float, x, y) -> CostProblem:
    """Build a CostProblem from raw (n, d) or length-n boundary arrays."""
    start = BoundaryState(x)
    end = BoundaryState(y)
    if start.n != end.n or start.d != end.d:
        raise DomainError(
            f"endpoint shapes differ: start {start.values.shape} vs end {end.values.shape}"
        )
    return CostProblem(n=start.n, h=float(h), d=start.d, start=start, end=end)


def _frozen_stack(name: str, values, shape: tuple) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape != shape:
        raise DomainError(f"{name} array must have shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TrajectoryPolynomial:
    """Optimal curve of degree at most 2n-1 on [0, h], d spatial columns.

    ``start`` and ``end`` are the (n, d) derivative stacks at t = 0 and
    t = h; they fix the curve (a two-point Hermite interpolant), and
    ``eval_trajectory`` samples it from them.  ``coeffs`` holds the same
    curve in monomial form, row i being a_i in sum a_i t**i (2n rows); it
    is derived output, ill-conditioned for large n or h far from 1, and
    may overflow where the stacks do not.  Built from ``coeffs`` alone,
    the stacks are derived once from it: start = V(0) a_low and
    end = V(h) a_low + A(h) a_up.
    """

    n: int
    h: float
    d: int
    coeffs: np.ndarray
    start: np.ndarray | None = None
    end: np.ndarray | None = None
    # per derivative order: the sampling table and the scaled stacks
    _samplers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.h > 0.0) or not np.isfinite(self.h):
            raise DomainError(f"horizon must be positive and finite, got h={self.h}")
        n, d = self.n, self.d
        coeffs = _frozen_stack("coefficient", self.coeffs, (2 * n, d))
        object.__setattr__(self, "coeffs", coeffs)
        if (self.start is None) != (self.end is None):
            raise DomainError("give both endpoint stacks or neither")
        if self.start is None:
            from .matrices import build_A, build_V  # matrices imports this module

            # an overflowing stack is refused when it is sampled
            with np.errstate(over="ignore", invalid="ignore"):
                low, up = coeffs[:n], coeffs[n:]
                start = build_V(n, 0.0) @ low
                end = build_V(n, self.h) @ low + build_A(n, self.h) @ up
        else:
            start, end = self.start, self.end
        object.__setattr__(self, "start", _frozen_stack("start", start, (n, d)))
        object.__setattr__(self, "end", _frozen_stack("end", end, (n, d)))


@dataclass(frozen=True)
class CostBreakdown:
    """Cost value plus the route that produced it and the gap vector b.

    ``clamped`` marks totals in [-1e-9, 0) that were reported as 0 because
    the negative sign was numerical noise on a nonnegative quadratic form.
    """

    total: float
    route: str
    b: np.ndarray
    clamped: bool = False


@dataclass(frozen=True)
class DiscreteMeasure:
    """Uniformly weighted point set in boundary-state space (weights 1/m)."""

    points: tuple[BoundaryState, ...]

    def __post_init__(self):
        pts = tuple(self.points)
        if not pts:
            raise DomainError("a discrete measure needs at least one point")
        n, d = pts[0].n, pts[0].d
        for k, p in enumerate(pts):
            if p.n != n or p.d != d:
                raise DomainError(
                    f"measure point {k} has shape {(p.n, p.d)}, expected {(n, d)}"
                )
        object.__setattr__(self, "points", pts)

    @property
    def m(self) -> int:
        return len(self.points)

    @property
    def n(self) -> int:
        return self.points[0].n

    @property
    def d(self) -> int:
        return self.points[0].d

    @classmethod
    def from_array(cls, arr) -> "DiscreteMeasure":
        """Build from an (m, n, d) array (or (m, n), promoted to d=1)."""
        a = np.asarray(arr, dtype=float)
        if a.ndim == 2:
            a = a[:, :, None]
        if a.ndim != 3:
            raise DomainError(f"expected an (m, n, d) array, got shape {a.shape}")
        return cls(tuple(BoundaryState(a[k]) for k in range(a.shape[0])))
