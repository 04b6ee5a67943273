"""Value types, exceptions and the domain checks shared across the package.

All arrays follow one stacking convention: a boundary state is an (n, d)
array whose row k holds the k-th derivative of the curve at that endpoint
(units length/time**k), with d the spatial dimension.

Validation lives here: the value types check their order, horizon and
shapes once, when built; entry points taking a raw n or h reuse the checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


class DomainError(ValueError):
    """Input outside the supported domain (order, horizon, shapes, sizes)."""


class SingularMatrixError(DomainError):
    """Pivot fell below the singularity threshold during elimination."""


class ConsistencyError(ArithmeticError):
    """A quantity violated an identity far beyond rounding noise."""


#: Largest supported derivative order.  Factorials up to (2n-1)! and the
#: conditioning of A stay comfortably inside double precision up to here;
#: raise it at your own risk.
N_MAX = 12


def _check_order(n: int) -> int:
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise DomainError(f"order must be an integer, got {n!r}")
    if n < 1 or n > N_MAX:
        raise DomainError(f"order out of range: n={n} (supported 1..{N_MAX})")
    return int(n)


_BOOL_TYPES = (bool, np.bool_)


def _check_horizon(h: float, allow_zero: bool = False) -> float:
    if isinstance(h, _BOOL_TYPES):
        raise DomainError(f"horizon must be a number, got {h!r}")
    h = float(h)
    if not math.isfinite(h) or h < 0.0 or (h == 0.0 and not allow_zero):
        kind = "nonnegative" if allow_zero else "positive"
        raise DomainError(f"horizon must be {kind} and finite, got h={h}")
    return h


def _trusted(cls, **fields):
    """A ``cls`` around fields already checked and frozen: no validation, no copy."""
    value = cls.__new__(cls)
    vars(value).update(fields)
    return value


def _value_eq(self, other) -> bool:
    """Field-by-field equality that compares array fields with ``np.array_equal``."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    for f in fields(self):
        a, b = getattr(self, f.name), getattr(other, f.name)
        if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
            return False
    return True


def _float_copy(values) -> np.ndarray:
    """A fresh float array of ``values``; a ragged nesting raises DomainError."""
    try:
        return np.array(values, dtype=float, copy=True)
    except ValueError as exc:
        if "inhomogeneous" not in str(exc):  # numpy's word for a ragged nesting
            raise
        raise DomainError("boundary values must be a rectangular array, not ragged") from None


def _as_state_array(values) -> np.ndarray:
    arr = _float_copy(values)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DomainError(f"boundary values must be an (n, d) array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError("boundary values must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, init=False)
class BoundaryState:
    """Derivative stack (position through (n-1)-th derivative) at one endpoint.

    ``values`` has shape (n, d); a 1-D input of length n is promoted to
    (n, 1).
    """

    values: np.ndarray

    __eq__ = _value_eq

    def __init__(self, values):
        vars(self).update(values=_as_state_array(values))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, init=False)
class CostProblem:
    """Two-point boundary problem: order n, horizon h > 0, endpoints start/end."""

    n: int
    h: float
    d: int
    start: BoundaryState
    end: BoundaryState

    __eq__ = _value_eq

    def __init__(
        self, n: int, h: float, d: int, start: BoundaryState, end: BoundaryState
    ):
        n, h = _check_order(n), _check_horizon(h)
        shape = (n, d)
        if start.values.shape != shape or end.values.shape != shape:
            raise DomainError(
                f"endpoint shapes must be {shape}: start has {start.values.shape},"
                f" end has {end.values.shape}"
            )
        vars(self).update(n=n, h=h, d=d, start=start, end=end)


def make_problem(h: float, x, y) -> CostProblem:
    """Build a CostProblem from raw (n, d) or length-n boundary arrays.

    Both stacks are copied into one (2, n, d) array, checked for
    finiteness in one pass and frozen; the two states are its halves.
    Inputs that do not stack that way (ragged, mismatched or empty shapes,
    a wrong ndim, non-finite or non-numeric entries) take the per-state
    path ``BoundaryState(x)``, ``BoundaryState(y)``, ``CostProblem(...)``,
    so every error and its message are the same as building them one by
    one.
    """
    try:
        pair = np.array((x, y), dtype=float)
    except (TypeError, ValueError, OverflowError):  # the per-state path reports it
        pair = np.empty(0)
    pair.setflags(write=False)
    if pair.ndim == 2:
        pair = pair[:, :, None]
    if pair.ndim != 3 or 0 in pair.shape or not np.isfinite(pair).all():
        start, end = BoundaryState(x), BoundaryState(y)
        return CostProblem(n=start.n, h=h, d=start.d, start=start, end=end)
    _, n, d = pair.shape
    start = _trusted(BoundaryState, values=pair[0])
    return CostProblem(n, h, d, start, _trusted(BoundaryState, values=pair[1]))


def _frozen_stack(name: str, values, shape: tuple) -> np.ndarray:
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape != shape:
        raise DomainError(f"{name} array must have shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, init=False)
class TrajectoryPolynomial:
    """Optimal curve of degree at most 2n-1 on [0, h], d spatial columns.

    ``start`` and ``end`` are the (n, d) derivative stacks at t = 0 and
    t = h; they fix the curve (a two-point Hermite interpolant), and
    ``eval_trajectory`` samples it from them.  ``coeffs`` holds the same
    curve in monomial form, row i being a_i in sum a_i t**i (2n rows); it
    is derived output, ill-conditioned for large n or h far from 1, and
    may overflow where the stacks do not.  Built from ``coeffs`` alone,
    the stacks are derived once from it: start = V(0) a_low and
    end = V(h) a_low + A(h) a_up.  The arrays are read-only, and the value
    holds these six fields and nothing else: sampling keeps no state in it.
    """

    n: int
    h: float
    d: int
    coeffs: np.ndarray
    start: np.ndarray | None = None
    end: np.ndarray | None = None

    __eq__ = _value_eq

    def __init__(self, n: int, h: float, d: int, coeffs, start=None, end=None):
        n, h = _check_order(n), _check_horizon(h)
        coeffs = _frozen_stack("coefficient", coeffs, (2 * n, d))
        if (start is None) != (end is None):
            raise DomainError("give both endpoint stacks or neither")
        if start is None:
            from .matrices import build_A, build_V  # matrices imports this module

            # an overflowing stack is refused when it is sampled
            with np.errstate(over="ignore", invalid="ignore"):
                low, up = coeffs[:n], coeffs[n:]
                start = build_V(n, 0.0) @ low
                end = build_V(n, h) @ low + build_A(n, h) @ up
        start = _frozen_stack("start", start, (n, d))
        end = _frozen_stack("end", end, (n, d))
        vars(self).update(n=n, h=h, d=d, coeffs=coeffs, start=start, end=end)


@dataclass(frozen=True, init=False)
class CostBreakdown:
    """Cost value plus the route that produced it and the gap vector b.

    ``clamped`` marks totals in [-1e-9, 0) that were reported as 0 because
    the negative sign was numerical noise on a nonnegative quadratic form.
    """

    total: float
    route: str
    b: np.ndarray
    clamped: bool = False

    __eq__ = _value_eq

    def __init__(self, total: float, route: str, b: np.ndarray, clamped: bool = False):
        vars(self).update(total=total, route=route, b=b, clamped=clamped)


@dataclass(frozen=True, init=False)
class DiscreteMeasure:
    """Uniformly weighted point set in boundary-state space (weights 1/m).

    ``values`` is one read-only (m, n, d) array: ``values[k]`` is the
    derivative stack of point k.  An (m, n) input is promoted to d = 1.
    The values are copied, checked once and frozen.
    """

    values: np.ndarray

    __eq__ = _value_eq

    def __init__(self, values):
        a = _float_copy(values)
        if a.ndim == 2:
            a = a[:, :, None]
        if a.ndim != 3:
            raise DomainError(f"expected an (m, n, d) array, got shape {a.shape}")
        if a.shape[0] < 1:
            raise DomainError("a discrete measure needs at least one point")
        if a.shape[1] < 1 or a.shape[2] < 1:
            raise DomainError(
                f"boundary values must be an (n, d) array, got shape {a.shape[1:]}"
            )
        if not np.isfinite(a).all():
            raise DomainError("boundary values must be finite")
        a.setflags(write=False)
        vars(self).update(values=a)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def d(self) -> int:
        return self.values.shape[2]

    @classmethod
    def from_array(cls, arr) -> "DiscreteMeasure":
        """The same as ``DiscreteMeasure(arr)``, kept for the callers of this name."""
        return cls(arr)
