"""The value types' constructors: one pass in make_problem, one step each.

``make_problem`` copies both stacks into one array and checks them once;
it must give the same problem, bit for bit, as building each
``BoundaryState`` and then the ``CostProblem``, and raise the same error
with the same message, in the same order, on every input that path
refuses.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from msdcost import (
    BoundaryState,
    CostBreakdown,
    CostProblem,
    DiscreteMeasure,
    DomainError,
    TrajectoryPolynomial,
    build_A,
    det_A,
    elimination_det,
    eval_trajectory,
    ground_cost_matrix,
    hessian,
    make_problem,
    solve_assignment,
    solve_trajectory,
    taylor_propagate,
)


def make_problem_per_state(h, x, y):
    start, end = BoundaryState(x), BoundaryState(y)
    return CostProblem(n=start.n, h=h, d=start.d, start=start, end=end)


def outcome(build, h, x, y):
    """The problem's fields and state bytes, or the error type and message."""
    try:
        p = build(h, x, y)
    except Exception as exc:  # noqa: BLE001 -- any error must match exactly
        return type(exc), str(exc)
    states = tuple(
        (s.values.tobytes(), s.values.shape, s.values.dtype, s.values.flags.writeable)
        for s in (p.start, p.end)
    )
    return (p.n, type(p.n), p.h, type(p.h), p.d, type(p.d)) + states


def test_make_problem_matches_per_state_path_bitwise():
    rng = np.random.default_rng(71)
    for n in range(1, 13):
        for shape in ((n,), (n, 1), (n, 3)):
            x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
            y = rng.standard_normal(shape)
            x.flat[0] = -0.0
            for h in (1e-2, 1.0, 100):
                for xs, ys in ((x, y), (x.tolist(), y.tolist()), (x, y.tolist())):
                    got = outcome(make_problem, h, xs, ys)
                    assert got == outcome(make_problem_per_state, h, xs, ys)


def test_make_problem_copies_and_freezes_its_inputs():
    x = np.arange(6.0).reshape(3, 2)
    y = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    p = make_problem(0.5, x, y)
    x[0, 0] = 99.0
    y[0][0] = 99.0
    assert p.start.values[0, 0] == 0.0 and p.end.values[0, 0] == 1.0
    assert not np.shares_memory(p.start.values, x)
    for state in (p.start, p.end):
        assert not state.values.flags.writeable
        with pytest.raises(ValueError):
            state.values[0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.values = np.zeros((3, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.h = 2.0


NAN, INF = math.nan, math.inf
MALFORMED = [
    ([[1.0, 2.0], [3.0]], [[1.0, 2.0], [3.0, 4.0]]),  # ragged x
    ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0]]),  # ragged y
    (np.zeros((3, 2)), np.zeros((4, 2))),  # mismatched n
    (np.zeros((3, 2)), np.zeros((3, 1))),  # mismatched d
    (np.zeros(3), np.zeros((3, 2))),  # promoted x against a wider y
    (np.zeros(3), np.zeros((3, 1))),  # promoted x against the same shape: accepted
    (np.zeros((2, 3, 1)), np.zeros((2, 3, 1))),  # ndim 3
    (1.0, 2.0),  # scalars
    (1.0, np.zeros((2, 1))),
    ([], []),  # empty axes
    ([[]], [[]]),
    (np.zeros((0, 2)), np.zeros((0, 2))),
    (np.zeros((2, 0)), np.zeros((2, 1))),
    ([0.0, NAN], [0.0, 0.0]),  # non-finite entries, in x, y or both
    ([0.0, 0.0], [INF, 0.0]),
    ([[NAN]], [[-INF]]),
    ([NAN, 0.0], [0.0]),  # non-finite x and a mismatched y
    ([0.0, 0.0], [0.0, NAN, 0.0]),
    ([NAN, 0.0], np.zeros((2, 1, 1))),  # x and y refused for different reasons
    (np.zeros((2, 1, 1)), [NAN, 0.0]),
    ([[]], [INF]),
    ([None, 1.0], ["a", 1.0]),
    ([None, 1.0], [1.0, 2.0]),  # non-numeric entries
    (["a", 1.0], [1.0, 2.0]),
    ([1.0, 2.0], ["1.5", "2.5"]),  # numeric strings convert, as in numpy
    ({}, [1.0]),
    ([1.0], object()),
    ([10**400], [1.0]),
    (np.zeros(13), np.zeros(13)),  # order out of range
    (np.zeros((13, 2)), [[0.0]]),
]


@pytest.mark.parametrize("x, y", MALFORMED)
@pytest.mark.parametrize("h", [1.0, 0.0, -1.0, NAN, INF])
def test_make_problem_refuses_like_the_per_state_path(x, y, h):
    assert outcome(make_problem, h, x, y) == outcome(make_problem_per_state, h, x, y)


def test_replace_revalidates():
    p = make_problem(1.0, [0.0, 1.0], [1.0, 0.0])
    with pytest.raises(DomainError, match="horizon must be positive"):
        dataclasses.replace(p, h=-1.0)
    with pytest.raises(DomainError, match="endpoint shapes"):
        dataclasses.replace(p, start=BoundaryState([0.0, 1.0, 2.0]))
    with pytest.raises(DomainError, match="must be finite"):
        dataclasses.replace(p.start, values=[0.0, NAN])
    q = dataclasses.replace(p, h=2)
    assert q.h == 2.0 and type(q.h) is float and q.start == p.start
    assert dataclasses.replace(p.start, values=[3.0]).values.tolist() == [[3.0]]


def test_cost_problem_by_keyword_and_position():
    s, e = BoundaryState([0.0, 1.0]), BoundaryState([1.0, 0.0])
    p = CostProblem(2, 1.5, 1, s, e)
    assert p == CostProblem(n=2, h=1.5, d=1, start=s, end=e)
    assert p == make_problem(1.5, [0.0, 1.0], [1.0, 0.0])
    assert repr(p).startswith("CostProblem(n=2, h=1.5, d=1, start=BoundaryState(values=")


def test_cost_breakdown_by_keyword_and_position():
    b = np.array([[1.0], [-2.0]])
    by_position = CostBreakdown(3.0, "algorithm51", b)
    by_keyword = CostBreakdown(total=3.0, route="algorithm51", b=b.copy(), clamped=False)
    assert by_position.clamped is False
    assert by_position == by_keyword
    assert by_position != CostBreakdown(3.0, "algorithm51", b, True)
    assert by_position != CostBreakdown(3.0, "algorithm51", b + 1.0)
    assert by_position != CostBreakdown(3.0, "kform", b)
    assert [f.name for f in dataclasses.fields(CostBreakdown)] == [
        "total", "route", "b", "clamped"
    ]
    assert repr(by_position) == (
        "CostBreakdown(total=3.0, route='algorithm51', b=array([[ 1.],\n       [-2.]]),"
        " clamped=False)"
    )
    assert dataclasses.replace(by_position, total=0.0).total == 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        by_position.total = 1.0


def test_trajectory_polynomial_by_keyword_position_and_solver():
    p = make_problem(0.7, [[0.0, 1.0], [2.0, 0.0]], [[1.0, 0.0], [0.0, 3.0]])
    poly = solve_trajectory(p)
    # the solver hands over the problem's frozen stacks; its coeffs are frozen too
    assert poly.start is p.start.values and poly.end is p.end.values
    assert not poly.coeffs.flags.writeable
    by_position = TrajectoryPolynomial(2, 0.7, 2, poly.coeffs, poly.start, poly.end)
    by_keyword = TrajectoryPolynomial(
        n=2, h=0.7, d=2, coeffs=poly.coeffs.tolist(), start=p.start.values, end=p.end.values
    )
    assert by_position == by_keyword == poly
    sources = (poly.coeffs, p.start.values, p.end.values)
    for built in (by_position, by_keyword):  # the public constructor keeps its copies
        arrays = (built.coeffs, built.start, built.end)
        assert not any(a.flags.writeable for a in arrays)
        assert not any(np.shares_memory(a, b) for a, b in zip(arrays, sources))
    eval_trajectory(poly, 1, [0.1, 0.2])
    eval_trajectory(poly, 4, [0.1, 0.2])
    assert set(vars(poly)) == {"n", "h", "d", "coeffs", "start", "end"}  # no memo
    assert repr(poly).startswith("TrajectoryPolynomial(n=2, h=0.7, d=2, coeffs=array(")
    assert "_samplers" not in repr(poly)
    assert [f.name for f in dataclasses.fields(TrajectoryPolynomial)] == [
        "n", "h", "d", "coeffs", "start", "end"
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        poly.h = 1.0
    with pytest.raises(DomainError, match="horizon must be positive"):
        dataclasses.replace(poly, h=-1.0)
    with pytest.raises(DomainError, match="order out of range"):
        TrajectoryPolynomial(0, 0.7, 2, np.zeros((0, 2)))
    with pytest.raises(DomainError, match=r"coefficient array must have shape \(4, 2\)"):
        TrajectoryPolynomial(2, 0.7, 2, np.zeros((3, 2)))
    with pytest.raises(DomainError, match="give both endpoint stacks or neither"):
        TrajectoryPolynomial(2, 0.7, 2, poly.coeffs, start=poly.start)
    with pytest.raises(DomainError, match=r"end array must have shape \(2, 2\)"):
        TrajectoryPolynomial(2, 0.7, 2, poly.coeffs, poly.start, np.zeros((3, 2)))


@pytest.mark.parametrize(
    "h", [True, np.True_, "1", b"1", None], ids=["True", "np.True_", "str", "bytes", "None"]
)
def test_a_boolean_horizon_is_refused(h):
    from msdcost.matrices import build_A, taylor_propagate

    x = np.arange(2.0)
    taylor_propagate(x, 1.0)  # a cached h = 1.0 entry must not answer for True
    refusals = (
        lambda: make_problem(h, [0.0], [1.0]),
        lambda: build_A(2, h),
        lambda: taylor_propagate(x, h),
    )
    for build in refusals:
        with pytest.raises(DomainError, match=f"^horizon must be a number, got {h!r}$"):
            build()


@pytest.mark.parametrize(
    "build, values",
    [
        (BoundaryState, [[0.0], [0.0, 1.0]]),
        (lambda v: make_problem(1.0, v, [[0.0], [1.0]]), [[0.0], [0.0, 1.0]]),
        (DiscreteMeasure, [[[0.0]], [[0.0], [1.0]]]),
    ],
    ids=["BoundaryState", "make_problem", "DiscreteMeasure"],
)
def test_a_ragged_nesting_is_refused(build, values):
    with pytest.raises(DomainError, match="^boundary values must be a rectangular array"):
        build(values)


RAGGED = [[0.0], [0.0, 1.0]]


@pytest.mark.parametrize(
    "build, what",
    [
        (lambda: TrajectoryPolynomial(1, 1.0, 1, RAGGED), "coefficient values"),
        (lambda: TrajectoryPolynomial(1, 1.0, 1, [[0.0], [1.0]], RAGGED, [0.0]), "start values"),
        (lambda: TrajectoryPolynomial(1, 1.0, 1, [[0.0], [1.0]], [0.0], RAGGED), "end values"),
        (lambda: solve_assignment([[1.0], [1.0, 2.0]]), "cost matrix"),
        (lambda: elimination_det([[1.0], [1.0, 2.0]]), "matrix"),
        (lambda: taylor_propagate(RAGGED, 1.0), "derivative stack"),
        (lambda: eval_trajectory(solve_trajectory(make_problem(1.0, [0.0], [1.0])), 0, RAGGED),
         "times"),
    ],
    ids=["coeffs", "start", "end", "solve_assignment", "elimination_det",
         "taylor_propagate", "eval_trajectory"],
)
def test_a_ragged_array_is_refused_by_every_intake(build, what):
    with pytest.raises(DomainError, match=f"^{what} must be a rectangular array, not ragged$"):
        build()


def test_a_horizon_is_any_real_number_but_a_bool():
    mu = DiscreteMeasure([[[0.0], [1.0]], [[1.0], [0.0]]])
    for h in ("1", None):
        for build in (lambda: det_A(2, h), lambda: hessian(2, h),
                      lambda: ground_cost_matrix(mu, mu, h)):
            with pytest.raises(DomainError, match=f"^horizon must be a number, got {h!r}$"):
                build()
    for h in (2, np.int64(2), np.float32(2.0), Fraction(2)):
        assert make_problem(h, [0.0], [1.0]).h == 2.0
        np.testing.assert_array_equal(build_A(3, h), build_A(3, 2.0))
    with pytest.raises(DomainError, match="^horizon must be positive and finite, got h=inf$"):
        make_problem(10**400, [0.0], [1.0])
