"""The per-(n, h) caches: the form matrix and the propagation table.

A cache hit must give the same bits as a rebuild, a cached array must be
read-only, each cache must stay within its bound, and an invalid horizon
must be refused on every call, never cached.
"""

import math

import numpy as np
import pytest

from msdcost import DiscreteMeasure, DomainError, make_problem
from msdcost.cost import cost, hessian
from msdcost.matrices import (
    _HORIZON_CACHE_SIZE,
    N_MAX,
    _propagation_table,
    build_A_inv,
    build_B,
    form_matrix,
    taylor_propagate,
)
from msdcost.transport import ground_cost_matrix

CACHES = (form_matrix, _propagation_table)
CACHE_H = (1e-13, 1e-2, 0.37, 1.0, 100.0, 1e30)
BAD_H = (0.0, -1.0, math.nan, math.inf)


def clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def outcome(fn, *args):
    """Bytes of every array in the result, or the DomainError it raised."""
    try:
        with np.errstate(all="ignore"):
            result = fn(*args)
    except DomainError as exc:
        return type(exc), str(exc)
    if isinstance(result, np.ndarray):
        return result.tobytes(), result.shape
    return np.float64(result.total).tobytes(), result.b.tobytes(), result.clamped


def assert_same_bits_after_clear(fn, *args):
    outcome(fn, *args)  # a miss fills the caches, so the next call hits
    hit = outcome(fn, *args)
    clear_caches()
    assert outcome(fn, *args) == hit


@pytest.mark.parametrize("h", CACHE_H)
@pytest.mark.parametrize("route", ["algorithm51", "kform", "scaled"])
def test_cost_bits_survive_cache_clear(h, route):
    rng = np.random.default_rng(61)
    for n in range(1, N_MAX + 1):
        p = make_problem(h, rng.standard_normal((n, 2)), rng.standard_normal((n, 2)))
        assert_same_bits_after_clear(lambda: cost(p, route=route))


@pytest.mark.parametrize("h", CACHE_H)
def test_taylor_propagate_bits_survive_cache_clear(h):
    rng = np.random.default_rng(62)
    for n in range(1, N_MAX + 1):
        for shape in ((n,), (n, 3), (4, n, 2)):
            values = rng.standard_normal(shape)
            values.flat[0] = -0.0
            assert_same_bits_after_clear(taylor_propagate, values, h)


@pytest.mark.parametrize("h", CACHE_H)
def test_ground_cost_bits_survive_cache_clear(h):
    rng = np.random.default_rng(63)
    for n in range(1, N_MAX + 1):
        mu = DiscreteMeasure.from_array(rng.standard_normal((5, n, 2)))
        nu = DiscreteMeasure.from_array(rng.standard_normal((5, n, 2)))
        assert_same_bits_after_clear(ground_cost_matrix, mu, nu, h)


def test_form_matrix_is_the_cached_product():
    for n in range(1, N_MAX + 1):
        for h in (1e-2, 0.37, 100.0):
            M = form_matrix(n, h)
            assert M is form_matrix(n, h)
            assert M.tobytes() == (build_B(n, h) @ build_A_inv(n, h)).tobytes()


def test_cached_arrays_are_read_only():
    M = form_matrix(4, 0.37)
    with pytest.raises(ValueError):
        M[0, 0] = 1.0
    T = _propagation_table(4, 0.37)
    with pytest.raises(ValueError):
        T[0, 0] = 1.0
    H = hessian(4, 0.37)  # a fresh array built from the cached one
    H[0, 0] = 1.0
    assert H[0, 0] != form_matrix(4, 0.37)[0, 0]


def test_caches_stay_within_their_bound():
    rng = np.random.default_rng(64)
    x, y = rng.standard_normal((3, 2)), rng.standard_normal((3, 2))
    for h in 1.0 + np.arange(4 * _HORIZON_CACHE_SIZE) / 1024:
        cost(make_problem(h, x, y))
    for cache in CACHES:
        info = cache.cache_info()
        assert info.maxsize == _HORIZON_CACHE_SIZE
        assert info.currsize <= _HORIZON_CACHE_SIZE


@pytest.mark.parametrize("h", BAD_H)
def test_invalid_horizon_is_refused_on_every_call(h):
    x = np.arange(4.0)
    for _ in range(3):
        taylor_propagate(x, 0.37)
        with pytest.raises(DomainError, match="horizon"):
            taylor_propagate(x, h)
        with pytest.raises(DomainError, match="horizon"):
            form_matrix(4, h)
