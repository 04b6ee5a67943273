import numpy as np
import pytest
from hypothesis import strategies as st

from msdcost import N_MAX, make_problem

# Seed for the shared random problem set; pinned so every run checks the
# exact same 200 problems.
ACCEPTANCE_SEED = 20260809


def seeded_problems(count=200, seed=ACCEPTANCE_SEED, n_max=8, d_max=3):
    """Random problems with n <= n_max, d <= d_max, h in [0.1, 10], values in [-5, 5]."""
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(count):
        n = int(rng.integers(1, n_max + 1))
        d = int(rng.integers(1, d_max + 1))
        h = float(rng.uniform(0.1, 10.0))
        x = rng.uniform(-5.0, 5.0, (n, d))
        y = rng.uniform(-5.0, 5.0, (n, d))
        problems.append(make_problem(h, x, y))
    return problems


@pytest.fixture(scope="session")
def random_problem_set():
    return seeded_problems()


#: Hypothesis arguments spanning the whole claimed domain: every order,
#: h = 10**log10_h over 12 decades and 1..3 dimensions.
ENVELOPE = dict(
    n=st.integers(1, N_MAX),
    log10_h=st.floats(-6.0, 6.0),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)


def envelope_stacks(n, d, seed):
    """Start and end stacks with entries of either sign across 12 decades."""
    rng = np.random.default_rng(seed)
    return tuple(rng.choice([-1.0, 1.0], (n, d)) * 10.0 ** rng.uniform(-6, 6, (n, d))
                 for _ in range(2))
