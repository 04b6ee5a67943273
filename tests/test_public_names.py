"""The package's public names: each one resolves, once, and retired ones stay gone."""

import msdcost

#: Removed from the public API; the elimination solve lives on in
#: tests/test_oracle.py as a reference only.
RETIRED = ("pivoted_solve", "SingularMatrixError")


def test_every_public_name_resolves_once():
    assert len(set(msdcost.__all__)) == len(msdcost.__all__)
    namespace = {}
    exec("from msdcost import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(msdcost.__all__)
    assert "h_power_table" in namespace


def test_the_elimination_solver_is_not_public():
    for name in RETIRED:
        assert name not in msdcost.__all__
        assert not hasattr(msdcost, name)
        assert not hasattr(msdcost.oracle, name)
        assert not hasattr(msdcost.types, name)
    assert not hasattr(msdcost.oracle, "PIVOT_THRESHOLD")
