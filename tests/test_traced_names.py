"""The names the benchmark's traced run patches must exist in the package.

``bench/spans.py`` looks package functions up with no default and wraps
them, so a renamed or deleted function breaks the traced run.  This check
loads that file as it is and keeps the names it needs in place.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from msdcost import cli
from msdcost.types import DiscreteMeasure

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_resolves_in_the_package():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHED
    for span, (modname, attr) in spans.PATCHED.items():
        assert modname.split(".")[0] == "msdcost", span
        assert callable(getattr(importlib.import_module(modname), attr)), span
    # the hooks outside PATCHED: a classmethod rewrapped as one, and the
    # json module that the CLI reads through its own name
    assert isinstance(DiscreteMeasure.__dict__["from_array"], classmethod)
    assert cli.json is json
