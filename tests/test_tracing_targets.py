"""The benchmark tracer's targets exist where ``perfbench/tracing.py`` looks
for them, checked without installing the tracer: a deleted function, or a
method moved to a base class, would break ``perfbench/run.py --trace 1``."""

import importlib.util
from pathlib import Path

import pytest

from gpseries.series import Series
from gpseries.trees import AdmissibleTree

_path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _path)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("owner, attr", [row[:2] for row in tracing.FUNCTIONS],
                         ids=[row[2] for row in tracing.FUNCTIONS])
def test_traced_function_exists(owner, attr):
    # ``install`` reads it with getattr and rebinds it in every module
    assert callable(getattr(owner, attr, None))


@pytest.mark.parametrize("cls, attr", [row[:2] for row in tracing.METHODS]
                         + [(AdmissibleTree, "branches"), (Series, "__init__")],
                         ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_traced_method_is_defined_on_its_class(cls, attr):
    # ``install`` reads it from the class's own ``vars``, not from a base
    assert callable(vars(cls).get(attr))
