"""The benchmark's traced run wraps names of the program by attribute lookup,
so each name it lists must resolve: dropping one fails here, not only in the
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("module, attr, span", tracing.WRAPPED_FUNCTIONS)
def test_wrapped_function_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, attr, span", tracing.WRAPPED_METHODS)
def test_wrapped_method_is_defined_on_its_class(module, cls, attr, span):
    # the tracer replaces the class attribute itself, not an inherited one
    assert callable(vars(getattr(importlib.import_module(module), cls))[attr])
