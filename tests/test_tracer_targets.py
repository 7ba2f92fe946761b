"""Every target of the benchmark tracer resolves in its taucalc module.

perfbench/tracer.py names the functions, generators and methods it wraps
by module and attribute, and raises on a missing one.  The benchmark
suite runs only under perfbench/, so without this check a deletion in
the package that removes a traced name would go unseen until a benchmark
run.  The tracer is loaded by path and never installed here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


def _module(name):
    return importlib.import_module(f"taucalc.{name}")


@pytest.mark.parametrize("mod, name, span", tracer.FUNCTIONS)
def test_function_targets_resolve(mod, name, span):
    assert callable(getattr(_module(mod), name))


@pytest.mark.parametrize("mod, name, span", tracer.GENERATORS)
def test_generator_targets_resolve(mod, name, span):
    assert inspect.isgeneratorfunction(getattr(_module(mod), name))


@pytest.mark.parametrize("mod, cls, attr, span", tracer.METHODS)
def test_method_targets_resolve(mod, cls, attr, span):
    member = getattr(_module(mod), cls).__dict__[attr]
    assert isinstance(member, property) or callable(member)
