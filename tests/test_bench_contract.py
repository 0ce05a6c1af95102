"""Every name the benchmark's tracer wraps still exists where it looks for
it, so a refactor that drops one fails here and not only under
``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("mod_name, func", [
    (mod_name, func)
    for mod_name, funcs in tracing.SPANNED.items() for func in funcs
])
def test_spanned_function_exists(mod_name, func):
    module = importlib.import_module(f"markov_torus.{mod_name}")
    assert callable(getattr(module, func, None)), f"{mod_name}.{func}"


@pytest.mark.parametrize("mod_name, cls_name, meth",
                         [entry[:3] for entry in tracing.SPANNED_METHODS
                          + tracing.COUNTED_METHODS])
def test_wrapped_method_is_defined_on_its_class(mod_name, cls_name, meth):
    # the tracer patches cls.__dict__[meth], so an inherited method will not do
    cls = getattr(importlib.import_module(f"markov_torus.{mod_name}"), cls_name)
    assert callable(cls.__dict__.get(meth)), f"{cls_name}.{meth}"
