"""The traced benchmark run (`perfbench/run.py --trace 1`) patches engine
functions by name from outside. These tests read `perfbench/tracer.py`
without changing it and check that every site it names still exists as a
plain function, classmethod or generator function, so renaming or rewrapping
one of them fails here and not only in a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import ischema.cli  # noqa: F401  (loads every engine module the tracer patches)
from ischema import library

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("ischema_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _site(module_name, path):
    owner = importlib.import_module(f"ischema.{module_name}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_wrapped_site_is_an_engine_function(tracer_module):
    assert tracer_module.WRAPS
    for module_name, path, _span, yield_counter in tracer_module.WRAPS:
        raw = _site(module_name, path)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        assert inspect.isfunction(fn), f"ischema.{module_name}.{path} is {type(raw).__name__}"
        assert fn.__module__.startswith("ischema."), f"ischema.{module_name}.{path}"
        if yield_counter is not None:
            assert inspect.isgeneratorfunction(fn), f"ischema.{module_name}.{path} yields nothing"


def test_traced_classify_counts_bindings(tracer_module):
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        results = library.classify(library.shipped_scenario("stack"), ["SUPPORT"])
    finally:
        tracer.uninstall()
    generated = tracer.counts["library.bindings.generated"]
    assert generated == 12  # ordered pairs of the 4 distinct entities
    assert tracer.calls["logic.check_theory"] == generated
    assert tracer.counts["library.bindings.satisfied"] == len(results) == 3
    assert library.candidate_bindings.__module__ == "ischema.library"
    assert not hasattr(library.candidate_bindings, "__wrapped__")
