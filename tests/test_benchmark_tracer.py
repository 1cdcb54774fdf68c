"""The traced benchmark run (`perfbench/run.py --trace 1`) patches engine
functions by name from outside. These tests read `perfbench/tracer.py`
without changing it and check that every site it names still exists as a
plain function, classmethod or generator function, so renaming or rewrapping
one of them fails here and not only in a traced benchmark run."""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import ischema.cli  # noqa: F401  (loads every engine module the tracer patches)
from ischema import library
from ischema.dsl import parse_formula

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


@pytest.mark.parametrize(
    "axiom, generated, checked",
    [
        # delta under arithmetic keeps the theory off the join: every ordered
        # pair of the 4 distinct entities is generated and checked
        ("always (on(upper, lower) and delta(upper, lower) * 1 >= 0)", 12, 12),
        # SUPPORT itself is joined: only the pairs `on` holds for at t=0 are
        # generated and checked
        ("always on(upper, lower)", 3, 3),
    ],
)
def test_traced_classify_counts_bindings(tracer_module, axiom, generated, checked):
    theory = dataclasses.replace(library.schema_theory("SUPPORT"), axioms=(parse_formula(axiom),))
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        results = library.classify(library.shipped_scenario("stack"), [theory])
    finally:
        tracer.uninstall()
    assert tracer.counts["library.bindings.generated"] == generated
    assert tracer.calls["logic.check_theory"] == checked
    assert tracer.counts["library.bindings.satisfied"] == len(results) == 3
    assert library.candidate_bindings.__module__ == "ischema.library"
    assert not hasattr(library.candidate_bindings, "__wrapped__")
