"""The names the benchmark's tracer wraps still resolve.

``bench/tracer.py`` replaces package functions and methods by name for a
traced run (``bench/run.py --trace 1``).  A rename or a reshaped method
would break that run only, so this loads the tracer as it is and resolves
every span, rollup and creation-counter target, then installs it around
one call of each kind of target and checks that the call was seen.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("cpstar_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(tracer):
    for layer, module_name, path in tracer.SPAN_TARGETS:
        yield f"{layer}.{path}", module_name, path
    for name, targets in tracer.ROLLUP_TARGETS.items():
        for module_name, path in targets:
            yield name, module_name, path


def test_every_wrapped_name_is_a_function_or_method(tracer):
    for name, module_name, path in _targets(tracer):
        owner, original = tracer._resolve(module_name, path)
        assert inspect.isfunction(original), (name, original)
        assert original.__name__ == path.rsplit(".", 1)[-1], name
    for name, (module_name, cls_name) in tracer.CREATION_COUNTERS.items():
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert inspect.isfunction(cls.__dict__["__init__"]), name


def test_installed_tracer_sees_methods_functions_and_creations(tracer):
    from cpstar import star
    from cpstar.scalars import GaussRational

    relevel = star.StarElement.__dict__["relevel"]
    traced = tracer.Tracer()
    traced.install()
    try:
        element = star.StarElement.unit(1).relevel(2)
        star.star_elements(element, element).minimized()
        GaussRational(1, 2)
        counts = traced.counts()
    finally:
        traced.uninstall()
    assert counts["star.StarElement.relevel.calls"] == 1
    assert counts["star.star_elements.calls"] == 1
    assert counts["star.StarElement.minimized.calls"] == 1
    assert counts["scalars.GaussRational.created"] >= 1
    assert star.StarElement.__dict__["relevel"] is relevel
