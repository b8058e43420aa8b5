"""The package's lazy export table."""

import importlib.util
from pathlib import Path

import pytest

import cloudseg


@pytest.mark.parametrize("name", cloudseg.__all__)
def test_export_is_its_submodules_definition(name):
    module = importlib.import_module(f"cloudseg.{cloudseg._EXPORTS[name]}")
    value = getattr(cloudseg, name)
    assert value is getattr(module, name)
    # defined there, not imported into it from another submodule
    assert getattr(value, "__module__", module.__name__) == module.__name__


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from cloudseg import *", namespace)
    for name in cloudseg.__all__:
        assert namespace[name] is getattr(cloudseg, name)
    assert set(cloudseg.__all__) <= set(dir(cloudseg))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cloudseg.no_such_name


def test_submodules_import_from_the_package():
    from cloudseg import cli

    assert cli is importlib.import_module("cloudseg.cli")
    assert callable(cli.main)



def test_benchmark_span_sites_resolve():
    """perfbench/spans.py wraps 28 names of the package, among them the
    codec readers and writer that cloudseg.cli imports; each must still
    resolve. ROADMAP item 1b replaces this with a trace the package writes."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = [getattr(owner, attr, None) for owner, attr, *_ in spans._SITES]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert len(tracer._patched) == len(spans._SITES) == 28
    finally:
        tracer.restore()
    assert [getattr(owner, attr) for owner, attr, *_ in spans._SITES] == originals
