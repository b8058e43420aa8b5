"""The package's lazy export table."""

import importlib.util
import json
import os
import subprocess
import sys
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
    resolve. ROADMAP item 2 replaces this with a trace the package writes."""
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


# A fresh interpreter loads perfbench/spans.py, resolves each stage name the
# tracer wraps on cloudseg.cli, then runs five commands through cli.main
# under the tracer and prints what it saw.
_SITES_CHILD = """
import importlib, importlib.util, json, os, sys
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
import cloudseg
from cloudseg import cli
sites = {attr: name for owner, attr, name, _ in spans._SITES if owner is cli and not attr.startswith("_cmd_")}
unbound = [attr for attr in sites if attr not in vars(cli)]
defined = [attr for attr in sites if sites[attr] == f"{cloudseg._EXPORTS[attr]}.{attr}"
           and getattr(cli, attr) is getattr(importlib.import_module(f"cloudseg.{cloudseg._EXPORTS[attr]}"), attr)]
tracer = spans.Tracer()
tracer.install()
try:
    os.chdir(sys.argv[2])
    for argv in json.loads(sys.argv[3]):
        assert cli.main(argv) == 0, argv
finally:
    tracer.restore()
print(json.dumps({"sites": sites, "unbound": unbound, "defined": defined,
                  "called": sorted({span["name"] for span in tracer.spans})}))
"""


def test_benchmark_span_sites_on_cli_in_a_fresh_child(tmp_path):
    """The stage names perfbench wraps on cloudseg.cli resolve, before any
    command has run, to their defining modules' objects; and a name rebound
    on cloudseg.cli before a command runs is the one the command calls, so
    the tracer sees every call. ROADMAP item 2 retires this contract."""
    commands = [
        ["synth", "--preset", "wyoming_like", "--seed", "3", "--scene-output", "s.gms1", "--volume-output", "v.gmsv"],
        ["segment", "--input", "s.gms1", "--min-area", "30", "--segments-output", "seg.gms1",
         "--mask-output", "m.gms1", "--stats-output", "c.csv"],
        ["ccs", "--input", "s.gms1", "--segments-output", "ccs.gms1", "--mask-output", "ccs-m.gms1"],
        ["truth-mask", "--input", "v.gmsv", "--output", "t.gms1"],
        ["evaluate", "--prediction", "m.gms1", "--truth", "t.gms1", "--output", "r.json"],
    ]
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cloudseg.__file__)))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _SITES_CHILD, str(spans), str(tmp_path),
                           json.dumps(commands)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    observed = json.loads(proc.stdout)
    sites = observed["sites"]
    assert len(sites) == 15
    assert observed["defined"] == list(sites)
    # no name is bound when cloudseg.cli loads: the codec loads only in a command that uses it
    assert observed["unbound"] == list(sites)
    # no command reads a whole volume, and evaluate reads its masks as bytes;
    # every other wrapped name recorded spans
    assert set(observed["called"]) >= {name for name in sites.values()} - {
        "formats.read_volume_file", "formats.read_cloud_mask"}
