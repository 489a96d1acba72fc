"""The closed-loop benchmark's hooks into the package still resolve.

``perfbench/`` drives public entry points (``workloads.py``) and wraps
named callables in place (``tracing.py`` ``SPANS``), so a rename or a
schema change in ``src/`` would otherwise surface only when the
benchmark runs. Nothing here runs a workload.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the class is built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")


def test_workloads_build():
    """Every workload BENCHMARK.json declares imports and constructs
    (each builds its scenario specs and session configs up front)."""
    workloads = _load("workloads")
    declared = {w["name"] for w in
                json.loads((ROOT / "BENCHMARK.json").read_text())
                ["workloads"]}
    assert set(workloads.WORKLOADS) == declared
    for cls in workloads.WORKLOADS.values():
        cls(seed=1, smoke=True)


@pytest.mark.parametrize("name, target, attr", tracing.SPANS,
                         ids=[f"{t}.{a}" for _, t, a in tracing.SPANS])
def test_span_target_resolves(name, target, attr):
    """The tracer patches ``vars(owner)[attr]``: it must exist on the
    owner itself, not be inherited."""
    assert callable(vars(tracing._resolve(target))[attr])
