"""The benchmark in ``bench/`` reaches the package by name; these names must exist.

A traced run (``bench/run.py --trace 1``) calls ``importlib.import_module``
on every module in ``bench/tracing.py``'s ``TARGETS`` and exits 1 if one is
gone; ``bench/worker.py`` builds its Monte-Carlo config by keyword and reads
attributes off a cross-check ``report`` and an ``ErResult`` ``result``.  Both
files are read here, not copied, so a change to the package that breaks the
benchmark fails in tier-1.
"""

import ast
import importlib
from pathlib import Path

import pytest

import fbrate
from fbrate.crosscheck import closed_form_grid, run_cross_check

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _source(name: str) -> ast.Module:
    return ast.parse((BENCH / name).read_text())


def _targets() -> tuple:
    for node in _source("tracing.py").body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py assigns no TARGETS")


@pytest.mark.parametrize("module", sorted({module for module, _, _ in _targets()}))
def test_traced_module_imports(module):
    importlib.import_module(module)


def test_mc_config_builds_as_the_worker_builds_it():
    calls = [node for node in ast.walk(_source("worker.py"))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "McConfig"]
    assert calls
    values = {"n_samples": 1_000_000, "seed": 9808}
    for call in calls:
        config = fbrate.McConfig(**{kw.arg: values[kw.arg] for kw in call.keywords})
        assert (config.n_samples, config.seed) == (1_000_000, 9808)


def _attributes_read_off(name: str) -> set:
    """The attributes ``bench/worker.py`` reads off a variable called ``name``."""
    return {node.attr for node in ast.walk(_source("worker.py"))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == name}


#: A real value of each variable the worker reads attributes off.
WORKER_VALUES = {
    "report": lambda: run_cross_check(closed_form_grid()[:1]),
    "result": lambda: fbrate.er_auto(fbrate.ErRequest(fbrate.preset("rayleigh"), 2.0)),
}


@pytest.mark.parametrize("name", sorted(WORKER_VALUES))
def test_results_carry_what_the_worker_reads(name):
    attributes = _attributes_read_off(name)
    assert attributes
    value = WORKER_VALUES[name]()
    assert {a for a in attributes if not hasattr(value, a)} == set()
