"""The benchmark in ``bench/`` reaches the package by name; these names must exist.

A traced run (``bench/run.py --trace 1``) calls ``importlib.import_module``
on every module in ``bench/tracing.py``'s ``TARGETS`` and exits 1 if one is
gone, and ``bench/worker.py`` builds its Monte-Carlo config by keyword.  Both
files are read here, not copied, so a change to the package that breaks the
benchmark fails in tier-1.
"""

import ast
import importlib
from pathlib import Path

import pytest

import fbrate

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
