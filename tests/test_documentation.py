"""Documentation-coverage meta-tests.

The reproduction promises doc comments on every public item; these
tests enforce it mechanically so the promise cannot rot.  The
extension guide's scheme example is executed as written.
"""

import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro
from repro.core.config import FIDELITIES, test_config as make_test_config
from repro.core.system import run_workload
from repro.protection.base import SCHEME_REGISTRY
from repro.workloads import make_workload
from repro.workloads.base import GenContext

MODULES = [
    name for _finder, name, _pkg in pkgutil.walk_packages(
        repro.__path__, prefix="repro.")
]


def _public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports documented at their definition site
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


@pytest.mark.parametrize("module_name", MODULES)
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), \
        f"{module_name} lacks a module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_public_classes_and_functions_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = [
        name for name, obj in _public_members(module)
        if not (obj.__doc__ and obj.__doc__.strip())
    ]
    assert not undocumented, \
        f"{module_name}: undocumented public items {undocumented}"


def test_public_api_exports_exist():
    """Everything in __all__ must resolve."""
    for module_name in MODULES + ["repro"]:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module_name}.__all__: {name}"


def test_readme_mentions_key_entry_points():
    with open("README.md") as fh:
        readme = fh.read()
    for needle in ("run_workload", "cachecraft-sim", "pytest benchmarks/",
                   "DESIGN.md", "EXPERIMENTS.md"):
        assert needle in readme, needle


def _extending_section(number):
    """The python example of a numbered EXTENDING.md section."""
    path = Path(__file__).resolve().parent.parent / "docs" / "EXTENDING.md"
    text = path.read_text()
    section = text.split(f"\n## {number}. ", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("fidelity", FIDELITIES)
def test_extending_scheme_example_runs(fidelity):
    """EXTENDING.md §1's scheme registers, runs vecadd on both tiers, and
    costs what the built-in per-sector scheme it mirrors costs."""
    config = make_test_config().with_fidelity(fidelity)
    gen = GenContext(num_sms=2, warps_per_sm=4, scale=0.02, seed=7)
    namespace = {}
    exec(compile(_extending_section(1), "EXTENDING.md", "exec"), namespace)
    try:
        result = run_workload(make_workload("vecadd"),
                              config.with_scheme("my-scheme"), gen_ctx=gen)
    finally:
        del SCHEME_REGISTRY["my-scheme"]
    reference = run_workload(make_workload("vecadd"),
                             config.with_scheme("inline-sector"), gen_ctx=gen)
    assert result.traffic["metadata"] > 0
    assert result.traffic == reference.traffic
    assert result.cycles == reference.cycles
    assert result.storage_overhead == reference.storage_overhead > 0
