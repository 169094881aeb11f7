"""The README names only what the package has."""

import functools
import importlib
import inspect
import pkgutil
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

import medmission
from medmission import SweepConfig, cli, experiment
from medmission.schema import json_key

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(medmission.__path__)}
# Each config section's fields by JSON key, such as "scenario": ScenarioParams.
SECTIONS = {json_key(f): {json_key(g) for g in fields(f.default)}
            for f in fields(SweepConfig) if is_dataclass(f.default)}
# Every backticked `module.name` (or `module.name.attribute`) of the package.
NAMES = sorted({match[0] for match in re.findall(r"`((\w+)(\.\w+)+)", README.read_text())
                if match[1] in MODULES})
# Each size cap that `experiment` defines, rather than imports.
CAPS = re.findall(r"^(MAX_\w+) = ", inspect.getsource(experiment), re.MULTILINE)


@pytest.mark.parametrize("dotted", NAMES)
def test_each_module_name_in_the_readme_exists(dotted):
    module, *path = dotted.split(".")
    try:
        functools.reduce(getattr, path, importlib.import_module(f"medmission.{module}"))
    except AttributeError:
        assert len(path) == 1 and path[0] in SECTIONS.get(module, ()), (
            f"README names `{dotted}`, which is neither an attribute of "
            f"medmission.{module} nor a field of its config section")


@pytest.mark.parametrize("cap", CAPS)
def test_each_cap_of_experiment_is_named_in_the_readme(cap):
    assert f"experiment.{cap}" in NAMES, f"README does not name `experiment.{cap}`"


def test_the_readme_lists_the_trials_columns_in_order():
    listed = re.search(r"\*\*`trials\.csv`\*\* — one row per mission:\s*`([^`]*)`",
                       README.read_text())
    names = [re.sub(r"\(.*\)", "", name).strip() for name in listed[1].split(",")]
    assert names == cli.TRIALS_COLUMNS
