"""The package's public names: exactly the ones the README documents."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import svbell


def _readme_library_section():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("## Library", 1)[1].split("\n## ", 1)[0]


def _readme_library_example():
    return _readme_library_section().split("```python\n", 1)[1].split("```", 1)[0]


def _readme_library_bullets():
    """{module: [names]} from the "- `module`: `Name`, `name`." bullets."""
    section = _readme_library_section()
    bullets = re.findall(r"^- `(\w+)`: ((?:`\w+`,?\s*)+)\.", section, re.MULTILINE)
    return {module: re.findall(r"`(\w+)`", names) for module, names in bullets}


def test_all_is_exactly_the_public_names():
    imports = [
        node for node in ast.parse(_readme_library_example()).body
        if isinstance(node, ast.ImportFrom) and node.module == "svbell"
    ]
    assert len(imports) == 1
    assert sorted(svbell.__all__) == sorted(alias.name for alias in imports[0].names)


def _public_definitions(module):
    """The public functions and classes ``module`` defines itself."""
    return {
        name for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }


def test_readme_library_section_documents_every_public_name():
    bullets = _readme_library_bullets()
    assert sum(len(names) for names in bullets.values()) == 25
    for module, names in bullets.items():
        for name in names:
            assert hasattr(importlib.import_module(f"svbell.{module}"), name), (module, name)


@pytest.mark.parametrize("name", sorted(_readme_library_bullets()))
def test_each_module_defines_exactly_the_names_of_its_readme_bullet(name):
    # Every public function and class the module defines, and its
    # documented constants, and nothing else.
    module = importlib.import_module(f"svbell.{name}")
    documented = _readme_library_bullets()[name]
    constants = {entry for entry in documented if not callable(getattr(module, entry))}
    assert sorted(_public_definitions(module) | constants) == sorted(documented)


def test_every_documented_function_and_class_has_a_docstring():
    for module, names in _readme_library_bullets().items():
        for name in names:
            value = getattr(importlib.import_module(f"svbell.{module}"), name)
            if inspect.isfunction(value) or inspect.isclass(value):
                assert inspect.getdoc(value), (module, name)


def test_each_top_level_name_is_its_module_object():
    home = {name: module for module, names in _readme_library_bullets().items() for name in names}
    for name in svbell.__all__:
        module = importlib.import_module(f"svbell.{home[name]}")
        assert getattr(svbell, name) is getattr(module, name)


def test_chain_imports_nothing_from_sv_and_only_sv_names_its_private_parts():
    # The inequality knows nothing of the state; the kept pair's format and
    # the gain limit are known to sv alone.
    private = {"_lossless_pair", "_check_gain", "_MAX_GAIN"}
    for path in sorted(Path(svbell.__file__).parent.glob("*.py")):
        names = set()  # every name, attribute, imported name and imported module in the file
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.name for alias in node.names} | {getattr(node, "module", None)}
        if path.name == "chain.py":
            assert not {"sv", "svbell.sv"} & names
        if path.name != "sv.py":
            assert not private & names, path.name


def test_no_module_names_numpy_random():
    # Every draw comes from a seeded random.Random, on any numpy.
    for path in sorted(Path(svbell.__file__).parent.glob("*.py")):
        names = set()  # every dotted attribute and imported name in the file
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names.add(ast.unparse(node))
            elif isinstance(node, ast.Import):
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names |= {f"{node.module}.{alias.name}" for alias in node.names}
        assert not [n for n in names if n.split(".")[:2] in (["np", "random"], ["numpy", "random"])], path.name


def test_import_svbell_loads_neither_the_oracle_nor_the_local_bound():
    env = dict(os.environ, PYTHONPATH=str(Path(svbell.__file__).parents[1]))
    probe = "import sys, svbell; print([m for m in sys.modules if m in ('svbell.oracle', 'svbell.lhv')])"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, encoding="utf-8", check=True
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.filterwarnings("error")
def test_readme_library_example_runs_and_its_component_sum_is_the_bell_value():
    block = _readme_library_example()
    namespace: dict = {}
    sums = []
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            value = eval(source, namespace)
            if source.startswith("sum("):
                sums.append(value)
        else:
            exec(source, namespace)
    assert len(sums) == 1
    assert abs(sums[0] - namespace["result"].bell) <= 1e-12
