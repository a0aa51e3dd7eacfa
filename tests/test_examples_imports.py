"""Every ``repro`` name an example imports still exists.

No test runs the examples (they train for seconds to minutes), so a
library deletion could break one silently; this reads their imports
without running them.
"""

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def repro_imports(path: Path):
    """``(module, name)`` for each ``from repro... import name`` and
    ``(module, None)`` for each ``import repro...`` in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "repro":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_resolve(path):
    imports = list(repro_imports(path))
    assert imports, f"{path.name} imports nothing from repro"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is None or hasattr(module, name):
            continue
        try:  # ``from repro.nn import functional`` may name a submodule
            importlib.import_module(f"{module_name}.{name}")
        except ModuleNotFoundError:
            pytest.fail(f"{path.name}: {module_name} has no {name!r}")
