"""The analysis has one way in, ``classify``: no module that reads it
imports a private name from ``foliations.classify``, nor the module itself,
through which it could reach one."""

import ast
from pathlib import Path

import pytest

import foliations

SRC = Path(foliations.__file__).parent


def _from_classify(tree: ast.Module) -> list[str]:
    """The names an ``import`` statement takes from ``foliations.classify``,
    and "<module>" for each that takes the module itself."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            if module in (".classify", "foliations.classify"):
                names += [alias.name for alias in node.names]
            elif module in (".", "foliations"):
                names += ["<module>" for alias in node.names if alias.name == "classify"]
        elif isinstance(node, ast.Import):
            names += ["<module>" for alias in node.names if alias.name == "foliations.classify"]
    return names


@pytest.mark.parametrize("module", ["determine", "cli"])
def test_readers_of_the_analysis_import_only_public_names_from_classify(module):
    names = _from_classify(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8")))
    assert "classify" in names  # the test still sees the import it guards
    assert [n for n in names if n.startswith("_") or n == "<module>"] == []


def test_the_import_scan_sees_private_names_and_module_imports():
    private = "from .classify import _Analysis, classify\nfrom foliations.classify import _rao_from\n"
    assert _from_classify(ast.parse(private)) == ["_Analysis", "classify", "_rao_from"]
    whole = "from . import classify\nimport foliations.classify\n"
    assert _from_classify(ast.parse(whole)) == ["<module>", "<module>"]
