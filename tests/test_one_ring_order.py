"""A ring is its number of variables: every ring is ordered by grevlex with
the last variable cheapest, so ``PolyRing`` has no order field, and the
package has no second order and no affine forms to homogenize."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil

import foliations
from foliations.rings import PolyRing

REMOVED = {"LEX", "GREVLEX", "AffineOneForm", "projectivize", "homogenize", "variables_used"}


def _identifiers(module) -> set[str]:
    """Every name the module's source defines, imports or reads."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


def test_a_ring_is_its_number_of_variables():
    assert [f.name for f in dataclasses.fields(PolyRing)] == ["num_vars"]
    assert PolyRing(4) == PolyRing(4) and PolyRing(3) != PolyRing(4)


def test_no_module_names_a_second_order_or_affine_forms():
    modules = [foliations] + [
        importlib.import_module(f"foliations.{info.name}")
        for info in pkgutil.iter_modules(foliations.__path__)
    ]
    seen = set()
    for module in modules:
        names = _identifiers(module)
        assert not names & REMOVED, (module.__name__, names & REMOVED)
        seen |= names
    # the scan reached the rings, the constructors and the saturation
    assert {"PolyRing", "exp_key", "exceptional_form", "validate", "saturate"} <= seen
