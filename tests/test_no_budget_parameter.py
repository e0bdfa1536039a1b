"""The work limit is one pair budget, entered as a context: no function,
method or class of ``src/foliations`` takes a ``budget`` parameter, and one
``ContextVar`` (``modules._pair_budget``) holds the budget."""

import importlib
import inspect
import pkgutil
from contextvars import ContextVar

import foliations


def _modules():
    for info in pkgutil.iter_modules(foliations.__path__):
        yield importlib.import_module(f"foliations.{info.name}")


def _callables():
    """(qualified name, object) for every function, method and class the
    package defines at module or class level."""
    for module in _modules():
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__ or not callable(obj):
                continue
            yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if callable(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_function_takes_a_budget():
    seen = []
    for name, obj in _callables():
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # a builtin without a signature
            continue
        seen.append(name)
        assert "budget" not in parameters, name
    # the walk reached the engine, its private loop and the methods
    assert {
        "foliations.modules._buchberger",
        "foliations.groebner.Ideal.groebner_basis",
        "foliations.classify._Analysis.of",
        "foliations.cli._classify_file",
    } <= set(seen)


def test_one_context_variable_holds_the_budget():
    holders = [
        f"{module.__name__}.{name}"
        for module in _modules()
        for name, obj in vars(module).items()
        if isinstance(obj, ContextVar)
    ]
    assert holders == ["foliations.modules._pair_budget"]
