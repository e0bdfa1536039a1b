"""The saturation lines and the determination certificate read the loop's
integral Groebner basis (``Ideal.basis``): neither ``determine`` nor
``saturation`` calls ``interreduce``, the monic interreduction behind
``Ideal.groebner_basis`` and ``reduced_groebner_basis``, which only
``ideal_equal`` and the ``gb`` and ``sat`` commands need."""

import ast
import inspect

import foliations.determine as determine
import foliations.groebner as groebner
import foliations.saturation as saturation
from foliations.forms import singular_ideal


def _names(module) -> set[str]:
    """Every name and attribute the module's source reads."""
    tree = ast.parse(inspect.getsource(module))
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
    }


def test_no_reduced_basis_in_determine_or_saturation():
    for module in (determine, saturation):
        names = _names(module)
        for banned in ("interreduce", "reduced_groebner_basis", "module_groebner"):
            assert banned not in names, (module.__name__, banned)
        assert "Ideal" in names, module.__name__  # the scan sees the source
    assert "groebner_basis" not in _names(determine)


def test_certificate_and_moved_lines_take_no_reduced_basis(corpus, distribution_d2, monkeypatch):
    lines = []
    real = saturation._changes

    def recorded(I):
        for moved, back in real(I):
            lines.append(moved)
            yield moved, back

    def refused(*args):
        raise AssertionError("a reduced Groebner basis was computed")

    monkeypatch.setattr(groebner, "interreduce", refused)
    monkeypatch.setattr(saturation, "_changes", recorded)
    # exceptional-d2 is decided by the certificate
    verdict = determine.is_determined_by_singular_scheme(dict(corpus)["exceptional-d2"])
    assert verdict.kind == "unique"
    # z3 fails on this unsaturated I, and z0, t = 1 and t = 2 are read
    I = singular_ideal(distribution_d2)
    S = saturation.saturate(I)
    assert S is not I and len(lines) == 4 and lines[0] is I
