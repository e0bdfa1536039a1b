"""Coefficient types: exact ``int | Fraction`` everywhere, integers where possible.

Coefficients are stored as ``int`` when integral, and ``int / int`` is a
float, so every quotient must go through ``Fraction``.  These tests walk the
outputs of each corpus form (a float coefficient would be refused where it
is stored, or show here), check that an integral run of the Buchberger
loop never leaves the integers, and check that a held basis is not
re-inspected on every membership test.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import foliations.modules as modules
from foliations.classify import classify
from foliations.determine import (
    _family,
    constant_syzygy_space,
    integrable_members,
    is_determined_by_singular_scheme,
    linear_syzygy_space,
)
from foliations.forms import singular_ideal
from foliations.modules import minimal_syzygies, syzygy_generators
from foliations.resolutions import free_resolution
from foliations.rings import PolyRing
from foliations.saturation import saturate
from .conftest import build_corpus

R = PolyRing(4)
Z = R.variables()


def _coefficients(polys):
    for p in polys:
        for _, c in p.terms:
            yield c


def _assert_exact(polys, what: str) -> None:
    for c in _coefficients(polys):
        assert type(c) in (int, Fraction), f"{what}: coefficient {c!r} of type {type(c).__name__}"


def _assert_stored_as_int_when_integral(polys, what: str) -> None:
    for c in _coefficients(polys):
        assert type(c) is int or c.denominator != 1, f"{what}: integral coefficient {c!r}"


@pytest.mark.parametrize("name,form", build_corpus(), ids=[n for n, _ in build_corpus()])
def test_outputs_hold_exact_coefficients(name, form):
    I = singular_ideal(form)
    _assert_exact(I.groebner_basis(), "reduced basis")
    sat = saturate(I)
    _assert_exact(sat.generators, "saturation")
    res = free_resolution(sat)
    _assert_exact([p for m in res.matrices for v in m for p in v], "resolution maps")
    syz = syzygy_generators([(f,) for f in form.coefficients], form.ring)
    _assert_exact([p for u in syz for p in u], "syzygy generators")
    for what, entries in (
        ("linear syzygy matrices", [x for m in linear_syzygy_space(form) for row in m for x in row]),
        ("constant syzygies", [x for v in constant_syzygy_space(form) for x in v]),
    ):
        for x in entries:
            assert type(x) is int or type(x) is Fraction and x.denominator != 1, f"{what}: {x!r}"
    if not classify(form).is_split:
        return
    family = _family(form)
    _assert_exact([p for t in family.member_tuples for p in t], "family member tuples")
    _assert_stored_as_int_when_integral(
        [p for t in family.member_tuples for p in t], "family member tuples"
    )
    outcome = integrable_members(family)
    _assert_exact([p for _, f in outcome.members for p in f.coefficients], "family members")
    verdict = is_determined_by_singular_scheme(form)
    if verdict.witness is not None:
        _assert_exact(verdict.witness.coefficients, "witness")
        _assert_stored_as_int_when_integral(verdict.witness.coefficients, "witness")


def _integral_input():
    return [
        (Z[0] * Z[1] - 2 * Z[2] ** 2,),
        (3 * Z[1] ** 2 + Z[0] * Z[3],),
        (5 * Z[2] * Z[3] - 4 * Z[0] ** 2,),
        (Z[0] * Z[2] + 7 * Z[3] ** 2,),
    ]


def test_integral_run_stays_integral(monkeypatch):
    gens = _integral_input()
    reps_seen = []
    real_replay = modules._replay

    def recording(*args):
        out = real_replay(*args)
        reps_seen.append(out)
        return out

    monkeypatch.setattr(modules, "_replay", recording)
    basis, syzygies, _, leads = modules._buchberger(gens, R, track=True)
    assert basis and syzygies and reps_seen
    for what, vectors in (("basis", basis), ("syzygies", syzygies)):
        for c in _coefficients(p for v in vectors for p in v):
            assert type(c) is int, f"{what}: {c!r}"
    for c in (c for rep in reps_seen for _, c in rep):
        assert type(c) is int, f"reps: {c!r}"
    assert all(type(c) is int and c > 0 for _, _, c in leads)
    marks = [((0, 0, 0, 0), 0)]
    _, resolved, held, _ = minimal_syzygies(gens, R, marks)
    for c in _coefficients(p for u in resolved + held for p in u):
        assert type(c) is int


def test_integral_sums_and_multiples_are_stored_as_int():
    half = Z[0].scale(Fraction(1, 2))
    for p in (half.scale(2), half + half, half.scale(3) - half):
        _assert_stored_as_int_when_integral([p], "integral coefficient")
        assert p == Z[0]
    # products: by a term, and the general case through one coefficient dict
    twice = (Z[1] + Z[2]).scale(2)
    for p, expected in (
        (half.mul_term((0, 1, 0, 0), 2), Z[0] * Z[1]),
        (half * twice, Z[0] * (Z[1] + Z[2])),
        ((half + Z[3].scale(Fraction(1, 2))) * twice, (Z[0] + Z[3]) * (Z[1] + Z[2])),
    ):
        _assert_stored_as_int_when_integral([p], "integral product")
        assert p == expected
