"""Tests of the benchmark's independent checks.

    python3 -m pytest -q bench/test_checks.py

Each check must accept the true answer and reject a wrong one.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
import workloads  # noqa: E402

NAMED = workloads.named_forms()


def coefficients(name: str) -> list[dict]:
    return [dict(f.terms) for f in NAMED[name].coefficients]


def to_terms(expr) -> dict:
    return {
        m: Fraction(int(c.p), int(c.q)) for m, c in sp.Poly(sp.expand(expr), *checks.Z).terms()
    }


def test_betti_prediction_matches_known_tables():
    assert checks.predicted_betti(0, 0, 2) == {(0, 0): 1, (1, 3): 4, (2, 4): 3}
    assert checks.predicted_betti(-1, 1, 2) == {(0, 0): 1, (1, 3): 3, (2, 4): 1, (2, 5): 1}
    assert checks.predicted_betti(1, 1, 0) == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_wrong_betti_entry_is_rejected():
    betti = checks.predicted_betti(-1, 0, 3)
    checks.check_betti_of_split(betti, (-1, 0), 3)
    wrong = dict(betti)
    wrong[(2, 6)] += 1
    with pytest.raises(checks.CheckFailed):
        checks.check_betti_of_split(wrong, (-1, 0), 3)
    saturation = [dict(f.terms) for f in NAMED["exceptional-d2"].coefficients]
    checks.check_betti_against_hilbert(betti, saturation)
    with pytest.raises(checks.CheckFailed):
        checks.check_betti_against_hilbert(wrong, saturation)


@pytest.mark.parametrize("stype, d", [((1, -1), 2), ((0, -1), 3), ((-2, 1), 3)])
def test_swapped_or_wrong_type_is_rejected(stype, d):
    true_type = {2: (-1, 1), 3: (-1, 0)}[d]
    betti = checks.predicted_betti(*true_type, d)
    with pytest.raises(checks.CheckFailed):
        checks.check_betti_of_split(betti, stype, d)


def test_pullback_type():
    checks.check_pullback_type(True, (-2, 1), 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_pullback_type(True, (1, -2), 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_pullback_type(False, None, 2)


def test_admissible_types():
    assert checks.admissible_types(0) == [(1, 1)]
    assert checks.admissible_types(2) == [(-1, 1), (0, 0)]
    assert checks.admissible_types(3) == [(-2, 1), (-1, 0)]


@pytest.mark.parametrize("name", ["L112", "L113"])
def test_not_split_accepted_for_non_curves(name):
    checks.check_not_split(True, None, coefficients(name), NAMED[name].degree)
    with pytest.raises(checks.CheckFailed):
        checks.check_not_split(True, (0, 0), coefficients(name), NAMED[name].degree)


@pytest.mark.parametrize("name", ["L1111", "pullback-d2"])
def test_not_split_rejected_for_split_forms(name):
    with pytest.raises(checks.CheckFailed):
        checks.check_not_split(True, None, coefficients(name), NAMED[name].degree)


def test_singular_ideal_and_saturation():
    from foliations.forms import singular_ideal
    from foliations.saturation import saturate

    I = singular_ideal(NAMED["L112"])
    gb = [dict(g.terms) for g in I.groebner_basis()]
    sat = [dict(g.terms) for g in saturate(I).generators]
    checks.check_singular_ideal(coefficients("L112"), gb)
    checks.check_saturation(coefficients("L112"), sat)
    with pytest.raises(checks.CheckFailed):
        checks.check_singular_ideal(coefficients("L112"), gb[:-1])
    with pytest.raises(checks.CheckFailed):
        checks.check_saturation(coefficients("L112"), [{(0, 0, 0, 1): Fraction(1)}])


def test_witness_accepted_and_perturbed_witness_rejected():
    from foliations.determine import is_determined_by_singular_scheme

    verdict = is_determined_by_singular_scheme(NAMED["L1111"])
    assert verdict.kind == "non-unique"
    witness = [dict(g.terms) for g in verdict.witness.coefficients]
    checks.check_non_unique(coefficients("L1111"), witness)
    perturbed = [dict(g) for g in witness]
    exponent, c = next(iter(perturbed[0].items()))
    perturbed[0][exponent] = c + 1
    with pytest.raises(checks.CheckFailed):
        checks.check_non_unique(coefficients("L1111"), perturbed)


def test_non_unique_rejected_for_exceptional_d2():
    base = coefficients("exceptional-d2")
    with pytest.raises(checks.CheckFailed):
        checks.check_non_unique(base, None)
    scaled = [{e: 2 * c for e, c in f.items()} for f in base]
    with pytest.raises(checks.CheckFailed):
        checks.check_non_unique(base, scaled)
    F = [checks.to_expr(f) for f in base]
    mats = checks.linear_syzygy_matrices(F)
    assert len(mats) == 2
    member = [to_terms(g) for g in (mats[0] + mats[1]) * sp.Matrix(F)]
    with pytest.raises(checks.CheckFailed):
        checks.check_non_unique(base, member)
    checks.check_unique(base, NAMED["exceptional-d2"].degree)


def test_unique_accepted_for_l1112_and_rejected_for_l1111():
    checks.check_unique(coefficients("L1112"), NAMED["L1112"].degree)
    with pytest.raises(checks.CheckFailed):
        checks.check_unique(coefficients("L1111"), NAMED["L1111"].degree)


def test_unique_pullback_needs_degree_other_than_one():
    checks.check_unique(coefficients("pullback-d2"), 2)
    with pytest.raises(checks.CheckFailed):
        checks.check_unique(coefficients("pullback-d1"), 1)


def _monomials(exponents) -> list[dict]:
    return [{tuple(e): Fraction(1)} for e in exponents]


def test_partial_saturation_rejected():
    """J must be all of I^sat, not a part of it.

    Every form of the workloads has a saturated singular ideal, so these
    ideals are built to have one that is not.
    """
    z = checks.Z
    unit = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    # the contact form z1 dz0 - z0 dz1 + z3 dz2 - z2 dz3: I = m, I^sat = R
    contact = [to_terms(f) for f in (z[1], -z[0], z[3], -z[2])]
    checks.check_saturation(contact, _monomials([(0, 0, 0, 0)]))
    with pytest.raises(checks.CheckFailed):
        checks.check_saturation(contact, contact)
    # I = z0 m^2, I^sat = (z0); J = z0 m is only partly saturated
    z0 = unit[0]
    z0_m2 = _monomials(
        [tuple(a + b + c for a, b, c in zip(z0, u, v)) for u in unit for v in unit]
    )
    z0_m = _monomials([tuple(a + b for a, b in zip(z0, u)) for u in unit])
    checks.check_saturation(z0_m2, _monomials([z0]))
    for partial in (z0_m2, z0_m):
        with pytest.raises(checks.CheckFailed):
            checks.check_saturation(z0_m2, partial)
