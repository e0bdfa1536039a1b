"""Syzygy families, the integrability system, and determination verdicts."""

from fractions import Fraction

import pytest

from foliations.determine import (
    DistributionFamily,
    SingularMatrix,
    _scan_candidates,
    constant_syzygy_space,
    distribution_family,
    integrability_system,
    integrable_members,
    is_determined_by_singular_scheme,
    linear_syzygy_space,
)
from foliations.forms import (
    ProjectiveOneForm,
    exterior_derivative,
    integrability_check,
    singular_ideal,
    wedge_1_2,
)
from foliations.groebner import ideal_equal
from foliations.linalg import rank
from foliations.resolutions import free_resolution
from foliations.rings import PolyRing
from foliations.saturation import saturate

R = PolyRing(4)
Z = R.variables()
IDENTITY = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def _matrix_at(family, alpha) -> list[list]:
    """The member matrix sum_k alpha_k M_k of the pencil."""
    return [
        [sum(a * m.entries[i][j] for a, m in zip(alpha, family.matrices)) for j in range(4)]
        for i in range(4)
    ]


# -- syzygy <-> matrix correspondence ------------------------------------------


def test_euler_maps_to_identity(l1111):
    basis = linear_syzygy_space(l1111)
    assert basis[0].to_matrix().entries == IDENTITY


def test_syzygy_matrix_round_trip(l1111):
    for syz in linear_syzygy_space(l1111):
        again = syz.to_matrix().to_syzygy(R)
        assert again.entries == syz.entries


def test_linear_dimensions(l1111, exceptional2):
    assert len(linear_syzygy_space(l1111)) == 3
    assert len(linear_syzygy_space(exceptional2)) == 2


def test_constant_syzygies(l1111, exceptional2, pullback_d2):
    assert constant_syzygy_space(l1111) == []
    assert constant_syzygy_space(exceptional2) == []
    consts = constant_syzygy_space(pullback_d2)
    assert (Fraction(1), Fraction(0), Fraction(0), Fraction(0)) in [tuple(v) for v in consts]


# -- matrix action, through the members of the family -----------------------------


def test_identity_matrix_returns_same_form(l1111):
    family = distribution_family(l1111)
    assert _matrix_at(family, (1, 0, 0)) == [list(row) for row in IDENTITY]
    assert family.member_form((1, 0, 0)) == l1111


def test_scalar_matrix_scales(l1111):
    family = distribution_family(l1111)
    out = family.member_form((5, 0, 0))
    assert out.is_proportional_to(l1111)


def test_singular_matrix_rejected(l1111):
    family = distribution_family(l1111)
    with pytest.raises(SingularMatrix):
        family.member_form((0, 0, 0))


def test_member_needs_one_coordinate_per_parameter(l1111):
    family = distribution_family(l1111)
    for alpha in [(1, 1), (1, 1, 0, 5, 7)]:
        for method in (family.member_coefficients, family.member_form):
            with pytest.raises(ValueError, match="coordinates"):
                method(alpha)


def test_degenerate_locus_is_where_the_matrix_is_singular(corpus):
    forms = dict(corpus)
    for name in ("L1111", "exceptional-d2", "L1112", "pullback-d1"):
        family = distribution_family(forms[name])
        for alpha in _scan_candidates(family.parameter_dim):
            singular = rank(_matrix_at(family, alpha)) < 4
            assert (family.degenerate_locus.evaluate(alpha) == 0) == singular
            try:
                family.member_form(alpha)
                rejected = False
            except SingularMatrix:
                rejected = True
            assert rejected == singular, (name, alpha)


def test_nonzero_singular_member_rejected(l1111):
    family = distribution_family(l1111)
    alpha = (0, 0, 1)
    matrix = _matrix_at(family, alpha)
    assert any(any(row) for row in matrix) and rank(matrix) < 4
    assert family.degenerate_locus.evaluate(alpha) == 0
    with pytest.raises(SingularMatrix):
        family.member_form(alpha)


def test_family_members_share_singular_ideal(l1111):
    family = distribution_family(l1111)
    base_sat = saturate(singular_ideal(l1111))
    for alpha in [(1, 1, 0), (1, 0, 1), (2, 1, 1)]:
        member = family.member_form(alpha)
        assert ideal_equal(saturate(singular_ideal(member)), base_sat)


# -- families and the quadratic system --------------------------------------------


def test_exceptional_family(exceptional2):
    family = distribution_family(exceptional2)
    assert family.parameter_dim == 2
    # the non-Euler direction is the paper's second generator; acting on the
    # coefficients it produces a non-integrable distribution
    omega1 = family.member_tuples[1]
    fake = ProjectiveOneForm(R, omega1, exceptional2.degree)
    assert not wedge_1_2(omega1, exterior_derivative(fake)).is_zero()
    system = integrability_system(family)
    assert system
    outcome = integrable_members(family)
    assert outcome.kind == "finite" and outcome.complete
    assert len(outcome.members) == 1


def test_l1111_family_all_integrable(l1111):
    family = distribution_family(l1111)
    assert family.parameter_dim == 3
    assert integrability_system(family) == []
    outcome = integrable_members(family)
    assert outcome.kind == "positive"
    assert len(outcome.non_base_members(l1111)) >= 2


def test_single_parameter_family_is_trivial(l1111):
    # a one-dimensional sub-family {lambda * omega}: the system vanishes
    full = distribution_family(l1111)
    sub = DistributionFamily(
        base=full.base,
        syzygy_basis=full.syzygy_basis[:1],
        matrices=full.matrices[:1],
        parameter_ring=PolyRing(1),
        member_tuples=full.member_tuples[:1],
        degenerate_locus=PolyRing(1).variable(0) ** 4,
    )
    assert integrability_system(sub) == []
    outcome = integrable_members(sub)
    assert outcome.kind == "finite" and outcome.complete and len(outcome.members) == 1


def test_pullback_d1_family_positive_dimensional(pullback_d1):
    family = distribution_family(pullback_d1)
    outcome = integrable_members(family)
    assert outcome.kind == "positive"
    witnesses = outcome.non_base_members(pullback_d1)
    assert len(witnesses) >= 2 or (
        len(witnesses) >= 1 and len(outcome.members) >= 3
    )


# -- determination ------------------------------------------------------------------


def test_l1111_non_unique_with_explicit_witness(l1111, l1111_alt):
    verdict = is_determined_by_singular_scheme(l1111)
    assert verdict.kind == "non-unique"
    w = verdict.witness
    assert w is not None
    assert integrability_check(w)
    assert not w.is_proportional_to(l1111)
    assert ideal_equal(
        saturate(singular_ideal(w)), saturate(singular_ideal(l1111))
    )
    # the named second foliation: same linear forms, weights (1,-1,1,-1)
    assert ideal_equal(
        saturate(singular_ideal(l1111_alt)), saturate(singular_ideal(l1111))
    )
    assert not l1111_alt.is_proportional_to(l1111)


def test_determination_analyses_the_form_once(l1111, monkeypatch):
    import foliations.classify as classify_mod
    import foliations.determine as determine_mod

    analyses = []
    real_of = classify_mod._Analysis.of.__func__

    def counted_of(cls, form, budget=None):
        analyses.append(form)
        return real_of(cls, form, budget)

    base = singular_ideal(l1111).generators
    resolved, saturated = [], []

    def counted_resolution(I, *args, **kwargs):
        resolved.append(I.generators == base)
        return free_resolution(I, *args, **kwargs)

    def counted_saturate(I, *args, **kwargs):
        saturated.append(I.generators == base)
        return saturate(I, *args, **kwargs)

    monkeypatch.setattr(classify_mod._Analysis, "of", classmethod(counted_of))
    monkeypatch.setattr(classify_mod, "free_resolution", counted_resolution)
    monkeypatch.setattr(classify_mod, "saturate", counted_saturate)
    monkeypatch.setattr(determine_mod, "saturate", counted_saturate)
    verdict = is_determined_by_singular_scheme(l1111)
    assert verdict.kind == "non-unique"
    assert analyses == [l1111]
    # the base ideal is saturated, which its resolution of length 2 shows
    assert resolved.count(True) == 1
    assert saturated.count(True) == 0


def test_exceptional_unique(exceptional2):
    verdict = is_determined_by_singular_scheme(exceptional2)
    assert verdict.kind == "unique"


def test_pullback_d2_unique(pullback_d2):
    verdict = is_determined_by_singular_scheme(pullback_d2)
    assert verdict.kind == "unique"
    assert "pull-back" in verdict.route


def test_pencil_unique(pencil):
    assert is_determined_by_singular_scheme(pencil).kind == "unique"


def test_pullback_d1_non_unique(pullback_d1):
    verdict = is_determined_by_singular_scheme(pullback_d1)
    assert verdict.kind == "non-unique"


def test_determination_requires_split(l112):
    with pytest.raises(ValueError):
        is_determined_by_singular_scheme(l112)

