"""Syzygy families, the integrability system, and determination verdicts."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from foliations.classify import _Analysis, _report_from, saturated_resolution
from foliations.determine import (
    DistributionFamily,
    SingularMatrix,
    _same_span,
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
from foliations.groebner import Ideal, ideal_equal
from foliations.linalg import rank
from foliations.resolutions import free_resolution
from foliations.rings import PolyRing
from foliations.saturation import saturate

from .conftest import build_corpus, build_determination_forms, build_larger_split_forms, seeded

DETERMINATIONS = Path(__file__).parent / "data" / "determinations.json"
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


def _system_over_q(family) -> list:
    """The integrability system expanded on the members' own rational tuples."""
    ring, pring = family.base.ring, family.parameter_ring
    tuples = family.member_tuples
    derivs = [exterior_derivative(ProjectiveOneForm(ring, t, family.base.degree)) for t in tuples]
    collected: dict = {}
    for k in range(len(tuples)):
        for j in range(k, len(tuples)):
            three = wedge_1_2(tuples[k], derivs[j]).entries
            if j > k:
                other = wedge_1_2(tuples[j], derivs[k]).entries
                zero = ring.zero()
                three = {t: three.get(t, zero) + other.get(t, zero) for t in set(three) | set(other)}
            for triple, poly in three.items():
                for e, c in poly.terms:
                    exps = [0] * pring.num_vars
                    exps[k] += 1
                    exps[j] += 1
                    collected.setdefault((triple, e), {})[tuple(exps)] = c
    return [pring.from_dict(d).primitive() for d in collected.values() if any(d.values())]


def test_integral_system_is_the_rational_one():
    # the system is expanded on integral multiples of the member tuples
    rational = []
    for seed in (0, 1, 3):
        for name, form in build_determination_forms():
            form = seeded(name, form, seed)
            if not _report_from(_Analysis.of(form)).is_split:
                continue
            family = distribution_family(form)
            if family.parameter_dim < 2:
                continue
            coefficients = [c for t in family.member_tuples for f in t for _, c in f.terms]
            if any(type(c) is Fraction for c in coefficients):
                rational.append((name, seed))
            expected = list(dict.fromkeys(_system_over_q(family)))
            assert integrability_system(family) == expected, (name, seed)
    assert ("L22", 3) in rational
    # members with true fractions, whose products are divided after
    family = distribution_family(dict(build_corpus())["exceptional-d2"])
    scales = (Fraction(1, 2), Fraction(-2, 3))
    family.member_tuples = [
        tuple(f.scale(s) for f in t) for s, t in zip(scales, family.member_tuples)
    ]
    system = integrability_system(family)
    assert system and system == list(dict.fromkeys(_system_over_q(family)))


def test_integrability_check_of_a_rational_multiple(l1111, l112):
    for form in (l1111, l112):
        assert integrability_check(form.scale(Fraction(-2, 3))) == integrability_check(form)
    half = Fraction(1, 2)
    contact = ProjectiveOneForm(R, (Z[1] * half, Z[0] * -half, Z[3] * half, Z[2] * -half), 0)
    assert not integrability_check(contact)


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


def test_determination_checks_each_member_once_and_resolves_no_witness(monkeypatch):
    import foliations.classify as classify_mod
    import foliations.determine as determine_mod

    checks, resolutions, members = [], [], []
    real_check, real_members = determine_mod.integrability_check, determine_mod.integrable_members

    def counted_check(form):
        checks.append(form)
        return real_check(form)

    def counted_resolution(I, *args, **kwargs):
        resolutions.append(I)
        return free_resolution(I, *args, **kwargs)

    def counted_members(family, budget=None):
        outcome = real_members(family, budget)
        members.extend(outcome.members)
        return outcome

    monkeypatch.setattr(determine_mod, "integrability_check", counted_check)
    monkeypatch.setattr(determine_mod, "integrable_members", counted_members)
    monkeypatch.setattr(classify_mod, "free_resolution", counted_resolution)
    for name, form in build_determination_forms():
        for log in (checks, resolutions, members):
            log.clear()
        verdict = is_determined_by_singular_scheme(form)
        # the base's check in the system counts for the base member
        assert len(checks) <= len(members) + (verdict.witness is not None), name
        # the form's own resolution: a witness is certified by its span, not resolved
        assert len(resolutions) == 1, name


# -- the witness certificate ------------------------------------------------------------


def test_same_span_accepts_scaled_and_reordered_generators(l1111):
    F = l1111.coefficients
    moved = (F[2].scale(Fraction(-3, 2)), F[0] + F[3], F[1].scale(7), F[3], F[0])
    assert _same_span(F, moved) and _same_span(moved, F)
    assert _same_span(F, tuple(reversed(F)))


def test_same_span_of_the_named_second_foliation(l1111, l1111_alt):
    # F_i = lambda_i * prod_{j != i} z_j: both ideals are those of the four cubic monomials
    assert _same_span(l1111.coefficients, l1111_alt.coefficients)


def test_same_span_rejects_a_different_ideal(l1111, l112):
    F = l1111.coefficients
    assert not _same_span(F, l112.coefficients)
    assert not _same_span(F, F[:3]) and not _same_span(F[:3], F)
    assert not _same_span(F, (F[0], F[1], F[2], F[3] + Z[3] ** 3))
    l22 = dict(build_larger_split_forms())["L22"]
    assert l22.degree == l1111.degree and not _same_span(F, l22.coefficients)


@pytest.mark.parametrize("seed", [0, 1])
def test_witnesses_pass_the_resolution_check_they_replace(seed):
    # the witness check that the span certificate replaced, kept as an oracle
    checked = []
    for name, form in build_corpus() + build_larger_split_forms():
        form = seeded(name, form, seed)
        analysis = _Analysis.of(form)
        if not _report_from(analysis).is_split:
            continue
        verdict = is_determined_by_singular_scheme(form)
        if verdict.kind != "non-unique":
            continue
        w = verdict.witness
        w_sat, _ = saturated_resolution(Ideal(w.ring, w.coefficients))
        assert ideal_equal(w_sat, analysis.saturation), (name, seed)
        checked.append(name)
    assert checked == ["pullback-d1", "cone-L111", "L1111", "L1111-alt", "L1111-generic", "L22"]


@pytest.mark.parametrize("seed", ["0", "1"])
def test_pinned_determinations_of_the_larger_forms(seed):
    pinned = json.loads(DETERMINATIONS.read_text())[seed]
    for name, form in build_larger_split_forms():
        verdict = is_determined_by_singular_scheme(seeded(name, form, int(seed)))
        got = {
            "kind": verdict.kind,
            "route": verdict.route,
            "witness": None if verdict.witness is None else [str(g) for g in verdict.witness.coefficients],
        }
        assert got == pinned[name], name
