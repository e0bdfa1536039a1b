"""Syzygy families, the integrability system, and determination verdicts."""

import json
import sys
from fractions import Fraction
from functools import cache, partial
from math import lcm
from pathlib import Path
from random import Random

import pytest

import foliations.determine as determine
from foliations.classify import _Analysis, classify, saturated_resolution
from foliations.determine import (
    _LINE,
    DistributionFamily,
    _combination,
    _only_degenerate_or_base,
    _poly_det,
    _same_span,
    _walk,
    constant_syzygy_space,
    distribution_family,
    integrability_system,
    integrable_members,
    is_determined_by_singular_scheme,
    linear_syzygy_space,
)
from foliations.forms import (
    ProjectiveOneForm,
    exceptional_form,
    integrability_check,
    proportional,
    singular_ideal,
    validate,
)
from foliations.groebner import Ideal, ideal_equal
from foliations.linalg import rank
from foliations.modules import InternalInconsistency, pair_budget
from foliations.resolutions import free_resolution
from foliations.rings import PolyRing, Polynomial
from foliations.saturation import saturate

from .conftest import (
    build_corpus,
    build_determination_forms,
    build_larger_split_forms,
    exterior_derivative,
    integrability_system_oracle,
    random_homogeneous,
    random_rational,
    seeded,
    syzygy_dimension,
    wedge_1_2,
)

DETERMINATIONS = Path(__file__).parent / "data" / "determinations.json"
BENCH = Path(__file__).resolve().parent.parent / "bench"
CERTIFIED = "every integrable member is degenerate or a multiple of the base"
R = PolyRing(4)
Z = R.variables()
IDENTITY = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


class SingularMatrix(ValueError):
    pass


def _member_form(family, alpha) -> ProjectiveOneForm:
    """The validated member at alpha, refused in the degenerate locus (the pencil's determinant)."""
    coefficients = family.member_coefficients(alpha)
    if family.degenerate_locus.evaluate(alpha) == 0:
        raise SingularMatrix(f"parameter {alpha} lies in the degenerate locus")
    return validate(coefficients)


def _walk_points(p: int) -> list[tuple]:
    """The points ``_walk`` tries, in its order: e_k, then e_0 + v*e_k."""
    return [
        tuple(Fraction(a * (i == 0) + b * (i == k), a or 1) for i in range(p))
        for k in range(1, p)
        for a, b in _LINE
    ]


def _matrix_at(family, alpha) -> list[list]:
    """The member matrix sum_k alpha_k M_k of the pencil."""
    return [
        [sum(a * m[i][j] for a, m in zip(alpha, family.matrices)) for j in range(4)]
        for i in range(4)
    ]


# -- the syzygy spaces: linear syzygies as 4x4 matrices -------------------------


def test_euler_maps_to_identity(l1111):
    basis = linear_syzygy_space(l1111)
    assert basis[0] == IDENTITY


def test_syzygy_matrix_round_trip(l1111):
    # the linear forms l_j = sum_i M_ij z_i, as ``cli syzygies`` renders them,
    # give back the matrix M coefficient by coefficient
    F = l1111.coefficients
    for m in linear_syzygy_space(l1111):
        ell = [_combination(column, Z) for column in zip(*m)]
        assert sum((ell[j] * F[j] for j in range(4)), R.zero()).is_zero()
        unit = [tuple(int(k == i) for k in range(4)) for i in range(4)]
        again = tuple(tuple(dict(ell[j].terms).get(unit[i], 0) for j in range(4)) for i in range(4))
        assert again == m


def test_linear_syzygy_matrices_span_the_linear_syzygies():
    # each matrix M is a syzygy sum_j (sum_i M_ij z_i) F_j = 0, Euler first;
    # their number is the dimension the rank of the syzygy map gives
    for seed in (0, 1, 3):
        for name, form in build_determination_forms():
            form = seeded(name, form, seed)
            F = form.coefficients
            matrices = linear_syzygy_space(form)
            assert matrices[0] == IDENTITY, (name, seed)
            for m in matrices:
                ell = [sum((Z[i].scale(m[i][j]) for i in range(4)), R.zero()) for j in range(4)]
                assert sum((ell[j] * F[j] for j in range(4)), R.zero()).is_zero(), (name, seed)
            p = len(matrices)
            assert rank([[x for row in m for x in row] for m in matrices]) == p, (name, seed)
            assert p == syzygy_dimension(F, 1), (name, seed)


def test_constant_syzygies_span_the_constant_syzygies():
    for seed in (0, 1, 3):
        for name, form in build_determination_forms():
            form = seeded(name, form, seed)
            F = form.coefficients
            consts = constant_syzygy_space(form)
            for v in consts:
                assert sum((F[j].scale(v[j]) for j in range(4)), R.zero()).is_zero(), (name, seed)
            assert rank(consts) == len(consts) == syzygy_dimension(F, 0), (name, seed)


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
    assert _member_form(family, (1, 0, 0)) == l1111


def test_scalar_matrix_scales(l1111):
    family = distribution_family(l1111)
    out = _member_form(family, (5, 0, 0))
    assert proportional(out.coefficients, l1111.coefficients)


def test_singular_matrix_rejected(l1111):
    family = distribution_family(l1111)
    with pytest.raises(SingularMatrix):
        _member_form(family, (0, 0, 0))


def test_member_needs_one_coordinate_per_parameter(l1111):
    family = distribution_family(l1111)
    for alpha in [(1, 1), (1, 1, 0, 5, 7)]:
        for method in (family.member_coefficients, partial(_member_form, family)):
            with pytest.raises(ValueError, match="coordinates"):
                method(alpha)


def test_degenerate_locus_is_where_the_matrix_is_singular(corpus):
    forms = dict(corpus)
    for name in ("L1111", "exceptional-d2", "L1112", "pullback-d1"):
        family = distribution_family(forms[name])
        for alpha in _walk_points(family.parameter_dim):
            singular = rank(_matrix_at(family, alpha)) < 4
            assert (family.degenerate_locus.evaluate(alpha) == 0) == singular
            try:
                _member_form(family, alpha)
                rejected = False
            except SingularMatrix:
                rejected = True
            assert rejected == singular, (name, alpha)
    # the walk's own test, the rank of the matrix at a*e_0 + b*e_k, agrees
    # with the expanded determinant at every point it tries, on every family
    tried = degenerate = 0
    for seed in (0, 1):
        for name, form in build_determination_forms():
            form = seeded(name, form, seed)
            if not classify(form).is_split:
                continue
            family = distribution_family(form)
            p = family.parameter_dim
            for k in range(1, p):
                for a, b in _LINE:
                    point = tuple(a * (i == 0) + b * (i == k) for i in range(p))
                    on_locus = family.degenerate_locus.evaluate(point) == 0
                    assert family.is_degenerate(point) == on_locus, (name, seed, point)
                    tried += 1
                    degenerate += on_locus
    assert tried > 500 and 0 < degenerate < tried, (tried, degenerate)


def test_the_determinant_is_expanded_only_for_the_certificate(corpus, monkeypatch):
    # L1111 finds a witness on the walk, which reads no determinant;
    # exceptional-d2 has none and is certified, which expands it once
    expanded = []

    def recorded(pencil, ring):
        expanded.append(ring)
        return _poly_det(pencil, ring)

    monkeypatch.setattr(determine, "_poly_det", recorded)
    forms = dict(corpus)
    assert is_determined_by_singular_scheme(forms["L1111"]).kind == "non-unique"
    assert expanded == []
    verdict = is_determined_by_singular_scheme(forms["exceptional-d2"])
    assert (verdict.kind, verdict.route) == ("unique", CERTIFIED)
    assert len(expanded) == 1


def test_walk_tries_the_unit_lines_in_order():
    # e_k, then e_0 + v*e_k for the eight steps, each given by an integral
    # multiple a*e_0 + b*e_k on which the homogeneous zero tests run
    steps = [1, -1, 2, -2, 3, Fraction(1, 2), Fraction(1, 3), -3]
    assert all(type(x) is int for pair in _LINE for x in pair)
    assert _LINE[0] == (0, 1) and [Fraction(b, a) for a, b in _LINE[1:]] == steps
    for p in range(2, 6):
        points = _walk_points(p)
        assert len(points) == 9 * (p - 1)
        for k in range(1, p):
            unit = tuple(int(i == k) for i in range(p))
            line = [tuple(int(i == 0) + v * (i == k) for i in range(p)) for v in steps]
            assert points[9 * (k - 1) : 9 * k] == [unit] + line


def test_walk_skips_the_lines_in_l(pullback_d1, monkeypatch):
    # pullback-d1 has a zero system; e_1..e_4 give multiples of the base, so
    # every point of their lines is in L and the walk builds no member there:
    # the only member it builds is the witness e_0 + e_5 (e_5 is degenerate)
    family = distribution_family(pullback_d1)
    system = integrability_system(family)
    in_l = [proportional(t, family.base.coefficients) for t in family.member_tuples[1:]]
    assert system == [] and in_l == [True] * 4 + [False]
    built = []
    real = DistributionFamily.member_coefficients

    def counted(self, alpha):
        built.append(alpha)
        return real(self, alpha)

    monkeypatch.setattr(DistributionFamily, "member_coefficients", counted)
    (_, base), (alpha, witness) = _walk(family, 2)
    assert built == [alpha] == [(1, 0, 0, 0, 0, 1)]
    assert base is family.base and not proportional(witness.coefficients, base.coefficients)


def test_nonzero_singular_member_rejected(l1111):
    family = distribution_family(l1111)
    alpha = (0, 0, 1)
    matrix = _matrix_at(family, alpha)
    assert any(any(row) for row in matrix) and rank(matrix) < 4
    assert family.degenerate_locus.evaluate(alpha) == 0
    with pytest.raises(SingularMatrix):
        _member_form(family, alpha)


def _sympy_det(entries, syms):
    """det of the pencil with entries sum_k entries[i][j][k] * a_k, by sympy."""
    sympy = pytest.importorskip("sympy")
    linear = [[sum(sympy.Rational(c) * a for c, a in zip(entry, syms)) for entry in row] for row in entries]
    return sympy.Poly(sympy.Matrix(linear).det(method="berkowitz"), *syms, domain=sympy.QQ)


def _as_sympy(poly, syms):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly.from_dict({e: sympy.Rational(c) for e, c in poly.terms}, *syms, domain=sympy.QQ)


@pytest.mark.parametrize("seed", [0, 1])
def test_degenerate_locus_matches_sympy(seed):
    # the locus is expanded over int from the pencil with its rows scaled
    # integral; sympy expands the pencil with the Fraction entries themselves
    sympy = pytest.importorskip("sympy")
    checked = set()
    for name, _, family, _ in _split_families(seed):
        syms = sympy.symbols(f"a0:{family.parameter_dim}")
        entries = [[[m[i][j] for m in family.matrices] for j in range(4)] for i in range(4)]
        assert _as_sympy(family.degenerate_locus, syms) == _sympy_det(entries, syms), name
        checked.add(name)
        if name == "L1111-generic" and seed == 0:
            dens = [lcm(*(x.denominator for row in entries[i] for x in row)) for i in range(4)]
            assert dens == [1, 1, 5, 10]
    assert {"L1111-generic", "L1112", "exceptional-d3", "pullback-d3b"} <= checked
    assert len(checked) >= 17


def test_poly_det_matches_sympy():
    sympy = pytest.importorskip("sympy")
    # random 4x4 pencils of linear forms in 2-6 parameters, zero entries among them
    rng = Random(3)
    for trial in range(10):
        p = 2 + trial % 5
        pring, syms = PolyRing(p), sympy.symbols(f"a0:{p}")
        entries = [
            [[random_rational(rng) if rng.random() < 0.6 else 0 for _ in range(p)] for _ in range(4)]
            for _ in range(4)
        ]
        pencil = [[sum((v * c for v, c in zip(pring.variables(), e)), pring.zero()) for e in row] for row in entries]
        assert _as_sympy(_poly_det(pencil, pring), syms) == _sympy_det(entries, syms), trial


def test_family_members_share_singular_ideal(l1111):
    family = distribution_family(l1111)
    base_sat = saturate(singular_ideal(l1111))
    for alpha in [(1, 1, 0), (1, 0, 1), (2, 1, 1)]:
        member = _member_form(family, alpha)
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
    assert outcome.kind == "finite" and len(outcome.members) == 1
    assert _only_degenerate_or_base(family, system)


def _in_ring_order(system: list, pring: PolyRing) -> list:
    """The quadrics sorted by their terms, each a list of (order key, coefficient)."""
    return sorted(system, key=lambda q: [(pring.exp_key(e), c) for e, c in q.terms])


def _matches_oracle(family) -> bool:
    # the oracle meets the quadrics in the order of its sorted expansion;
    # the kernel returns them in the ring order of their terms
    expected = _in_ring_order(integrability_system_oracle(family), family.parameter_ring)
    return integrability_system(family) == expected


def test_integral_system_is_the_rational_one():
    # the system is expanded on integral multiples of the member tuples, into
    # unsorted dicts; the oracle expands the rational tuples through sorted products
    rational = []
    for seed in (0, 1, 3):
        for name, form in build_determination_forms():
            form = seeded(name, form, seed)
            if not classify(form).is_split:
                continue
            family = distribution_family(form)
            if family.parameter_dim < 2:
                continue
            coefficients = [c for t in family.member_tuples for f in t for _, c in f.terms]
            if any(type(c) is Fraction for c in coefficients):
                rational.append((name, seed))
            assert _matches_oracle(family), (name, seed)
    # proper fractions only: integral coefficients are stored as int
    assert ("L1111", 0) in rational and ("L22", 1) in rational
    # members with true fractions, whose products are divided after
    family = distribution_family(dict(build_corpus())["exceptional-d2"])
    scales = (Fraction(1, 2), Fraction(-2, 3))
    family.member_tuples = [
        tuple(f.scale(s) for f in t) for s, t in zip(scales, family.member_tuples)
    ]
    assert integrability_system(family) and _matches_oracle(family)


def _random_families(base, seed: int, count: int) -> list[DistributionFamily]:
    """Families of 2-4 random member tuples over ``base``: Fraction
    coefficients, zero entries, no Euler relation, and no matrices, so
    that every point is degenerate."""
    rng = Random(seed)
    families = []
    for trial in range(count):
        p = 2 + trial % 3
        members = [
            tuple(
                random_homogeneous(rng, R, 3) if rng.random() < 0.75 else R.zero()
                for _ in range(4)
            )
            for _ in range(p - 1)
        ]
        families.append(
            DistributionFamily(
                base=base,
                matrices=[],
                parameter_ring=PolyRing(p),
                member_tuples=[base.coefficients] + members,
            )
        )
    return families


def test_integrability_system_of_random_members(l112):
    # random member tuples over a non-integrable base
    base = validate([f.scale(Fraction(3, 2)) for f in l112.coefficients])
    for trial, family in enumerate(_random_families(base, 7, 12)):
        assert integrability_system(family) and _matches_oracle(family), trial


def _kind_within(family: DistributionFamily, budget: int) -> str:
    with pair_budget(budget):
        return integrable_members(family).kind


def test_budget_limited_kind_does_not_depend_on_the_system_order(l112, monkeypatch):
    # the system's Groebner basis reduces its generators in the order given and
    # a pair budget counts that run: the kernel's order and the oracle's (that
    # of the sorted expansion) give the same kind at every budget tried
    base = validate([f.scale(Fraction(3, 2)) for f in l112.coefficients])
    families = _random_families(base, 7, 12)
    for seed in (0, 1, 3):
        for name, form in build_determination_forms():
            form = seeded(name, form, seed)
            if classify(form).is_split:
                family = distribution_family(form)
                if family.parameter_dim > 1 and integrability_system(family):
                    families.append(family)
    reordered = decided = 0
    for family in families:
        kernel = [_kind_within(family, budget) for budget in range(22)]
        with monkeypatch.context() as patch:
            patch.setattr(determine, "integrability_system", integrability_system_oracle)
            before = [_kind_within(family, budget) for budget in range(22)]
        assert kernel == before
        # the budgets run from too small to enough
        decided += kernel[0] == "inconclusive" != kernel[-1]
        reordered += integrability_system(family) != integrability_system_oracle(family)
    assert decided >= 18 and reordered >= 6


def test_an_integrable_base_with_a_nonzero_base_block_is_an_engine_bug(l1111, l1111_alt):
    # block (0, 0) is the base parameter's own w_0 ^ dw_0: over an integrable
    # base it vanishes when member 0 is integrable, and asserts otherwise
    rng = Random(3)
    loose = tuple(random_homogeneous(rng, R, 3) for _ in range(4))

    def family(member_tuples):
        return DistributionFamily(l1111, [], PolyRing(2), member_tuples)

    broken = family([loose, l1111.coefficients])
    assert broken.block(0, 0)  # loose ^ d(loose) is not zero
    with pytest.raises(AssertionError, match="integrable base contributed a pure base-parameter term"):
        integrability_system(broken)
    for first in (l1111.coefficients, l1111_alt.coefficients):
        sound = family([first, loose])
        assert not sound.block(0, 0) and integrability_system(sound)


def test_the_walk_reads_only_the_blocks_of_its_lines(pullback_d1, l1111, exceptional2, monkeypatch):
    # a line reads blocks (0, 0), (0, k) and (k, k): 4 + 8 + 4 wedges, one
    # per 3-form component and product, where the whole system takes 4p^2.
    # A non-unique verdict stops on its first line that is not in L
    wedges = []
    real = determine.add_wedge

    def counted(*args):
        wedges.append(args)
        return real(*args)

    monkeypatch.setattr(determine, "add_wedge", counted)
    for form, p in ((pullback_d1, 6), (l1111, 3)):
        wedges.clear()
        assert is_determined_by_singular_scheme(form).kind == "non-unique"
        assert len(wedges) == 16 and distribution_family(form).parameter_dim == p
    # the walk and the certificate of exceptional-d2 both read every block,
    # and each is expanded once: the system, put together again, reads the cache
    wedges.clear()
    verdict = is_determined_by_singular_scheme(exceptional2)
    family = distribution_family(exceptional2)
    p = family.parameter_dim
    assert (verdict.kind, verdict.route) == ("unique", CERTIFIED) and len(wedges) == 4 * p * p
    wedges.clear()
    _walk(family, 2)
    system = integrability_system(family)
    assert system and len(wedges) == 4 * p * p
    assert integrability_system(family) == system and len(wedges) == 4 * p * p


def test_integrability_check_of_a_rational_multiple(l1111, l112):
    for form in (l1111, l112):
        scaled = validate([f.scale(Fraction(-2, 3)) for f in form.coefficients])
        assert integrability_check(scaled) == integrability_check(form)
    half = Fraction(1, 2)
    contact = ProjectiveOneForm(R, (Z[1] * half, Z[0] * -half, Z[3] * half, Z[2] * -half), 0)
    assert not integrability_check(contact)


def test_l1111_family_all_integrable(l1111):
    family = distribution_family(l1111)
    assert family.parameter_dim == 3
    assert integrability_system(family) == []
    outcome = integrable_members(family)
    assert outcome.kind == "positive" and len(outcome.members) == 3
    assert not any(proportional(f.coefficients, l1111.coefficients) for _, f in outcome.members[1:])


def test_single_parameter_family_is_trivial(l1111):
    # a one-dimensional sub-family {lambda * omega}: the system vanishes
    full = distribution_family(l1111)
    sub = DistributionFamily(
        base=full.base,
        matrices=full.matrices[:1],
        parameter_ring=PolyRing(1),
        member_tuples=full.member_tuples[:1],
    )
    assert sub.degenerate_locus == PolyRing(1).variable(0) ** 4
    assert integrability_system(sub) == []
    outcome = integrable_members(sub)
    assert outcome.kind == "finite" and len(outcome.members) == 1
    assert _only_degenerate_or_base(sub, [])


def test_pullback_d1_family_positive_dimensional(pullback_d1):
    family = distribution_family(pullback_d1)
    outcome = integrable_members(family)
    assert outcome.kind == "positive" and len(outcome.members) == 3
    assert not any(
        proportional(f.coefficients, pullback_d1.coefficients) for _, f in outcome.members[1:]
    )


# -- determination ------------------------------------------------------------------


def test_l1111_non_unique_with_explicit_witness(l1111, l1111_alt):
    verdict = is_determined_by_singular_scheme(l1111)
    assert verdict.kind == "non-unique"
    w = verdict.witness
    assert w is not None
    assert integrability_check(w)
    assert not proportional(w.coefficients, l1111.coefficients)
    assert ideal_equal(
        saturate(singular_ideal(w)), saturate(singular_ideal(l1111))
    )
    # the named second foliation: same linear forms, weights (1,-1,1,-1)
    assert ideal_equal(
        saturate(singular_ideal(l1111_alt)), saturate(singular_ideal(l1111))
    )
    assert not proportional(l1111_alt.coefficients, l1111.coefficients)


def test_determination_analyses_the_form_once(l1111, monkeypatch):
    import foliations.classify as classify_mod

    analyses = []
    real_of = classify_mod._Analysis.of.__func__

    def counted_of(cls, form):
        analyses.append(form)
        return real_of(cls, form)

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
    verdict = is_determined_by_singular_scheme(l1111)
    assert verdict.kind == "non-unique"
    assert analyses == [l1111]
    # the base ideal is saturated, which its resolution of length 2 shows
    assert resolved.count(True) == 1
    assert saturated.count(True) == 0


def test_the_exterior_calculus_and_the_locus_sort_nothing(l1111, monkeypatch):
    # d omega is accumulated straight into dicts, with no partial derivative
    # and no sorted polynomial; the family sorts its 12 member coefficients,
    # and only once the locus is read its 16 pencil entries and the locus,
    # which is expanded over int
    calls = {"partial_derivative": 0, "from_dict": 0}
    entries = []

    def counted(cls, name):
        real = getattr(cls, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(cls, name, wrapper)

    def recorded_det(pencil, ring):
        entries.extend(f for row in pencil for f in row)
        return _poly_det(pencil, ring)

    exceptional3 = exceptional_form(3)
    counted(Polynomial, "partial_derivative")
    counted(PolyRing, "from_dict")
    monkeypatch.setattr(determine, "_poly_det", recorded_det)
    family = distribution_family(l1111)
    integrability_system(family)
    assert calls == {"partial_derivative": 0, "from_dict": 12}
    family.degenerate_locus
    assert calls == {"partial_derivative": 0, "from_dict": 29}
    calls.update(dict.fromkeys(calls, 0))
    assert integrability_check(exceptional3)
    assert calls == {"partial_derivative": 0, "from_dict": 0}
    # every pencil handed to the determinant is integral, the ones with
    # Fraction matrices (L1111-generic's rows have denominators 1, 1, 5, 10) too
    for seed in (0, 1):
        for name, form in build_determination_forms():
            distribution_family(seeded(name, form, seed)).degenerate_locus
    assert entries and all(type(c) is int for f in entries for _, c in f.terms)


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
    real_check, real_walk = determine_mod.integrability_check, determine_mod._walk

    def counted_check(form):
        checks.append(form)
        return real_check(form)

    def counted_resolution(I, *args, **kwargs):
        resolutions.append(I)
        return free_resolution(I, *args, **kwargs)

    def counted_walk(family, count):
        found = real_walk(family, count)
        members.extend(found)
        return found

    monkeypatch.setattr(determine_mod, "integrability_check", counted_check)
    monkeypatch.setattr(determine_mod, "_walk", counted_walk)
    monkeypatch.setattr(classify_mod, "free_resolution", counted_resolution)
    for name, form in build_determination_forms():
        for log in (checks, resolutions, members):
            log.clear()
        verdict = is_determined_by_singular_scheme(form)
        # no member is checked twice
        assert len(checks) <= len(members) + (verdict.witness is not None), name
        # only a kept member off the base is checked: the base's check runs
        # only on a nonzero block (0, 0), which an integrable base never has
        assert len(checks) == max(len(members) - 1, 0), name
        # the form's own resolution: a witness is certified by its span, not resolved
        assert len(resolutions) == 1, name


# -- the exact decision: the walk and the certificate -------------------------------


@cache
def _split_families(seed: int) -> list:
    """(name, verdict, family, system) of every split corpus, larger and
    benchmark form under the seed's change of coordinates; not to be mutated."""
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    forms = {**dict(build_corpus() + build_larger_split_forms()), **workloads.named_forms()}
    out = []
    for name, form in forms.items():
        form = seeded(name, form, seed)
        if classify(form).is_split:
            family = distribution_family(form)
            verdict = is_determined_by_singular_scheme(form)
            out.append((name, verdict, family, integrability_system(family)))
    return out


def _l_is_everything(family) -> bool:
    """Every member tuple is a multiple of the base (zero included)."""
    return all(proportional(t, family.base.coefficients) for t in family.member_tuples)


@pytest.mark.parametrize("seed", [0, 1, 3, 7])
def test_l1112_is_unique(corpus, seed):
    # its system has the base (1:0) and (1:-2) as solutions, and the member at
    # (1:-2) is degenerate: no witness exists, and the certificate says so
    verdict = is_determined_by_singular_scheme(seeded("L1112", dict(corpus)["L1112"], seed))
    assert (verdict.kind, verdict.route, verdict.witness) == ("unique", CERTIFIED, None)


def test_the_certificate_needs_the_degenerate_locus(corpus):
    family = distribution_family(dict(corpus)["L1112"])
    system = integrability_system(family)
    assert system and _only_degenerate_or_base(family, system)
    assert [alpha for alpha, _ in _walk(family, 3)] == [(1, 0)]
    # with the locus taken as nowhere, the degenerate solution counts: in the
    # walk, whose singularity test reads the matrix at the point, and in the
    # certificate, which reads the determinant; each reads only its own
    walked = distribution_family(dict(corpus)["L1112"])
    walked.is_degenerate = lambda point: False
    assert [alpha for alpha, _ in _walk(walked, 3)] == [(1, 0), (1, -2)]
    assert _only_degenerate_or_base(walked, system)
    family.degenerate_locus = family.parameter_ring.one()
    assert not _only_degenerate_or_base(family, system)
    assert [alpha for alpha, _ in _walk(family, 3)] == [(1, 0)]


@pytest.mark.parametrize("seed", [0, 1])
def test_walk_finds_a_witness_exactly_when_l_is_not_everything(seed):
    # with a zero system the walk is complete
    seen = {True: [], False: []}
    for name, verdict, family, system in _split_families(seed):
        if system:
            continue
        found = _walk(family, 2)
        everything = _l_is_everything(family)
        assert (len(found) > 1) != everything, (name, seed)
        assert (verdict.kind == "non-unique") == (len(found) > 1), (name, seed)
        seen[everything].append(name)
    assert "pullback-d3b" in seen[True] and "L1111" in seen[False], seen


@pytest.mark.parametrize("seed", [0, 1])
def test_certificate_agrees_with_the_shortcut_routes(seed):
    shortcuts = ("splitting type a <= b <= -1", "linear pull-back of degree != 1")
    decided = []
    for name, verdict, family, system in _split_families(seed):
        holds = _only_degenerate_or_base(family, system)
        if verdict.route in shortcuts:
            assert verdict.kind == "unique" and holds, (name, seed)
            decided.append(name)
        else:
            assert holds == (verdict.kind == "unique"), (name, seed)
    # no form of these sets has b <= -1: only the pull-back route is compared
    assert sorted(decided) == [
        "pencil", "pencil-z0z3", "pullback-d0", "pullback-d2", "pullback-d3", "pullback-d3b"
    ]


def test_pullback_d3b_is_certified_without_a_basis(monkeypatch):
    # five parameters, and every member is a multiple of the base (three are
    # zero): L is everything, so no linear form cuts it out
    family = next(f for n, _, f, _ in _split_families(0) if n == "pullback-d3b")
    assert family.parameter_dim == 5 and _l_is_everything(family)
    assert sum(all(f.is_zero() for f in t) for t in family.member_tuples) == 3
    def no_basis(*args):
        pytest.fail("a basis was computed")

    monkeypatch.setattr(Ideal, "basis", no_basis)
    assert _only_degenerate_or_base(family, integrability_system(family))


def test_a_failed_member_check_is_an_engine_bug(l1111, monkeypatch):
    # a kept member solves the system and spans the base's forms; the witness's
    # span check is exercised through the CLI (``test_cli``).  Every block of
    # L1111's family is empty, so every point of the walk solves the system
    family = distribution_family(l1111)
    assert not any(family.block(k, j) for k in range(3) for j in range(k, 3))
    with monkeypatch.context() as patch:
        patch.setattr(determine, "integrability_check", lambda form: False)
        with pytest.raises(InternalInconsistency, match="not integrable"):
            _walk(family, 2)
    with monkeypatch.context() as patch:
        patch.setattr(determine, "validate", lambda coefficients: validate([]))
        with pytest.raises(InternalInconsistency, match="not a form"):
            _walk(family, 2)


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
        if not classify(form).is_split:
            continue
        verdict = is_determined_by_singular_scheme(form)
        if verdict.kind != "non-unique":
            continue
        w = verdict.witness
        w_sat, _ = saturated_resolution(Ideal(w.ring, w.coefficients))
        assert ideal_equal(w_sat, _Analysis.of(form).saturation), (name, seed)
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
