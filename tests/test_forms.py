"""Projective 1-forms: validation, exterior calculus, constructors."""

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from foliations.classify import classify
from foliations.cli import main
from foliations.determine import is_determined_by_singular_scheme
from foliations.formfile import print_form_file
from foliations.forms import (
    CodimTooSmall,
    EulerViolation,
    WeightConstraintViolation,
    ZeroForm,
    apply_projectivity,
    differential,
    exceptional_form,
    integrability_check,
    logarithmic_form,
    proportional,
    pullback_from_plane,
    singular_ideal,
    validate,
)
from foliations.groebner import Ideal, ideal_equal
from foliations.rings import PolyRing, apply_linear_change

from .conftest import (
    HomogeneousTwoForm,
    RawForm,
    build_corpus,
    build_larger_split_forms,
    dehomogenize,
    euler_oracle,
    exterior_derivative,
    integrable_oracle,
    random_homogeneous,
    random_rational,
    seeded,
)

R = PolyRing(4)
Z = R.variables()


# -- validation -----------------------------------------------------------------


def test_pencil_is_valid(pencil):
    assert pencil.degree == 0


def test_euler_violation():
    with pytest.raises(EulerViolation):
        validate([Z[0], R.zero(), R.zero(), R.zero()])


def test_zero_form_rejected():
    with pytest.raises(ZeroForm):
        validate([R.zero()] * 4)


def test_l1111_valid(l1111):
    assert l1111.degree == 2


def test_common_monomial_stripped():
    # z2 * pencil: the common factor must be stripped back off
    form = validate([Z[1] * Z[2], -Z[0] * Z[2], R.zero(), R.zero()])
    assert form.degree == 0
    assert [str(f) for f in form.coefficients] == ["z1", "-z0", "0", "0"]


# -- exterior calculus ------------------------------------------------------------


def kernel_d(form) -> HomogeneousTwoForm:
    """The kernel's d omega (``differential``), each term tuple summed into a polynomial."""
    entries = {}
    for ij, terms in differential(form.coefficients).items():
        summed: dict = {}
        for e, c in terms:
            summed[e] = summed.get(e, 0) + c
        p = form.ring.from_dict(summed)
        if not p.is_zero():
            entries[ij] = p
    return HomogeneousTwoForm(form.ring, entries)


def test_exterior_derivative_sign():
    pencil = validate([Z[1], -Z[0], R.zero(), R.zero()])
    d = kernel_d(pencil)
    assert str(d.get(0, 1)) == "-2"
    assert str(d.get(1, 0)) == "2"


def test_d_squared_zero_on_affine_gradients():
    rng = Random(2)
    from .conftest import random_polynomial

    ring = PolyRing(3)
    for _ in range(20):
        f = random_polynomial(rng, ring, max_degree=4)
        omega = RawForm(ring, tuple(f.partial_derivative(i) for i in range(3)))
        assert not any(differential(omega.coefficients).values())
        assert exterior_derivative(omega).is_zero()


def radial_contraction(eta: HomogeneousTwoForm) -> tuple:
    """(i_R eta)_j = sum_i z_i eta_{ij}, the raw 1-form coefficients."""
    ring = eta.ring
    n = ring.num_vars
    out = []
    for j in range(n):
        acc = ring.zero()
        for i in range(n):
            if i != j:
                acc = acc + ring.variable(i) * eta.get(i, j)
        out.append(acc)
    return tuple(out)


def test_cartan_identity():
    for _, form in build_corpus() + build_larger_split_forms():
        contracted = radial_contraction(kernel_d(form))
        scale = form.degree + 2
        assert all(
            (a - b.scale(scale)).is_zero()
            for a, b in zip(contracted, form.coefficients)
        )


def test_radial_contraction_of_zero():
    zero = HomogeneousTwoForm(R, {})
    assert all(p.is_zero() for p in radial_contraction(zero))


def test_wedge_antisymmetry_of_assembly():
    eta = exterior_derivative(validate([Z[1], -Z[0], R.zero(), R.zero()]))
    # swapping indices in eta flips the sign fed into the 3-form assembly
    assert eta.get(0, 1) == -eta.get(1, 0)


def test_integrability_examples(pencil, l1111):
    assert integrability_check(pencil)
    assert integrability_check(l1111)


def test_plane_forms_are_always_integrable(plane_deg1, plane_deg2):
    assert integrability_check(plane_deg1)
    assert integrability_check(plane_deg2)


def test_integrability_invariant_under_projectivity(l1111, l112):
    A = [[1, 2, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 0, 1, 1]]
    for form in (l1111, l112):
        assert integrability_check(form) == integrability_check(apply_projectivity(form, A))


def _random_tuple(rng, degree: int, euler: bool) -> list:
    """Four degree-``degree`` coefficients, Fraction ones and zero entries among
    them: i_R of a random 2-form when ``euler`` (the Euler relation holds),
    else independent entries (it mostly fails)."""
    if euler:
        eta = {
            ij: random_homogeneous(rng, R, degree - 1)
            for ij in combinations(range(4), 2)
            if rng.random() < 0.7
        }
        return list(radial_contraction(HomogeneousTwoForm(R, eta)))
    return [random_homogeneous(rng, R, degree) if rng.random() < 0.75 else R.zero() for _ in range(4)]


def test_kernel_matches_the_sorted_oracle():
    # differential, the wedge and the Euler check of forms against the sorted
    # products they replaced, on every corpus and determination form and on
    # random tuples
    tuples = [
        seeded(name, form, seed).coefficients
        for seed in (0, 1, 3)
        for name, form in build_corpus() + build_larger_split_forms()
    ]
    rng = Random(5)
    tuples += [_random_tuple(rng, rng.randint(1, 3), trial % 2 == 0) for trial in range(200)]
    outcomes = set()
    for F in tuples:
        if not any(f.terms for f in F):
            continue
        omega = RawForm(R, tuple(F))
        assert kernel_d(omega).entries == exterior_derivative(omega).entries
        integrable = integrability_check(omega)
        assert integrable == integrable_oracle(F), F
        euler = euler_oracle(F)
        try:
            validate(F)
            violated = False
        except EulerViolation as exc:
            assert str(exc) == f"sum z_j F_j = {euler} != 0"
            violated = True
        assert violated == (not euler.is_zero()), F
        outcomes.add((integrable, violated))
    assert {(True, False), (False, False), (False, True)} <= outcomes


# -- singular scheme ---------------------------------------------------------------


def test_pencil_singular_ideal(pencil):
    I = singular_ideal(pencil)
    assert ideal_equal(I, Ideal(R, [Z[0], Z[1]]))


def test_l1111_six_edges(l1111):
    I = singular_ideal(l1111)
    expected = []
    for i in range(4):
        p = R.one()
        for j in range(4):
            if j != i:
                p = p * Z[j]
        expected.append(p)
    assert ideal_equal(I, Ideal(R, expected))


def test_codim_too_small_detected(tmp_path, capsys):
    # all coefficients share the non-monomial factor (z0+z1): validation
    # cannot strip it, the singular ideal check must reject it -- also
    # where the analysis resolves the ideal before it checks the codim
    common = Z[0] + Z[1]
    form = validate([Z[1] * common, -Z[0] * common, R.zero(), R.zero()])
    with pytest.raises(CodimTooSmall):
        singular_ideal(form)
    with pytest.raises(CodimTooSmall):
        classify(form)
    with pytest.raises(CodimTooSmall):
        is_determined_by_singular_scheme(form)
    path = tmp_path / "common-factor.form"
    path.write_text(print_form_file(form))
    assert main(["classify", str(path)]) == 1
    assert "common divisor" in capsys.readouterr().err


def test_singular_ideal_transforms_by_substitution(l1111):
    A = [[1, 1, 0, 2], [0, 1, 1, 0], [1, 0, 1, 0], [0, 2, 0, 1]]
    moved = apply_projectivity(l1111, A)
    image = Ideal(R, [apply_linear_change(f, A) for f in l1111.coefficients])
    assert ideal_equal(singular_ideal(moved), image)


# -- constructors --------------------------------------------------------------------


def test_logarithmic_weight_constraint():
    with pytest.raises(WeightConstraintViolation):
        logarithmic_form(Z, [1, 1, 1, 1])
    with pytest.raises(WeightConstraintViolation):
        logarithmic_form(Z, [1, 0, 1, -2])
    with pytest.raises(WeightConstraintViolation):
        logarithmic_form([Z[0], Z[0] * Z[1]], [1, Fraction(-1, 2)])


def test_plane_logarithmic(plane_deg1):
    assert plane_deg1.degree == 1
    assert integrability_check(plane_deg1)


def test_l112_representative(l112):
    assert l112.degree == 2


def test_pullback_examples(plane_deg2):
    P = PolyRing(3)
    w = P.variables()
    pb = pullback_from_plane(validate([w[1], -w[0], P.zero()]))
    assert pb.degree == 0
    assert [str(f) for f in pb.coefficients] == ["0", "z2", "-z1", "0"]
    pb2 = pullback_from_plane(plane_deg2)
    assert pb2.degree == plane_deg2.degree
    assert pb2.coefficients[0].is_zero()


def test_exceptional_scalars():
    z0, z1, z2, z3 = Z
    form2 = exceptional_form(2)
    # scalar pattern 3, 7, 21 for d = 2, visible in the z0-multiplied slots
    assert form2.coefficients[1] == (z0 * _lift(z2 - z3 ** 3)).scale(3)
    # d = 3 follows the printed formula: 1+2d+2d^2+d^3 = 52
    form3 = exceptional_form(3)
    assert form3.coefficients[3] == (z0 * _lift(z2 ** 4 - z1 * z3 ** 3)).scale(-52)


def _lift(p):
    """p, in z1, z2, z3, homogenized by powers of z0."""
    D = p.degree()
    return R.from_dict({(D - sum(e), *e[1:]): c for e, c in p.terms})


@pytest.mark.parametrize("d", [2, 3, 4])
def test_exceptional_form_restricts_to_its_affine_form(d):
    # on the chart z0 = 1, F_1, F_2, F_3 are the docstring's affine
    # coefficients, and F_0 is minus their radial pairing
    z0, z1, z2, z3 = Z
    a1 = (z2 - z3 ** (d + 1)).scale(1 + d)
    a2 = (z1 - z2**d * z3).scale(-(1 + d + d * d))
    a3 = (z2 ** (d + 1) - z1 * z3**d).scale(-(1 + 2 * d + 2 * d * d + d**3))
    chart = [dehomogenize(f, 0) for f in exceptional_form(d).coefficients]
    assert chart == [-(z1 * a1 + z2 * a2 + z3 * a3), a1, a2, a3]


EXCEPTIONAL_COEFFICIENTS = {
    2: ("4*z0^2*z1*z2 + 14*z2^3*z3 - 18*z1*z3^3", "3*z0^3*z2 - 3*z0*z3^3",
        "-7*z0^3*z1 + 7*z0*z2^2*z3", "-21*z0*z2^3 + 21*z0*z1*z3^2"),
    3: ("9*z0^3*z1*z2 + 39*z2^4*z3 - 48*z1*z3^4", "4*z0^4*z2 - 4*z0*z3^4",
        "-13*z0^4*z1 + 13*z0*z2^3*z3", "-52*z0*z2^4 + 52*z0*z1*z3^3"),
    4: ("16*z0^4*z1*z2 + 84*z2^5*z3 - 100*z1*z3^5", "5*z0^5*z2 - 5*z0*z3^5",
        "-21*z0^5*z1 + 21*z0*z2^4*z3", "-105*z0*z2^5 + 105*z0*z1*z3^4"),
    5: ("25*z0^5*z1*z2 + 155*z2^6*z3 - 180*z1*z3^6", "6*z0^6*z2 - 6*z0*z3^6",
        "-31*z0^6*z1 + 31*z0*z2^5*z3", "-186*z0*z2^6 + 186*z0*z1*z3^5"),
}
"""The rendered coefficients of ``exceptional_form(d)``, recorded when it was
built by homogenizing its affine form."""


@pytest.mark.parametrize("d", sorted(EXCEPTIONAL_COEFFICIENTS))
def test_exceptional_coefficients_are_pinned(d):
    form = exceptional_form(d)
    assert tuple(str(f) for f in form.coefficients) == EXCEPTIONAL_COEFFICIENTS[d]
    assert form.degree == d + 1


def test_exceptional_degree_and_integrability(exceptional2):
    # the minimal projective extension of the printed affine form has
    # coefficient degree d+2, hence computed degree d+1: this is recorded,
    # not hidden (the affine family parameter is d = 2)
    assert exceptional2.degree == 3
    assert integrability_check(exceptional2)
    assert exceptional_form(3).degree == 4


def test_apply_projectivity_identity(l1111):
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    assert apply_projectivity(l1111, eye) == l1111


# -- proportionality -------------------------------------------------------------------


def _minors_vanish(F, G) -> bool:
    return all(F[i] * G[j] == F[j] * G[i] for i, j in combinations(range(len(F)), 2))


def test_proportional_agrees_with_the_minors():
    rng = Random(11)
    outcomes = set()
    for trial in range(400):
        G = [random_homogeneous(rng, R, 2) if rng.random() < 0.75 else R.zero() for _ in range(4)]
        ratio = random_rational(rng) * rng.choice([1, -1])  # negative and Fraction ratios too
        F = [g.scale(ratio) for g in G]
        kind = trial % 5
        k = rng.randrange(4)
        if kind == 1:  # one entry off by a term
            e = (2, 0, 0, 0) if k % 2 else (0, 1, 0, 1)
            F[k] = F[k] + R.from_dict({e: rng.choice([1, -2])})
        elif kind == 2:  # mismatched zero patterns
            F[k] = R.zero() if not F[k].is_zero() else random_homogeneous(rng, R, 2)
        elif kind == 3:  # a ratio of linear forms: the minors vanish, no constant relates them
            A = [random_homogeneous(rng, R, 1) if rng.random() < 0.75 else R.zero() for _ in range(4)]
            h1, h2 = random_homogeneous(rng, R, 1), random_homogeneous(rng, R, 1)
            F, G = [h1 * a for a in A], [h2 * a for a in A]
        elif kind == 4:
            F = [random_homogeneous(rng, R, 2) if rng.random() < 0.75 else R.zero() for _ in range(4)]
        expected = _minors_vanish(F, G)
        assert proportional(F, G) == expected == proportional(G, F), (F, G)
        outcomes.add((kind, expected))
    assert {(0, True), (1, False), (2, False), (3, True), (4, False)} <= outcomes
    zero = [R.zero()] * 4
    assert proportional(zero, G) and proportional(G, zero) and proportional(zero, zero)


def test_proportional_on_the_corpus():
    forms = [form for _, form in build_corpus()]
    for f in forms:
        assert proportional(f.coefficients, [g.scale(Fraction(-2, 3)) for g in f.coefficients])
        for g in forms:
            assert proportional(f.coefficients, g.coefficients) == _minors_vanish(
                f.coefficients, g.coefficients
            )
