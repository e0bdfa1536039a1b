"""The .form language: grammar, round trips, positioned errors."""

import pytest

from foliations.formfile import ParseError, parse_form_file, print_form_file
from foliations.forms import EulerViolation, FormError, logarithmic_form
from foliations.rings import PolyRing

from .conftest import build_corpus


def test_pencil_file():
    ff = parse_form_file("ring z0 z1 z2 z3\nform (z1) dz0 - (z0) dz1\n")
    assert ff.form.degree == 0


def test_comments_and_whitespace_insensitivity():
    text = """
    # a comment
    ring   z0 z1 z2 z3   # trailing comment
    form
      (z1) dz0
      - (z0) dz1
    """
    assert parse_form_file(text).form.degree == 0


def test_bare_differential_means_unit_coefficient():
    ff = parse_form_file("ring z0 z1 z2\nform (z1) dz0 - (z0) dz1 + (0) dz2")
    gg = parse_form_file("ring z0 z1 z2\nform z1 dz0 - z0 dz1")
    assert ff.form == gg.form


def test_unparenthesized_sum_binds_to_the_differential():
    ff = parse_form_file("ring z0 z1 z2 z3\nform z1 + z2 dz0 - z0 dz1 - z0 dz2")
    assert [str(f) for f in ff.form.coefficients] == ["z1 + z2", "-z0", "-z0", "0"]


def test_rationals_and_powers():
    ff = parse_form_file(
        "ring z0 z1 z2 z3\n"
        "form (1/2*z1^2) dz0 + (-1/2*z0*z1 + z2^2) dz1 + (-z1*z2) dz2"
    )
    assert ff.form.degree == 1
    assert [str(f) for f in ff.form.coefficients] == [
        "1/2*z1^2", "-1/2*z0*z1 + z2^2", "-z1*z2", "0",
    ]
    # the common monomial factor z1 is stripped before the degree is set
    ff = parse_form_file(
        "ring z0 z1 z2 z3\nform (1/2*z1^2) dz0 + (-1/2*z0*z1) dz1"
    )
    assert ff.form.degree == 0
    assert [str(f) for f in ff.form.coefficients] == ["1/2*z1", "-1/2*z0", "0", "0"]


def test_metadata_round_trip():
    text = "ring z0 z1 z2 z3\nname pencil\nexpected-degree 0\nform (z1) dz0 + (-z0) dz1\n"
    ff = parse_form_file(text)
    assert ff.name == "pencil" and ff.expected_degree == 0
    assert print_form_file(ff.form, ff.name, ff.expected_degree) == text


def test_print_parse_identity_on_forms():
    R = PolyRing(4)
    z = R.variables()
    quadric = z[0] ** 2 + z[1] ** 2 + z[2] ** 2 + z[3] ** 2
    forms = [form for _, form in build_corpus()] + [
        logarithmic_form(z, [1, 2, 3, -6]),
        logarithmic_form([quadric, z[0] * z[1] + z[2] * z[3]], [1, -1]),  # L22
    ]
    for form in forms:
        assert parse_form_file(print_form_file(form)).form == form


def test_unary_minus_negates_the_power():
    for text in ["-z0^2*z1 - z1^3", "-1*z0^2*z1 - 1*z1^3"]:
        ff = parse_form_file(f"ring z0 z1\nform ({text}) dz0 + (z0^3 + z0*z1^2) dz1")
        assert str(ff.form.coefficients[0]) == "-z0^2*z1 - z1^3"


def test_euler_violation_surfaced():
    with pytest.raises(EulerViolation) as err:
        parse_form_file("ring z0 z1 z2 z3\nform (z0) dz0")
    assert "z0^2" in str(err.value)


def test_expected_degree_checked():
    with pytest.raises(FormError):
        parse_form_file("ring z0 z1 z2 z3\nexpected-degree 5\nform (z1) dz0 - (z0) dz1")


def test_positioned_errors():
    with pytest.raises(ParseError) as err:
        parse_form_file("ring z0 z1\nform (z1 dz0")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse_form_file("ring z0 z2\nform z0 dz0")  # names must be consecutive
    with pytest.raises(ParseError):
        parse_form_file("ring z0 z1 z2 z3\nform (z7) dz0")
    with pytest.raises(ParseError):
        parse_form_file("ring z0 z1 z2 z3\nform (z1) dz9")
