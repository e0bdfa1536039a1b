"""Shared fixtures: rings, the paper's example forms, and the test corpus."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import pytest

from foliations.determine import _product_rows
from foliations.formfile import parse_form_file
from foliations.forms import (
    ProjectiveOneForm,
    apply_projectivity,
    exceptional_form,
    logarithmic_form,
    pullback_from_plane,
    validate,
)
from foliations.linalg import rank
from foliations.rings import PolyRing, Polynomial, mono_div, mono_lcm


# a non-integrable degree-2 form whose singular ideal is not saturated: its
# resolution has length 4, and its saturation once swelled to 536-bit
# coefficients without finishing in two minutes
DISTRIBUTION_D2 = """ring z0 z1 z2 z3
form (-z1^2*z2 + z0*z2^2 - z0*z1*z3 - z1^2*z3 - z0*z2*z3 + z1*z2*z3 - z1*z3^2) dz0 \
+ (z0*z1*z2 + z0*z2^2 + z0^2*z3 + z0*z1*z3 + z0*z2*z3 + z0*z3^2) dz1 \
+ (-z0^2*z2 - z0*z1*z2 + z0^2*z3 - z1*z2*z3 - z0*z3^2 - z1*z3^2) dz2 \
+ (-2*z0*z1*z2 + z1*z2^2 + z0*z2*z3 + z1*z2*z3) dz3
"""


@pytest.fixture(scope="session")
def R4() -> PolyRing:
    return PolyRing(4)


@pytest.fixture(scope="session")
def R3() -> PolyRing:
    return PolyRing(3)


@pytest.fixture(scope="session")
def pencil(R4) -> ProjectiveOneForm:
    z = R4.variables()
    return validate([z[1], -z[0], R4.zero(), R4.zero()])


@pytest.fixture(scope="session")
def l1111(R4) -> ProjectiveOneForm:
    return logarithmic_form(R4.variables(), [1, 1, 1, -3])


@pytest.fixture(scope="session")
def l1111_alt(R4) -> ProjectiveOneForm:
    return logarithmic_form(R4.variables(), [1, -1, 1, -1])


@pytest.fixture(scope="session")
def l112(R4) -> ProjectiveOneForm:
    z = R4.variables()
    quadric = z[0] ** 2 + z[1] ** 2 + z[2] ** 2 + z[3] ** 2
    return logarithmic_form([z[0], z[1], quadric], [1, 1, -1])


@pytest.fixture(scope="session")
def exceptional2() -> ProjectiveOneForm:
    return exceptional_form(2)


@pytest.fixture(scope="session")
def plane_deg1(R3) -> ProjectiveOneForm:
    return logarithmic_form(R3.variables(), [1, 1, -2])


@pytest.fixture(scope="session")
def plane_deg2(R3) -> ProjectiveOneForm:
    w = R3.variables()
    conic = w[0] ** 2 + w[1] ** 2 + w[2] ** 2
    return logarithmic_form([w[0], w[1], conic], [1, 1, -1])


@pytest.fixture(scope="session")
def pullback_d1(plane_deg1) -> ProjectiveOneForm:
    return pullback_from_plane(plane_deg1)


@pytest.fixture(scope="session")
def pullback_d2(plane_deg2) -> ProjectiveOneForm:
    return pullback_from_plane(plane_deg2)


@pytest.fixture(scope="session")
def distribution_d2() -> ProjectiveOneForm:
    return parse_form_file(DISTRIBUTION_D2).form


def build_corpus() -> list[tuple[str, ProjectiveOneForm]]:
    """Named P^3 forms spanning degrees 0..3, split and non-split."""
    R = PolyRing(4)
    z = R.variables()
    P = PolyRing(3)
    w = P.variables()
    quadric = z[0] ** 2 + z[1] ** 2 + z[2] ** 2 + z[3] ** 2
    plane1 = logarithmic_form(w, [1, 1, -2])
    plane2 = logarithmic_form([w[0], w[1], w[0] ** 2 + w[1] ** 2 + w[2] ** 2], [1, 1, -1])
    plane3 = logarithmic_form(
        [w[0], w[1], w[2], w[0] + w[1] + w[2], w[0] - w[2]], [1, 1, 1, 1, -4]
    )
    return [
        ("pencil", validate([z[1], -z[0], R.zero(), R.zero()])),
        ("pencil-z0z3", validate([z[3], R.zero(), R.zero(), -z[0]])),
        ("pullback-d0", pullback_from_plane(validate([w[1], -w[0], P.zero()]))),
        ("pullback-d1", pullback_from_plane(plane1)),
        ("cone-L111", logarithmic_form([z[0], z[1], z[2]], [1, 1, -2])),
        ("L1111", logarithmic_form(z, [1, 1, 1, -3])),
        ("L1111-alt", logarithmic_form(z, [1, -1, 1, -1])),
        ("L1111-generic", logarithmic_form(z, [2, 3, 5, -10])),
        ("L112", logarithmic_form([z[0], z[1], quadric], [1, 1, -1])),
        ("pullback-d2", pullback_from_plane(plane2)),
        ("exceptional-d2", exceptional_form(2)),
        ("L1112", logarithmic_form([z[0], z[1], z[2], z[3] ** 2 + z[0] * z[1]], [1, 1, 2, -2])),
        ("pullback-d3", pullback_from_plane(plane3)),
    ]


def build_larger_split_forms() -> list[tuple[str, ProjectiveOneForm]]:
    """Split forms of degree 2 and 3 beyond the corpus, as the benchmark builds them."""
    R = PolyRing(4)
    z = R.variables()
    P = PolyRing(3)
    w = P.variables()
    quadric = z[0] ** 2 + z[1] ** 2 + z[2] ** 2 + z[3] ** 2
    conic = w[0] ** 2 + w[1] ** 2 + w[2] ** 2
    return [
        ("L22", logarithmic_form([quadric, z[0] * z[1] + z[2] * z[3]], [1, -1])),
        ("exceptional-d3", exceptional_form(3)),
        ("pullback-d3b", pullback_from_plane(logarithmic_form([w[0], w[1], w[2], conic], [1, 1, 2, -2]))),
    ]


def build_determination_forms() -> list[tuple[str, ProjectiveOneForm]]:
    """The forms the determination benchmark runs: the corpus without L112
    (not split) and pullback-d3 (slow to resolve), then the larger split forms."""
    skip = ("L112", "pullback-d3")
    return [(n, f) for n, f in build_corpus() if n not in skip] + build_larger_split_forms()


def seeded(name: str, form: ProjectiveOneForm, seed: int) -> ProjectiveOneForm:
    """form under z_i -> s_i z_i, each s_i drawn from (1, -1, 2, -2) by the seed
    and the name, as the benchmark's seeds move it; seed 0 leaves it as it is."""
    rng = random.Random(f"{seed}:{name}")
    scales = [rng.choice((1, -1, 2, -2)) if seed else 1 for _ in range(4)]
    return apply_projectivity(form, [[s if j == i else 0 for j in range(4)] for i, s in enumerate(scales)])


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, ProjectiveOneForm]]:
    return build_corpus()


def random_rational(rng, small: bool = True) -> Fraction:
    num = rng.randint(-6, 6)
    den = rng.choice([1, 1, 1, 2, 3]) if small else rng.randint(1, 9)
    if num == 0:
        num = 1
    return Fraction(num, den)


def random_polynomial(rng, ring: PolyRing, max_degree: int = 3, max_terms: int = 4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(0, max_degree)
        exp = [0] * ring.num_vars
        for _ in range(degree):
            exp[rng.randrange(ring.num_vars)] += 1
        terms[tuple(exp)] = random_rational(rng)
    return ring.from_dict(terms)


def random_homogeneous(rng, ring: PolyRing, degree: int, max_terms: int = 4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * ring.num_vars
        for _ in range(degree):
            exp[rng.randrange(ring.num_vars)] += 1
        terms[tuple(exp)] = random_rational(rng)
    return ring.from_dict(terms)


def syzygy_dimension(coefficients, entry_degree: int) -> int:
    """dim {(g_i) : sum g_i F_i = 0, deg g_i = entry_degree}, as the number of
    product rows z^m * F_i minus their rank: a route apart from the kernel rows."""
    rows = _product_rows(tuple(coefficients), entry_degree)
    return len(rows) - rank(rows)


def s_polynomial(f, g):
    """The S-polynomial of two polynomials, each scaled to a monic lead."""
    lcm = mono_lcm(f.leading_monomial(), g.leading_monomial())
    a = f.mul_term(mono_div(lcm, f.leading_monomial()), Fraction(1) / f.terms[0][1])
    b = g.mul_term(mono_div(lcm, g.leading_monomial()), Fraction(1) / g.terms[0][1])
    return a - b


def dehomogenize(p, var: int):
    """p with z_var set to 1."""
    d = {}
    for e, c in p.terms:
        key = e[:var] + (0,) + e[var + 1:]
        d[key] = d.get(key, 0) + c
    return p.ring.from_dict(d)


def mat_mul(a, b) -> list[list[Fraction]]:
    """The exact matrix product a @ b."""
    bt = list(zip(*b))
    return [
        [sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)), Fraction(0)) for col in bt]
        for row in a
    ]


# -- the sorted exterior calculus that forms.differential / forms.add_wedge
# replaced, kept as their oracle: every product and sum here is a sorted
# Polynomial


@dataclass(frozen=True)
class RawForm:
    """Any coefficient tuple with its ring, homogeneous or not and with no
    Euler relation: all that ``integrability_check`` and
    ``exterior_derivative`` read of a form."""

    ring: PolyRing
    coefficients: tuple[Polynomial, ...]


@dataclass(frozen=True)
class HomogeneousTwoForm:
    """Antisymmetric coefficients on index pairs; stored for i < j."""

    ring: PolyRing
    entries: dict[tuple[int, int], Polynomial]

    def get(self, i: int, j: int) -> Polynomial:
        if i == j:
            return self.ring.zero()
        if i < j:
            return self.entries.get((i, j), self.ring.zero())
        return -self.entries.get((j, i), self.ring.zero())

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.entries.values())


@dataclass(frozen=True)
class HomogeneousThreeForm:
    """Antisymmetric coefficients on index triples; stored for i < j < k."""

    ring: PolyRing
    entries: dict[tuple[int, int, int], Polynomial]

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.entries.values())


def exterior_derivative(form) -> HomogeneousTwoForm:
    """d omega of anything with ``ring`` and ``coefficients``."""
    F = form.coefficients
    entries = {}
    for i, j in combinations(range(len(F)), 2):
        p = F[j].partial_derivative(i) - F[i].partial_derivative(j)
        if not p.is_zero():
            entries[(i, j)] = p
    return HomogeneousTwoForm(form.ring, entries)


def wedge_1_2(coefficients, eta: HomogeneousTwoForm) -> HomogeneousThreeForm:
    entries = {}
    for i, j, k in combinations(range(len(coefficients)), 3):
        p = (
            coefficients[i] * eta.get(j, k)
            - coefficients[j] * eta.get(i, k)
            + coefficients[k] * eta.get(i, j)
        )
        if not p.is_zero():
            entries[(i, j, k)] = p
    return HomogeneousThreeForm(eta.ring, entries)


def integrable_oracle(coefficients) -> bool:
    """omega ^ d omega = 0, on the rational tuple itself."""
    omega = RawForm(coefficients[0].ring, tuple(coefficients))
    return wedge_1_2(omega.coefficients, exterior_derivative(omega)).is_zero()


def euler_oracle(coefficients) -> Polynomial:
    """sum z_j F_j."""
    ring = coefficients[0].ring
    total = ring.zero()
    for j, f in enumerate(coefficients):
        total = total + ring.variable(j) * f
    return total


def integrability_system_oracle(family) -> list:
    """The integrability system expanded on the members' own rational tuples,
    through sorted products, each quadric once, made primitive."""
    pring = family.parameter_ring
    tuples = family.member_tuples
    derivs = [exterior_derivative(RawForm(family.base.ring, t)) for t in tuples]
    collected: dict = {}
    for k in range(len(tuples)):
        for j in range(k, len(tuples)):
            three = wedge_1_2(tuples[k], derivs[j]).entries
            if j > k:
                other = wedge_1_2(tuples[j], derivs[k]).entries
                zero = family.base.ring.zero()
                three = {
                    t: three.get(t, zero) + other.get(t, zero) for t in set(three) | set(other)
                }
            for triple, poly in three.items():
                for e, c in poly.terms:
                    exps = [0] * pring.num_vars
                    exps[k] += 1
                    exps[j] += 1
                    collected.setdefault((triple, e), {})[tuple(exps)] = c
    quadrics = [pring.from_dict(d).primitive() for d in collected.values() if any(d.values())]
    return list(dict.fromkeys(quadrics))
