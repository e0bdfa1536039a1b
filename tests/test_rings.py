"""Polynomial core: canonical form, orders, calculus, substitution."""

from fractions import Fraction
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from foliations.rings import (
    PolyRing,
    RingMismatch,
    apply_linear_change,
    map_to_ring,
    mono_mul,
)

R = PolyRing(4)
Z = R.variables()


def exponents(n=4, max_degree=5):
    return st.tuples(*[st.integers(0, max_degree) for _ in range(n)])


def rationals():
    return st.fractions(
        min_value=-8, max_value=8, max_denominator=6
    ).filter(lambda x: x != 0)


def polys(n=4):
    return st.dictionaries(exponents(n), rationals(), min_size=0, max_size=5).map(
        lambda d: PolyRing(n).from_dict(d)
    )


# -- canonical form and arithmetic ------------------------------------------


def test_difference_of_squares():
    assert (Z[0] + Z[1]) * (Z[0] - Z[1]) == Z[0] ** 2 - Z[1] ** 2


def test_rational_coefficients_combine():
    half = Z[0] * Z[1] * Fraction(1, 2)
    assert half + half == Z[0] * Z[1]


@given(polys())
def test_additive_inverse(p):
    assert (p + (-p)).is_zero()


@given(polys(), polys())
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys(), polys(), polys())
@settings(max_examples=50)
def test_multiplication_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys())
def test_no_zero_terms_stored(p):
    assert all(c != 0 for _, c in p.terms)


def test_homogeneous_product_degree():
    rng = Random(7)
    from .conftest import random_homogeneous

    for _ in range(20):
        p = random_homogeneous(rng, R, 2)
        q = random_homogeneous(rng, R, 3)
        prod = p * q
        if not prod.is_zero():
            assert prod.is_homogeneous() and prod.degree() == 5


def _dict_product(p, q):
    """p*q by summing every pair of terms and sorting once: the general path."""
    d = {}
    for e1, c1 in p.terms:
        for e2, c2 in q.terms:
            e = mono_mul(e1, e2)
            d[e] = d.get(e, 0) + c1 * c2
    return p.ring.from_dict(d).terms


@pytest.mark.parametrize(
    "var_map", [None, [0, 3, 1, 2]], ids=["grevlex", "grevlex-z1-cheapest"]
)
def test_single_term_products_and_powers_match_the_general_product(var_map):
    # the second case relabels every factor so that z1 is listed last, and
    # so cheapest: grevlex with z1 cheapest
    ring = PolyRing(4)
    rng = Random(13)

    def coefficient():
        c = Fraction(rng.randint(-6, 6) or 1, rng.choice([1, 1, 2, 3]))
        return c.numerator if rng.random() < 0.5 and c.denominator == 1 else c

    def random_poly(size):
        p = ring.from_dict(
            {tuple(rng.randint(0, 3) for _ in range(4)): coefficient() for _ in range(size)}
        )
        return p if var_map is None else map_to_ring(p, ring, var_map)

    singles = [ring.zero(), ring.one(), ring.constant(Fraction(-3, 2)), ring.constant(5)]
    singles += [random_poly(1) for _ in range(20)]
    others = singles + [random_poly(rng.randint(2, 6)) for _ in range(20)]
    for s in singles:
        for q in others:
            assert (s * q).terms == _dict_product(s, q) == (q * s).terms
        for n in range(5):
            power = ring.one().terms
            for _ in range(n):
                power = _dict_product(ring.from_dict(dict(power)), s)
            assert (s**n).terms == power


def test_ring_mismatch_rejected():
    other = PolyRing(3)
    with pytest.raises(RingMismatch):
        Z[0] + other.variable(0)


# -- monomial orders ----------------------------------------------------------


@given(exponents(), exponents(), exponents())
def test_order_multiplicative(a, b, m):
    key = R.exp_key
    if key(a) < key(b):
        assert key(mono_mul(a, m)) < key(mono_mul(b, m))


@given(exponents())
def test_one_is_smallest(e):
    if any(e):
        assert R.exp_key((0, 0, 0, 0)) < R.exp_key(e)


@given(exponents(), exponents())
def test_order_total(a, b):
    key = R.exp_key
    assert (key(a) < key(b)) + (key(b) < key(a)) + (a == b) >= 1


def test_grevlex_examples():
    # same degree: z1^3 beats z0*z2^2 in grevlex
    assert (Z[0] * Z[2] ** 2 + Z[1] ** 3).leading_monomial() == (0, 3, 0, 0)


def test_cheapest_variable_order():
    # grevlex with z0 cheapest is grevlex after the relabelling that lists z0
    # last: there z1*z2 beats z0^2, which leads in plain grevlex
    p = R.from_dict({(2, 0, 0, 0): 1, (0, 1, 1, 0): 1})
    assert p.leading_monomial() == (2, 0, 0, 0)
    assert map_to_ring(p, R, [3, 0, 1, 2]).leading_monomial() == (1, 1, 0, 0)


# -- calculus -----------------------------------------------------------------


def test_partial_derivative_examples():
    assert (Z[0] ** 2 * Z[1]).partial_derivative(0) == (Z[0] * Z[1]).scale(2)
    assert (Z[1] ** 3).partial_derivative(0).is_zero()
    with pytest.raises(IndexError):
        Z[0].partial_derivative(7)


def test_euler_identity_on_homogeneous():
    rng = Random(11)
    from .conftest import random_homogeneous

    for _ in range(25):
        d = rng.randint(1, 5)
        p = random_homogeneous(rng, R, d)
        total = R.zero()
        for i in range(4):
            total = total + Z[i] * p.partial_derivative(i)
        assert total == p.scale(d)


# -- homogenization ------------------------------------------------------------


def test_homogenize_round_trip():
    # padding each term with powers of z3 and setting z3 = 1 give p back:
    # the chart restriction that ``conftest.dehomogenize`` computes
    rng = Random(3)
    from .conftest import dehomogenize, random_polynomial

    ring = PolyRing(4)
    for _ in range(25):
        p = random_polynomial(rng, PolyRing(3), max_degree=4)
        lifted = ring.from_dict({e + (0,): c for e, c in p.terms})
        D = max(lifted.degree(), 0) + rng.randint(0, 2)
        h = ring.from_dict({e[:3] + (D - sum(e),): c for e, c in lifted.terms})
        assert h.is_homogeneous()
        assert dehomogenize(h, 3) == lifted


# -- linear substitution --------------------------------------------------------


def test_apply_identity_and_swap():
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    p = Z[0] ** 2 * Z[1] + Z[3]
    assert apply_linear_change(p, eye) == p
    swap = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert apply_linear_change(Z[0] ** 2 * Z[1], swap) == Z[1] ** 2 * Z[0]


def test_apply_composition_matches_evaluation_oracle():
    # convention: applying A then B equals applying the product A@B, checked
    # against evaluation at random rational points
    rng = Random(5)
    from .conftest import mat_mul, random_polynomial

    for _ in range(10):
        p = random_polynomial(rng, R, max_degree=3)
        A = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        B = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        once = apply_linear_change(apply_linear_change(p, A), B)
        product = apply_linear_change(p, mat_mul(A, B))
        assert once == product
        point = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        image = [sum(Fraction(A[i][j]) * point[j] for j in range(4)) for i in range(4)]
        assert apply_linear_change(p, A).evaluate(point) == p.evaluate(image)


def test_substitute_matches_evaluation_oracle():
    # p(images)(pt) = p(images(pt)), for linear and quadratic images in rings
    # of 2, 4 and 5 variables
    rng = Random(8)
    from .conftest import random_homogeneous, random_polynomial

    for k in range(60):
        p = random_polynomial(rng, R, max_degree=6, max_terms=8)
        target = PolyRing((2, 4, 5)[k % 3])
        degree = 1 + k % 2
        images = [
            random_homogeneous(rng, target, degree) + random_polynomial(rng, target, degree)
            for _ in range(4)
        ]
        q = p.substitute(images)
        assert q.ring == target
        for _ in range(3):
            pt = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(target.num_vars)]
            assert q.evaluate(pt) == p.evaluate([g.evaluate(pt) for g in images])


def test_evaluate_stays_on_integers():
    rng = Random(5)
    for _ in range(100):
        terms = {}
        for _ in range(rng.randint(0, 5)):
            terms[tuple(rng.randint(0, 3) for _ in range(4))] = rng.randint(-9, 9)
        p = R.from_dict(terms)
        integers = [rng.randint(-4, 4) for _ in range(4)]
        fractions = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
        for point in (integers, fractions):
            reference = Fraction(0)
            for e, c in p.terms:
                term = Fraction(c)
                for x, k in zip(point, e):
                    term *= Fraction(x) ** k
                reference += term
            value = p.evaluate(point)
            assert value == reference
            if all(type(x) is int for x in point):
                assert type(value) is int


# -- rendering -------------------------------------------------------------------


def test_render_canonical():
    p = Z[0] ** 2 * Z[1] * Fraction(3, 2) - Z[3] + R.constant(Fraction(-1, 4))
    assert str(p) == "3/2*z0^2*z1 - z3 - 1/4"
    assert str(R.zero()) == "0"
