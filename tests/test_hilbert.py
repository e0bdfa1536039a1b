"""Hilbert series against direct monomial counting."""

from itertools import combinations
from math import comb
from random import Random

from foliations import hilbert
from foliations.groebner import Ideal
from foliations.hilbert import hilbert_data, monomial_numerator, hilbert_from_numerator
from foliations.rings import PolyRing, mono_divides

R = PolyRing(4)
Z = R.variables()


def count_standard_monomials(leads, num_vars, degree):
    """Brute force: monomials of the degree not divisible by any lead."""
    def monos(prefix, remaining, pos):
        if pos == num_vars - 1:
            yield tuple(prefix + [remaining])
            return
        for k in range(remaining + 1):
            yield from monos(prefix + [k], remaining - k, pos + 1)

    return sum(
        1
        for m in monos([], degree, 0)
        if not any(mono_divides(g, m) for g in leads)
    )


def test_line_in_p3():
    h = hilbert_data(Ideal(R, [Z[0], Z[1]]))
    assert h.krull_dim == 2 and h.multiplicity == 1
    assert [h.dimension_at(k) for k in range(4)] == [1, 2, 3, 4]


def test_zero_ideal():
    h = hilbert_data(Ideal(R, []))
    assert h.krull_dim == 4 and h.numerator == (1,)
    assert h.dimension_at(3) == comb(6, 3)


def test_six_edges_dimension():
    gens = []
    for i in range(4):
        p = R.one()
        for j in range(4):
            if j != i:
                p = p * Z[j]
        gens.append(p)
    h = hilbert_data(Ideal(R, gens))
    assert h.krull_dim == 2
    assert h.dimension_at(3) == comb(6, 3) - 4 == 16
    assert h.multiplicity == 6


def test_unit_ideal():
    h = hilbert_data(Ideal(R, [R.one()]))
    assert h.krull_dim == -1 and h.dimension_at(0) == 0


def test_graded_dimensions_match_monomial_counting():
    rng = Random(31)
    for _ in range(12):
        leads = []
        for _ in range(rng.randint(1, 4)):
            e = [0, 0, 0, 0]
            for _ in range(rng.randint(1, 4)):
                e[rng.randrange(4)] += 1
            leads.append(tuple(e))
        h = hilbert_from_numerator(monomial_numerator(leads, 4), 4)
        for degree in range(6):
            assert h.dimension_at(degree) == count_standard_monomials(leads, 4, degree)


def test_monomial_numerator_leaves_no_reference_cycle():
    # the pivot recursion runs at module level on a memo passed in, so a call
    # leaves nothing for the cyclic collector
    import gc

    gens = [(2, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)]
    gc.collect()
    gc.disable()
    try:
        assert monomial_numerator(gens, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def taylor_numerator(gens, num_vars):
    """Inclusion-exclusion over the generator list (the Taylor complex):
    sum over subsets S of (-1)^|S| t^deg lcm(S)."""
    coeffs = {}
    for size in range(len(gens) + 1):
        for subset in combinations(gens, size):
            lcm = [max((g[i] for g in subset), default=0) for i in range(num_vars)]
            coeffs[sum(lcm)] = coeffs.get(sum(lcm), 0) + (-1) ** size
    top = max((k for k, c in coeffs.items() if c), default=-1)
    return tuple(coeffs.get(k, 0) for k in range(top + 1))


def random_monomial(rng, num_vars, support):
    chosen = rng.sample(range(num_vars), support)
    return tuple(rng.randint(1, 13) if k in chosen else 0 for k in range(num_vars))


def random_generators(rng, num_vars, kind):
    """1-8 exponent vectors in 0..13 whose minimal generators are any, pure powers
    only, or pure powers and exactly one mixed; with repeats and non-minimal ones."""
    while True:
        count = rng.randint(1, 8)
        if kind == "any":
            gens = [random_monomial(rng, num_vars, rng.randint(1, num_vars)) for _ in range(count)]
        else:
            gens = [random_monomial(rng, num_vars, 1) for _ in range(count)]
            if kind == "one mixed":
                gens[0] = random_monomial(rng, num_vars, rng.randint(2, num_vars))
        # the mixed generator gens[0] must not be a multiple of a pure power
        if kind != "one mixed" or not any(mono_divides(h, gens[0]) for h in gens[1:]):
            break
    if rng.random() < 0.3:
        gens.append(rng.choice(gens))
    if rng.random() < 0.3:
        gens.append(tuple(x + rng.randint(0, 2) for x in rng.choice(gens)))
    rng.shuffle(gens)
    return gens


def test_numerator_matches_the_taylor_complex_on_random_ideals():
    rng = Random(20)
    for trial in range(360):
        num_vars = rng.randint(2, 5)
        kind = ("any", "pure", "one mixed")[trial % 3]
        gens = random_generators(rng, num_vars, kind)
        assert monomial_numerator(gens, num_vars) == taylor_numerator(gens, num_vars), gens


def test_a_high_exponent_needs_no_deep_recursion():
    # x0^1200 x1 and x0 x2: the pivot x0^1 leaves x0^1199 x1 as the only mixed
    # generator, so the exponent does not set the depth
    numerator = monomial_numerator([(1200, 1, 0, 0), (1, 0, 1, 0)], 4)
    expected = [0] * 1203
    expected[0], expected[2], expected[1201], expected[1202] = 1, -1, -1, 1
    assert numerator == tuple(expected)


def test_pivot_recursion_work_on_two_lead_sets(monkeypatch):
    # pivoting on x_i^1 alone takes 17 and 11 calls on these
    l113 = [
        (1, 0, 13, 0), (1, 1, 9, 0), (1, 2, 5, 0), (1, 3, 1, 0),
        (0, 4, 1, 0), (1, 4, 0, 0), (4, 1, 0, 0),
    ]
    six_edges = [(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]
    calls = []
    inner = hilbert._numerator
    monkeypatch.setattr(hilbert, "_numerator", lambda *args: calls.append(args[0]) or inner(*args))
    for gens, expected in ((l113, 7), (six_edges, 5)):
        calls.clear()
        monomial_numerator(gens, 4)
        assert len(calls) == expected
