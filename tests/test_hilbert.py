"""Hilbert series against direct monomial counting."""

from math import comb
from random import Random

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
