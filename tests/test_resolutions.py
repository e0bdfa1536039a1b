"""Free resolutions: Betti tables, exactness certificates, minimality."""

import hashlib
from itertools import combinations
from random import Random

import pytest

from foliations.classify import monomials_of_degree
from foliations.forms import apply_projectivity, exceptional_form, logarithmic_form, singular_ideal
from foliations.groebner import Ideal, ideal_equal, normal_form
from foliations.hilbert import _minimalize, hilbert_data
from foliations.linalg import rank
from foliations.modules import induced_marks
from foliations.resolutions import free_resolution
from foliations.rings import PolyRing, mono_divides
from foliations.saturation import intersect, saturate

from .conftest import build_corpus, build_larger_split_forms, random_homogeneous, s_polynomial

R = PolyRing(4)
Z = R.variables()


def composites_are_zero(res) -> bool:
    """d_k d_{k+1} = 0: each image of a map, expanded against the map before, vanishes."""
    for k in range(res.length - 1):
        for image in res.matrices[k + 1]:
            acc = [res.ring.zero() for _ in res.twists[k]]
            for coeff, col in zip(image, res.matrices[k]):
                acc = [a + coeff * p for a, p in zip(acc, col)]
            if not all(a.is_zero() for a in acc):
                return False
    return True


def six_edges():
    gens = []
    for i in range(4):
        p = R.one()
        for j in range(4):
            if j != i:
                p = p * Z[j]
        gens.append(p)
    return Ideal(R, gens)


def test_koszul_resolution():
    res = free_resolution(Ideal(R, [Z[0], Z[1]]))
    assert res.length == 2
    assert res.betti() == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_twisted_cubic_resolution():
    I = Ideal(R, [Z[0] * Z[2] - Z[1] ** 2, Z[0] * Z[3] - Z[1] * Z[2], Z[1] * Z[3] - Z[2] ** 2])
    res = free_resolution(I)
    assert res.length == 2
    assert res.betti() == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert composites_are_zero(res)
    assert not res.has_unit_entry()


def test_two_skew_lines_length_three():
    I = Ideal(R, [Z[0] * Z[2], Z[0] * Z[3], Z[1] * Z[2], Z[1] * Z[3]])
    res = free_resolution(I)
    assert res.length == 3
    assert res.betti()[(3, 4)] == 1


def test_six_edges_is_acm():
    res = free_resolution(six_edges())
    assert res.length == 2
    assert res.betti() == {(0, 0): 1, (1, 3): 4, (2, 4): 3}


def _samples():
    rng = Random(17)
    samples = [
        Ideal(R, [Z[0], Z[1]]),
        six_edges(),
        Ideal(R, [Z[0] * Z[2], Z[0] * Z[3], Z[1] * Z[2], Z[1] * Z[3]]),
    ]
    for _ in range(4):
        gens = [random_homogeneous(rng, R, rng.randint(1, 3)) for _ in range(rng.randint(2, 3))]
        samples.append(Ideal(R, gens))
    return samples


def test_hilbert_alternating_sum_identity():
    for I in _samples():
        res = free_resolution(I)
        assert composites_are_zero(res)
        assert not res.has_unit_entry()
        # a fresh Ideal reads in(I) off the reduced basis, not off res
        assert res.euler_numerator() == hilbert_data(Ideal(R, I.generators)).numerator


def test_resolution_of_whole_ring():
    res = free_resolution(Ideal(R, []))
    assert res.length == 0 and res.twists == [(0,)]
    res = free_resolution(Ideal(R, [Z[0], R.one()]))  # R/(1) = 0
    assert res.length == 0 and res.betti() == {}


def _random_saturations():
    """Five seeded saturations of random ideals, none of them (1)."""
    rng = Random(23)
    out = []
    while len(out) < 5:
        gens = [random_homogeneous(rng, R, rng.randint(1, 2)) for _ in range(2)]
        I = Ideal(R, [g for g in gens if not g.is_zero()])
        if not I.generators:
            continue
        S = saturate(I)
        if [str(g) for g in S.generators] == ["1"]:
            continue
        out.append((I, S))
    return out


def test_auslander_buchsbaum_bound_for_saturated_ideals():
    # saturated non-irrelevant ideals have depth >= 1, so length <= 3 here
    for _, S in _random_saturations():
        assert free_resolution(S).length <= 3


def test_resolution_length_decides_saturation(distribution_d2):
    # depth R/I >= 1, that is pd R/I <= 3 (Auslander-Buchsbaum), exactly
    # when I is saturated: classify reads "saturated" off the length, and
    # saturate stays the independent oracle for that verdict
    def agree(I):
        length = free_resolution(I).length
        assert (length <= 3) == ideal_equal(I, saturate(I)), I
        return length

    for _, form in build_corpus():
        agree(singular_ideal(form))
    assert agree(singular_ideal(distribution_d2)) == 4
    assert agree(Ideal(R, [Z[0] ** 2, Z[0] * Z[1], Z[0] * Z[2], Z[0] * Z[3]])) == 4
    line_and_point = intersect(Ideal(R, [Z[0], Z[1]]), Ideal(R, [Z[0], Z[2], Z[3]]))
    assert agree(line_and_point) == 3
    assert agree(Ideal(R, [Z[0] * Z[2], Z[0] * Z[3], Z[1] * Z[2], Z[1] * Z[3]])) == 3
    for I, S in _random_saturations():
        agree(I)
        agree(S)


def test_first_step_holds_the_initial_ideal_of_the_reduced_basis(distribution_d2):
    # hilbert_data reads in(I) off the first resolution step once I is
    # resolved; the reduced basis, tied to sympy in test_groebner, is the
    # independent route to the same monomial ideal
    def agree(I):
        fresh = Ideal(R, I.generators)
        free_resolution(fresh)
        held = _minimalize(frozenset(e for _, e, _ in fresh.basis()[1]))
        assert fresh._gb is None, "in(I) was read off a reduced basis"
        assert held == {g.leading_monomial() for g in I.groebner_basis()}, I

    for I in _samples():
        agree(I)
    for _, form in build_corpus():
        agree(singular_ideal(form))
    I = singular_ideal(distribution_d2)
    agree(I)
    agree(saturate(I))
    for I, S in _random_saturations():
        agree(I)
        agree(S)


def test_first_step_holds_a_groebner_basis_of_the_ideal(distribution_d2):
    # the loop top-reduces, so the basis step 0 hands I is not interreduced;
    # saturate and hilbert_data need only that it is a Groebner basis of I:
    # every S-polynomial reduces to zero on it (Buchberger's criterion, free
    # of pair criteria), and it spans I both ways
    def check(I):
        fresh = Ideal(R, I.generators)
        free_resolution(fresh)
        held = [v[0] for v in fresh.basis()[0]]
        assert all(
            normal_form(s_polynomial(f, g), held).is_zero() for f, g in combinations(held, 2)
        ), I
        assert all(normal_form(f, I.groebner_basis()).is_zero() for f in held), I
        assert all(normal_form(f, held).is_zero() for f in I.generators), I

    for _, form in build_corpus():
        check(singular_ideal(form))
    I = singular_ideal(distribution_d2)
    check(I)
    check(saturate(I))
    for I, S in _random_saturations():
        check(I)
        check(S)


def test_degree_two_distribution_resolves(distribution_d2):
    S = saturate(singular_ideal(distribution_d2))
    res = free_resolution(S)
    assert res.betti() == {(0, 0): 1, (1, 3): 4, (1, 4): 2, (2, 4): 1, (2, 5): 8, (3, 6): 4}
    assert res.euler_numerator() == hilbert_data(Ideal(R, S.generators)).numerator
    assert composites_are_zero(res)
    assert not res.has_unit_entry()


# -- an independent Betti oracle: Koszul homology by dense ranks -------------------


def _koszul_betti(I, top):
    """beta_{i,j} = dim H_i(K(z0..z3) (x) R/I)_j for j <= top, by dense ranks.

    (R/I)_d is spanned by the standard monomials of the reduced basis, and
    the differential sends f e_S to sum_k (-1)^k z_{s_k} f e_{S - s_k}.
    """
    gb = I.groebner_basis()
    leads = [g.leading_monomial() for g in gb]
    standard = {}
    products = {}

    def cells(i, j):
        d = j - i
        if d not in standard:
            standard[d] = [
                m for m in monomials_of_degree(R, d) if not any(mono_divides(l, m) for l in leads)
            ]
        return [(S, m) for S in combinations(range(4), i) for m in standard[d]]

    def times_variable(s, m):
        if (s, m) not in products:
            products[(s, m)] = normal_form(R.from_dict({m: 1}) * Z[s], gb).terms
        return products[(s, m)]

    def rank_of_d(i, j):
        source, target = cells(i, j), cells(i - 1, j)
        if not source or not target:
            return 0
        row_of = {cell: r for r, cell in enumerate(target)}
        matrix = [[0] * len(source) for _ in target]
        for c, (S, m) in enumerate(source):
            for k, s in enumerate(S):
                rest = S[:k] + S[k + 1:]
                for e, coeff in times_variable(s, m):
                    matrix[row_of[(rest, e)]][c] += (-1) ** k * coeff
        return rank(matrix)

    table = {}
    for j in range(top + 1):
        ranks = [0] + [rank_of_d(i, j) for i in range(1, 5)] + [0]
        for i in range(5):
            beta = len(cells(i, j)) - ranks[i] - ranks[i + 1]
            if beta:
                table[(i, j)] = beta
    return table


def _check_against_koszul(I, res):
    top = max(max(tw, default=0) for tw in res.twists)
    assert _koszul_betti(I, top + 1) == res.betti()


@pytest.mark.parametrize("I", _samples())
def test_betti_table_matches_koszul_homology(I):
    _check_against_koszul(I, free_resolution(I))


def test_corpus_betti_tables_match_koszul_homology():
    checked = 0
    for _, form in build_corpus():
        S = saturate(singular_ideal(form))
        res = free_resolution(S)
        if max(max(tw, default=0) for tw in res.twists) <= 8:
            _check_against_koszul(S, res)
            checked += 1
    assert checked >= 10


# sha256 of the repr of [[[p.terms for p in v] for v in m] for m in res.matrices]
PINNED_MATRICES = {
    "L1113": "9cfb010ff2710bf672e28806423f3b4a6bb8c5256790cb3105e40ae7a8e667e6",
    "exceptional-d2-moved": "5493a295aef35fa1ba03b93a3833ff7c6705a539f215dbd3d4f542b20896b543",
    "pullback-d3": "9bcc0496e1334bea0127cef19559ee974e521c22597853f8e478566a95f01aeb",
    # forms whose last step the rank stop skips: step 1, and step 2 of L112 and L113
    "L1111": "a630d07a53244f0634e5a4e0c1d3240859464444bc6b508ee700ca2169e7b41c",
    "pullback-d1": "8ef8fb63fd2834c568ef8524d15f7480ab7baad2d3674d99f1b46190d25e116b",
    "pullback-d2": "7432800d82d1a22372a98dcfdb5781fc3bf14ee096e0838da08a24464c7f1c19",
    "pullback-d3b": "c55982699e9dc61613dcf46a4ff90af9612272a1c9faa19e74eb90bef5793437",
    "L112": "3aa9b8a2aff4fd30d14b8cfcd964291f6c87da7b37a81ab00ddc2c77fb57b478",
    "L113": "2208ab48dc3b738aee5b878b392403c3e3ec460c6f3443de9b782d17f7904c93",
}


def _pinned_forms():
    cubic = Z[0] ** 3 + Z[1] ** 3 + Z[2] ** 3 + Z[3] ** 3
    move = ((1, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 2, 1))
    named = dict(build_corpus() + build_larger_split_forms())
    return {
        "L1113": logarithmic_form([Z[0], Z[1], Z[2], cubic], [1, 1, 1, -1]),
        "exceptional-d2-moved": apply_projectivity(exceptional_form(2), move),
        "L113": logarithmic_form([Z[0], Z[1], cubic], [1, 2, -1]),
        **{name: named[name] for name in PINNED_MATRICES if name in named},
    }


def test_resolution_matrices_are_pinned():
    # certified syzygies could differ by a unit or a Groebner tail; these
    # hashes pin the very integers of the resolution, term by term
    forms = _pinned_forms()
    assert forms.keys() == PINNED_MATRICES.keys()
    for name, form in forms.items():
        res = free_resolution(singular_ideal(form))
        data = [[[p.terms for p in v] for v in m] for m in res.matrices]
        assert hashlib.sha256(repr(data).encode()).hexdigest() == PINNED_MATRICES[name], name


def _marks_before_each_step(res):
    """The Schreyer marks each step of ``free_resolution`` ran with."""
    marks = [((0,) * res.ring.num_vars, 0)]
    out = []
    for gens in res.matrices:
        out.append(marks)
        marks = induced_marks(res.ring, gens, marks)
    return out


def test_the_rank_stop_skips_only_steps_with_no_syzygy(monkeypatch):
    # a step whose generators are as many as the rank of the module they
    # generate is free on them: run anyway, minimal_syzygies keeps every
    # generator and finds no syzygy.  The stop only ends a resolution, so
    # the steps it skips are those after the last one run
    import foliations.resolutions as resolutions

    ran = []
    real = resolutions.minimal_syzygies

    def recorded(gens, ring, marks):
        ran.append(len(gens))
        return real(gens, ring, marks)

    monkeypatch.setattr(resolutions, "minimal_syzygies", recorded)
    forms = {**dict(build_corpus() + build_larger_split_forms()), **_pinned_forms()}
    skipped = {}
    for name, form in forms.items():
        ran.clear()
        res = free_resolution(singular_ideal(form))
        skipped[name] = list(range(len(ran), res.length))
        marks = _marks_before_each_step(res)
        for k in skipped[name]:
            kept, syzygies, _, _ = real(res.matrices[k], R, marks[k])
            assert kept == list(range(len(res.matrices[k]))) and syzygies == [], (name, k)
    assert skipped["L1111"] == skipped["pullback-d3b"] == [1]
    assert skipped["L112"] == skipped["L113"] == skipped["L1113"] == [2]
    assert skipped["exceptional-d2"] == skipped["exceptional-d2-moved"] == []
    assert sum(map(bool, skipped.values())) == 13, skipped
