"""Classification verdicts on the paper's fixtures and engine-level schemes."""

from itertools import combinations, permutations
from math import comb
from random import Random

import pytest

from foliations.classify import (
    _Analysis,
    _rao_from,
    _report_from,
    _syzygy_matrix,
    classify,
    graded_syzygy_rows,
    monomials_of_degree,
)
from foliations.forms import apply_projectivity, exceptional_form, logarithmic_form
from foliations.modules import InternalInconsistency, StepBudgetExceeded, _pair_budget, pair_budget
from foliations.groebner import Ideal
from foliations.hilbert import hilbert_data
from foliations.linalg import kernel_basis
from foliations.resolutions import free_resolution
from foliations.rings import PolyRing

from .conftest import (
    build_corpus,
    build_larger_split_forms,
    random_homogeneous,
    seeded,
    syzygy_dimension,
)

R = PolyRing(4)
Z = R.variables()
MOVE_EXCEPTIONAL_D2 = [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 2, 1]]


def test_pencil_report(pencil):
    r = classify(pencil)
    assert (r.degree, r.saturated, r.is_curve, r.is_acm, r.is_split) == (0, True, True, True, True)
    assert r.splitting_type == (1, 1)
    assert r.rao_dims == {}


def test_l1111_report(l1111):
    r = classify(l1111)
    assert r.degree == 2
    assert r.saturated and r.is_curve and r.is_acm and r.is_split
    assert r.splitting_type == (0, 0)
    assert r.betti == {(0, 0): 1, (1, 3): 4, (2, 4): 3}


def test_l112_not_locally_free(l112):
    r = classify(l112)
    assert r.degree == 2
    assert not r.is_curve and not r.is_split
    assert r.splitting_type is None and r.rao_dims is None


def test_exceptional_report(exceptional2):
    r = classify(exceptional2)
    assert r.is_split
    assert r.splitting_type == (2 - exceptional2.degree, 0)


def test_pullback_types(pullback_d1, pullback_d2):
    assert classify(pullback_d2).splitting_type == (-1, 1)
    assert classify(pullback_d1).splitting_type == (0, 1)


def test_split_needs_curve(l112):
    r = classify(l112)
    assert not r.is_curve and not r.is_split
    assert r.splitting_type is None and r.rao_dims is None


def test_unsaturated_distribution_report(distribution_d2):
    # the one path where I is not saturated: its resolution has length 4,
    # so saturate(I) runs and I^sat is resolved in its place
    r = classify(distribution_d2)
    assert (r.degree, r.saturated, r.is_curve, r.is_acm, r.is_split) == (2, False, False, False, False)
    assert r.splitting_type is None and r.rao_dims is None
    assert r.betti == {(0, 0): 1, (1, 3): 4, (1, 4): 2, (2, 4): 1, (2, 5): 8, (3, 6): 4}


def test_contact_form_report():
    # -z1 dz0 + z0 dz1 - z3 dz2 + z2 dz3 is not integrable and vanishes nowhere:
    # I = (z0, .., z3) saturates to (1), whose numerator is 0
    from foliations.forms import singular_ideal, validate
    from foliations.saturation import saturate

    contact = validate([-Z[1], Z[0], -Z[3], Z[2]])
    r = classify(contact)
    assert (r.degree, r.saturated, r.is_curve, r.is_acm, r.is_split) == (0, False, False, False, False)
    assert r.splitting_type is None and r.rao_dims is None and r.betti == {}
    h = hilbert_data(saturate(singular_ideal(contact)))
    assert h.numerator == () and h.krull_dim == -1


def test_report_is_hashable_and_cannot_change(l112, l1111):
    r = classify(l1111)
    assert hash(r) == hash(classify(l1111)) and r == classify(l1111)
    r.betti[(0, 0)] = 99
    r.rao_dims[5] = 1
    assert r.betti[(0, 0)] == 1 and r.rao_dims == {}
    with pytest.raises(AttributeError):
        r.saturated = False
    assert len({r, classify(l112)}) == 2


def test_is_saturated_engine_example():
    # (z0^2, z0z1, z0z2, z0z3) is not a foliation ideal; engine-level check
    # exercised through the raw saturation surface instead
    from foliations.groebner import ideal_equal
    from foliations.saturation import saturate

    I = Ideal(R, [Z[0] ** 2, Z[0] * Z[1], Z[0] * Z[2], Z[0] * Z[3]])
    assert not ideal_equal(I, saturate(I))


SKEW_LINES = [Z[0] * Z[2], Z[0] * Z[3], Z[1] * Z[2], Z[1] * Z[3]]
# the rational quartic curve (s^4 : s^3 t : s t^3 : t^4), not ACM
RATIONAL_QUARTIC = [
    Z[0] * Z[3] - Z[1] * Z[2],
    Z[1] ** 3 - Z[0] ** 2 * Z[2],
    Z[2] ** 3 - Z[1] * Z[3] ** 2,
    Z[0] * Z[2] ** 2 - Z[1] ** 2 * Z[3],
]


@pytest.mark.parametrize(
    "gens, betti, rao",
    [
        pytest.param(
            SKEW_LINES,
            {(0, 0): 1, (1, 2): 4, (2, 3): 4, (3, 4): 1},
            {0: 1},
            id="skew-lines",
        ),
        pytest.param(
            RATIONAL_QUARTIC,
            {(0, 0): 1, (1, 2): 1, (1, 3): 3, (2, 4): 4, (3, 5): 1},
            {1: 1},
            id="rational-quartic",
        ),
    ],
)
def test_rao_of_skew_lines_engine_level(gens, betti, rao):
    # not foliation ideals: a saturated curve ideal put through the Rao
    # read-out of classify, on the top Ext of its length-3 resolution
    from foliations.groebner import ideal_equal
    from foliations.saturation import saturate

    I = Ideal(R, gens)
    assert ideal_equal(I, saturate(I))
    res = free_resolution(I)
    assert res.betti() == betti
    analysis = _Analysis(
        form=None, saturation=I, saturated=True,
        sat_hilbert=hilbert_data(I), resolution=res,
    )
    assert analysis.curve() and not analysis.acm()
    assert _rao_from(analysis) == rao


def test_twisted_cubic_is_acm_engine_level():
    I = Ideal(R, [Z[0] * Z[2] - Z[1] ** 2, Z[0] * Z[3] - Z[1] * Z[2], Z[1] * Z[3] - Z[2] ** 2])
    assert free_resolution(I).length == 2


def test_plane_saturation(plane_deg1, plane_deg2):
    from foliations.forms import singular_ideal
    from foliations.groebner import ideal_equal
    from foliations.saturation import saturate

    for form in (plane_deg1, plane_deg2):
        I = singular_ideal(form)
        assert ideal_equal(I, saturate(I))


def test_syzygy_dimensions_drive_splitting(l1111, exceptional2):
    assert syzygy_dimension(l1111.coefficients, 1) == 3
    assert syzygy_dimension(l1111.coefficients, 0) == 0
    assert syzygy_dimension(exceptional2.coefficients, 1) == 2


def test_classification_invariant_under_projectivity(l1111):
    A = [[1, 0, 1, 0], [2, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1]]
    base = classify(l1111)
    moved = classify(apply_projectivity(l1111, A))
    assert (base.saturated, base.is_curve, base.is_acm, base.is_split) == (
        moved.saturated, moved.is_curve, moved.is_acm, moved.is_split
    )
    assert base.splitting_type == moved.splitting_type


def test_degree_determined_by_singular_scheme(corpus):
    # split members with equal saturated singular ideals have equal degree
    from foliations.forms import singular_ideal
    from foliations.groebner import ideal_equal
    from foliations.saturation import saturate

    split_members = []
    for name, form in corpus:
        if name.startswith("L1111"):
            split_members.append((form.degree, saturate(singular_ideal(form))))
    for d1, s1 in split_members:
        for d2, s2 in split_members:
            if ideal_equal(s1, s2):
                assert d1 == d2


def test_classify_rejects_plane_forms(plane_deg1):
    with pytest.raises(ValueError):
        classify(plane_deg1)


def test_resolution_heavy_regressions(corpus, exceptional2):
    # both stalled for minutes when the module loops took pairs last in,
    # first out; each now takes well under a second
    pullback_d3 = dict(corpus)["pullback-d3"]
    r = classify(pullback_d3)
    assert r.splitting_type == (-2, 1)
    assert r.betti == {(0, 0): 1, (1, 4): 3, (2, 5): 1, (2, 7): 1}
    r = classify(apply_projectivity(exceptional2, MOVE_EXCEPTIONAL_D2))
    assert r.splitting_type == (-1, 0)
    assert r.betti == {(0, 0): 1, (1, 4): 4, (2, 5): 2, (2, 6): 1}


# -- coordinate independence -------------------------------------------------------

MOVE_L1111_GENERIC = [[-1, -1, -1, -1], [1, -1, 0, 0], [-1, -1, 1, -1], [1, 1, -1, 0]]


def test_exceptional_d3_report_under_every_variable_order():
    # (0,3,1,2) and (1,3,0,2) once ran the resolution past the syzygy bound
    base = classify(exceptional_form(3))
    assert base.splitting_type == (-2, 0)
    for order in permutations(range(4)):
        relabel = [[1 if order[i] == j else 0 for j in range(4)] for i in range(4)]
        assert classify(apply_projectivity(exceptional_form(3), relabel)) == base, order


def test_l1111_generic_report_after_a_change_of_coordinates(corpus):
    # once ran the resolution past the syzygy bound
    form = dict(corpus)["L1111-generic"]
    assert classify(apply_projectivity(form, MOVE_L1111_GENERIC)) == classify(form)


@pytest.mark.parametrize("name, form", [pytest.param(n, f, id=n) for n, f in build_corpus()])
def test_corpus_reports_after_a_change_of_coordinates(name, form):
    A = [[1, 0, 1, 0], [2, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1]]
    assert classify(apply_projectivity(form, A)) == classify(form)


# -- the splitting type against a dense oracle ------------------------------------


def _sections(twist: int) -> int:
    """h^0(P^3, O(twist))."""
    return comb(twist + 3, 3) if twist >= 0 else 0


def _type_from_section_counts(form) -> tuple[int, int]:
    """The splitting type from dense ranks of graded syzygy matrices.

    s_m, the dimension of syzygies of (F_0..F_3) with entries of degree m+1,
    is h^0(T(m)) + h^0(O(m)); the first m with h^0(T(m)) > 0 gives b = -m
    and a = 2 - d - b.  Three further degrees must match the type.
    """
    d = form.degree
    F = form.coefficients
    for m in range(-1, d + 2):
        h0 = syzygy_dimension(F, m + 1) - _sections(m)
        assert h0 >= 0, f"negative section count at twist {m}"
        if h0 > 0:
            break
    else:
        pytest.fail("no sections found in the expected twist range")
    b = -m
    a = 2 - d - b
    for t in (m + 1, m + 2, m + 3):
        expected = _sections(t + a) + _sections(t + b) + _sections(t)
        assert syzygy_dimension(F, t + 1) == expected
    return (a, b)


def _oracle_forms():
    quadric = Z[0] ** 2 + Z[1] ** 2 + Z[2] ** 2 + Z[3] ** 2
    return build_corpus() + [
        ("exceptional-d3", exceptional_form(3)),
        ("L22", logarithmic_form([quadric, Z[0] * Z[1] + Z[2] * Z[3]], [1, -1])),
        ("exceptional-d2-moved", apply_projectivity(exceptional_form(2), MOVE_EXCEPTIONAL_D2)),
    ]


@pytest.mark.parametrize("name, form", [pytest.param(n, f, id=n) for n, f in _oracle_forms()])
def test_splitting_type_matches_dense_section_counts(name, form):
    r = classify(form)
    assert r.is_split == (name != "L112")
    if r.is_split:
        assert r.splitting_type == _type_from_section_counts(form)


def test_shifted_betti_table_is_a_consistency_failure(l1111, monkeypatch):
    import foliations.classify as classify_mod

    real = classify_mod.free_resolution

    def shifted(*args, **kwargs):
        res = real(*args, **kwargs)
        res.twists[2] = (res.twists[2][0] + 1,) + res.twists[2][1:]
        return res

    monkeypatch.setattr(classify_mod, "free_resolution", shifted)
    with pytest.raises(InternalInconsistency, match="Hilbert series"):
        classify(l1111)


def test_classify_builds_one_groebner_basis(l1111, distribution_d2, monkeypatch):
    # the first resolution step is a Groebner basis of I in the ring order,
    # so in(I) comes from it: no interreduction to a reduced basis, one
    # Hilbert numerator, and one Buchberger run per resolution step that is
    # not skipped
    import foliations.groebner as groebner_mod
    import foliations.hilbert as hilbert_mod
    import foliations.modules as modules_mod

    calls = {}

    def count(module, name):
        real = getattr(module, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(groebner_mod, "interreduce")
    # Ideal.hilbert_numerator and the module Hilbert data of hilbert call it
    count(groebner_mod, "monomial_numerator")
    count(hilbert_mod, "monomial_numerator")
    count(modules_mod, "_buchberger")
    report = classify(l1111)
    assert report.is_split and report.betti == {(0, 0): 1, (1, 3): 4, (2, 4): 3}
    # step 0 only: its 3 syzygies of 4 generators are as many as the rank of
    # the kernel, so the rank stop ends the resolution without step 1
    assert calls == {"interreduce": 0, "monomial_numerator": 1, "_buchberger": 1}
    # an unsaturated I: saturate's first line, z3, reads the basis of step 0
    # and fails the Hilbert polynomial; z0, t = 1 and t = 2 take one integral
    # basis each, and t = 2 decides.  R/I has 4 steps, of which the rank stop
    # skips the last (2 syzygies, rank 8 - (9 - 3) = 2), R/I^sat has 3, and
    # Ext^3 is read (dim R/I^sat = 2): 10 runs, with no reduced basis
    calls.update(dict.fromkeys(calls, 0))
    report = classify(distribution_d2)
    assert not report.saturated and report.betti[(3, 6)] == 4
    assert calls["interreduce"] == 0 and calls["_buchberger"] == 10


def test_ext3_is_computed_only_where_it_is_read(l112, monkeypatch):
    # the curve test reads Ext^3 only when dim R/I^sat = 2, and the Rao module
    # only for a curve: L112 (dim 2) computes it, a random degree-1
    # distribution (5 points, dim 1, a resolution of length 3) does not
    import foliations.classify as classify_mod

    from .test_saturation import _random_distribution

    runs = []
    real = classify_mod.top_ext
    monkeypatch.setattr(classify_mod, "top_ext", lambda res: runs.append(res) or real(res))
    assert not classify(l112).is_curve and len(runs) == 1
    analysis = _Analysis.of(_random_distribution(1))
    assert analysis.sat_hilbert.krull_dim == 1 and analysis.resolution.length == 3
    assert not _report_from(analysis).is_curve and len(runs) == 1
    assert analysis.ext3 is not None and len(runs) == 2


def test_codim_one_form_is_rejected_before_saturation(distribution_d2, monkeypatch):
    # a common non-monomial factor times the non-saturated singular ideal of
    # DISTRIBUTION_D2: its resolution has length 4, but the codim check on
    # step 0 rejects the form before saturate is paid for
    import foliations.classify as classify_mod
    from foliations.forms import CodimTooSmall, validate

    R = distribution_d2.ring
    common = R.variable(0) + R.variable(1)
    form = validate([common * f for f in distribution_d2.coefficients])
    assert free_resolution(Ideal(R, form.coefficients)).length == 4

    def no_saturation(*args, **kwargs):
        raise AssertionError("saturate called on a codim 1 ideal")

    monkeypatch.setattr(classify_mod, "saturate", no_saturation)
    for budget in (None, 10**6):
        with pytest.raises(CodimTooSmall), pair_budget(budget):
            classify(form)


# -- the pair budget ----------------------------------------------------------------


def test_one_pair_budget_bounds_the_whole_classification(l112):
    # classify(L112) takes 8 S-pairs over 4 loop runs, at most 7 in one run:
    # 7 would do for each run, but not for all of them
    with pytest.raises(StepBudgetExceeded, match="^syzygy pair budget 7 exhausted$"):
        with pair_budget(7):
            classify(l112)
    with pair_budget(8):
        report = classify(l112)
    # the spent budget is gone with its context: the next call runs on the default
    assert _pair_budget.get() is None
    assert classify(l112) == report


# -- the Macaulay matrix of the syzygy map -----------------------------------------


def _dense_syzygy_matrix(F, entry_degree: int) -> list[list]:
    """The syzygy map's matrix with a row for every monomial of the target
    degree, in ``_syzygy_matrix``'s column layout."""
    source = sorted(monomials_of_degree(R, entry_degree), reverse=True)
    target = monomials_of_degree(R, entry_degree + max(f.degree() for f in F))
    row_of = {m: r for r, m in enumerate(target)}
    matrix = [[0] * (len(F) * len(source)) for _ in target]
    for c, (f, m) in enumerate((f, m) for f in F for m in source):
        for e, x in f.mul_term(m, 1).terms:
            matrix[row_of[e]][c] += x
    return matrix


def _random_syzygy_tuples(count: int) -> list[list]:
    """Four entries of one degree, with zero and Fraction coefficients among
    them; every other kind has products that cancel in sum g_i F_i."""
    rng = Random(8)
    out = []
    while len(out) < count:
        kind, degree = len(out) % 4, rng.randint(1, 3)
        f, g = (random_homogeneous(rng, R, degree) for _ in range(2))
        if kind == 0:  # independent entries, some of them zero
            F = [random_homogeneous(rng, R, degree) if rng.random() < 0.7 else R.zero()
                 for _ in range(4)]
        elif kind == 1:  # a constant syzygy
            F = [f, -f, g, R.zero()]
        elif kind == 2:  # two Koszul syzygies
            F = [Z[1] * f, -Z[0] * f, Z[3] * g, -Z[2] * g]
        else:  # the Euler relation: F = i_R of a 2-form
            eta = {(i, j): random_homogeneous(rng, R, degree) for i, j in combinations(range(4), 2)}
            eta.update({(j, i): -h for (i, j), h in list(eta.items())})
            F = [sum((Z[i] * eta[(i, j)] for i in range(4) if i != j), R.zero()) for j in range(4)]
        if any(x.terms for x in F):
            out.append(F)
    return out


def test_sparse_syzygy_matrix_has_the_kernel_of_the_dense_one():
    # rows only for the monomials of the products: the same kernel, row for row
    tuples = [
        seeded(name, form, seed).coefficients
        for seed in (0, 1)
        for name, form in build_corpus() + build_larger_split_forms()
    ]
    tuples += _random_syzygy_tuples(120)
    for F in tuples:
        for k in (0, 1, 2):
            dense = _dense_syzygy_matrix(F, k)
            assert graded_syzygy_rows(F, k) == kernel_basis(dense, len(dense[0])), (F, k)


def test_syzygy_matrix_has_a_row_per_product_monomial(l1111):
    # L1111 has entries of degree 3: 13 of the 35 quartic monomials occur in
    # the products z_k * F_i
    rows, ncols = _syzygy_matrix(l1111.coefficients, 1)
    assert (len(rows), ncols) == (13, 16)
    assert all(any(row) for row in rows)
