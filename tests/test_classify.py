"""Classification verdicts on the paper's fixtures and engine-level schemes."""

import pytest

from foliations.classify import (
    classify,
    graded_syzygy_dimension,
    is_curve,
    is_saturated,
    is_split,
    rao_dimensions,
    splitting_type,
)
from foliations.forms import apply_projectivity, validate
from foliations.groebner import Ideal
from foliations.rings import PolyRing

R = PolyRing(4)
Z = R.variables()


def test_pencil_report(pencil):
    r = classify(pencil)
    assert (r.degree, r.saturated, r.is_curve, r.is_acm, r.is_split) == (0, True, True, True, True)
    assert r.splitting_type == (1, 1)
    assert r.rao_dims == {}
    assert r.normal_twist == 2


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
    assert splitting_type(pullback_d2) == (-1, 1)
    assert splitting_type(pullback_d1) == (0, 1)


def test_split_needs_curve(l112):
    assert not is_split(l112)
    with pytest.raises(ValueError):
        splitting_type(l112)
    with pytest.raises(ValueError):
        rao_dimensions(l112)


def test_is_saturated_engine_example():
    # (z0^2, z0z1, z0z2, z0z3) is not a foliation ideal; engine-level check
    # exercised through the raw saturation surface instead
    from foliations.saturation import is_saturated_ideal

    assert not is_saturated_ideal(Ideal(R, [Z[0] ** 2, Z[0] * Z[1], Z[0] * Z[2], Z[0] * Z[3]]))


def test_rao_of_skew_lines_engine_level():
    # not a foliation ideal either: exercised through Ext directly
    from foliations.ext import ext_module

    I = Ideal(R, [Z[0] * Z[2], Z[0] * Z[3], Z[1] * Z[2], Z[1] * Z[3]])
    e3 = ext_module(I, 3)
    rao = {(-4 - deg): dim for deg, dim in e3.finite_support().items()}
    assert rao == {0: 1}


def test_twisted_cubic_is_acm_engine_level():
    from foliations.resolutions import free_resolution

    I = Ideal(R, [Z[0] * Z[2] - Z[1] ** 2, Z[0] * Z[3] - Z[1] * Z[2], Z[1] * Z[3] - Z[2] ** 2])
    assert free_resolution(I).length == 2


def test_plane_saturation(plane_deg1, plane_deg2):
    assert is_saturated(plane_deg1)
    assert is_saturated(plane_deg2)


def test_syzygy_dimensions_drive_splitting(l1111, exceptional2):
    assert graded_syzygy_dimension(l1111.coefficients, 1) == 3
    assert graded_syzygy_dimension(l1111.coefficients, 0) == 0
    assert graded_syzygy_dimension(exceptional2.coefficients, 1) == 2


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
    moved = apply_projectivity(
        exceptional2, [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 2, 1]]
    )
    r = classify(moved)
    assert r.splitting_type == (-1, 0)
    assert r.betti == {(0, 0): 1, (1, 4): 4, (2, 5): 2, (2, 6): 1}
